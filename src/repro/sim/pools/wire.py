"""Framed-pickle wire format shared by SSHPool and its worker.

One frame = 8-byte big-endian length + pickle blob.  Lives in its own
module so ``python -m repro.sim.pools.ssh_worker`` does not re-import
the worker module through the package ``__init__`` (runpy warns about
that), and so the pool side never imports worker-only code.

The framing is payload-agnostic on purpose: it carries whatever the
chunk protocol says (one payload shape, one reply shape —
docs/INTERNALS.md §14) without knowing its contents.
"""

from __future__ import annotations

import pickle
import struct
from typing import BinaryIO, Optional

_HEADER = struct.Struct(">Q")


def write_frame(stream: BinaryIO, message: object) -> None:
    blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_HEADER.pack(len(blob)))
    stream.write(blob)
    stream.flush()


def read_frame(stream: BinaryIO) -> Optional[object]:
    """Next message, or None on a clean EOF at a frame boundary."""
    header = stream.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise EOFError("truncated frame header")
    (length,) = _HEADER.unpack(header)
    blob = b""
    while len(blob) < length:
        piece = stream.read(length - len(blob))
        if not piece:
            raise EOFError("truncated frame body")
        blob += piece
    return pickle.loads(blob)
