"""Pluggable execution backends behind the :class:`Pool` API.

One registry maps backend *specs* — the strings ``Engine(pool=...)``,
:class:`repro.sim.options.ExecutionOptions`, and the CLI's
``--backend`` all accept — to concrete pools::

    serial              in-process reference backend
    local[:N]           warm persistent process pool, N workers
    ssh:HOSTFILE        per-host warm workers over ssh (one host[:slots]
                        per hostfile line)
    ssh-loopback[:N]    SSHPool wire protocol without sshd (CI/tests);
                        N single-slot *hosts* (``loop0``..``loopN-1``),
                        so per-host health/circuit-breaker semantics
                        (docs/INTERNALS.md §16) are exercisable locally

``make_pool("local:4")`` returns the pool; ``register_backend`` adds
new ones (the factory receives the text after the first ``:``, or
``None``).  See docs/INTERNALS.md §14 for the backend contract.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

from repro.sim.pools.base import (
    CellTimeout,
    ChunkPayload,
    HostDownError,
    Pool,
    PoolBrokenError,
    PoolCapabilities,
    completed_future,
)
from repro.sim.pools.local import LocalProcessPool, SerialPool
from repro.sim.pools.ssh import (
    SSHPool,
    loopback_transport,
    parse_hostfile,
    ssh_transport,
)

__all__ = [
    "CellTimeout",
    "ChunkPayload",
    "HostDownError",
    "LocalProcessPool",
    "Pool",
    "PoolBrokenError",
    "PoolCapabilities",
    "SSHPool",
    "SerialPool",
    "available_backends",
    "available_cpus",
    "completed_future",
    "loopback_transport",
    "make_pool",
    "parse_backend_spec",
    "parse_hostfile",
    "register_backend",
    "ssh_transport",
]

PoolFactory = Callable[[Optional[str]], Pool]

_REGISTRY: Dict[str, PoolFactory] = {}


def register_backend(name: str, factory: PoolFactory) -> None:
    """Register (or replace) a backend under a spec prefix."""
    _REGISTRY[name] = factory


def available_backends() -> List[str]:
    return sorted(_REGISTRY)


def parse_backend_spec(spec: str) -> "tuple[str, Optional[str]]":
    """Split ``name[:arg]``; the arg keeps any further colons intact."""
    name, sep, arg = spec.partition(":")
    return name.strip(), (arg if sep else None)


def make_pool(spec: str) -> Pool:
    """Resolve a backend spec (``local:4``, ``ssh:hosts.txt``, …)."""
    name, arg = parse_backend_spec(spec)
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown backend {name!r}; known: "
            f"{', '.join(available_backends())}"
        )
    return factory(arg)


#: Mount point of the cgroup file system read by :func:`_cgroup_cpu_limit`.
CGROUP_ROOT = "/sys/fs/cgroup"


def available_cpus() -> int:
    """CPUs this process may run on.

    The affinity mask (``os.sched_getaffinity``) where the platform has
    one — under ``taskset`` or a container CPU set it is smaller than
    the machine — else ``os.cpu_count()``; capped by a cgroup CPU quota
    (:func:`_cgroup_cpu_limit`), which containers use to share CPUs
    without shrinking the mask.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    limit = _cgroup_cpu_limit()
    return cpus if limit is None else min(cpus, limit)


def _cgroup_cpu_limit() -> Optional[int]:
    """CPUs a cgroup CPU quota allows, rounded up; None when unlimited.

    Reads cgroup v2 ``cpu.max`` (``"<quota> <period>"``, quota ``max``
    when unlimited), else cgroup v1 ``cpu/cpu.cfs_quota_us`` and
    ``cpu/cpu.cfs_period_us`` (quota ``-1`` when unlimited), at
    :data:`CGROUP_ROOT` — the container's own group under a cgroup
    namespace.  Missing or unreadable files mean no limit.
    """
    fields = _read_fields(os.path.join(CGROUP_ROOT, "cpu.max"))
    if fields is None:
        v1 = os.path.join(CGROUP_ROOT, "cpu")
        quota = _read_fields(os.path.join(v1, "cpu.cfs_quota_us"))
        period = _read_fields(os.path.join(v1, "cpu.cfs_period_us"))
        if quota is None or period is None:
            return None
        fields = quota + period
    try:
        quota, period = int(fields[0]), int(fields[1])
    except (IndexError, ValueError):  # "max", or a malformed file
        return None
    if quota <= 0 or period <= 0:
        return None
    return -(-quota // period)


def _read_fields(path: str) -> Optional[List[str]]:
    try:
        with open(path) as handle:
            return handle.read().split()
    except OSError:
        return None


def _int_arg(arg: Optional[str], default: int, spec: str) -> int:
    if arg is None or arg == "":
        return default
    try:
        return max(1, int(arg))
    except ValueError:
        raise ValueError(
            f"backend spec {spec!r} wants an integer worker count, "
            f"got {arg!r}"
        ) from None


def _make_serial(arg: Optional[str]) -> Pool:
    if arg:
        raise ValueError("the serial backend takes no argument")
    return SerialPool()


def _make_local(arg: Optional[str]) -> Pool:
    return LocalProcessPool(
        workers=_int_arg(arg, available_cpus(), f"local:{arg}")
    )


def _make_ssh(arg: Optional[str]) -> Pool:
    if not arg:
        raise ValueError(
            "the ssh backend needs a hostfile: --backend ssh:HOSTFILE"
        )
    return SSHPool(hosts=arg)


def _make_ssh_loopback(arg: Optional[str]) -> Pool:
    workers = _int_arg(arg, 2, f"ssh-loopback:{arg}")
    # N single-slot hosts (not one N-slot host): each loopback worker is
    # its own "host", so losing one exercises the surgical per-host
    # removal / circuit-breaker path instead of whole-pool breakage.
    return SSHPool(
        hosts=[(f"loop{i}", 1) for i in range(workers)],
        transport=loopback_transport,
    )


register_backend("serial", _make_serial)
register_backend("local", _make_local)
register_backend("ssh", _make_ssh)
register_backend("ssh-loopback", _make_ssh_loopback)
