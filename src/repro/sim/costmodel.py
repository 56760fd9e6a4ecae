"""Runtime cost model: per-cell wall-clock estimates learned from history.

The paper's thesis — steer optimization decisions with *measured*
runtime behaviour instead of static heuristics — applied to our own
execution layer.  Every cell the engine runs leaves an observation
(wall-clock seconds); this module turns those observations into
estimates the scheduler (:mod:`repro.sim.schedule`) packs chunks with,
and into per-host speed weights so heterogeneous ``SSHPool`` fleets
receive proportionally sized work.

Estimates are EWMA means keyed on the cell's **cost key**::

    (benchmark, scheme, sim_kernel, max_instructions bucket)

The bucket is ``int(log2(effective max_instructions))``, so a 300k-
instruction cell and a 310k one share an estimate while a 3M one does
not.  The key deliberately excludes the full configuration fingerprint:
runtime cost is dominated by kernel choice and instruction budget, and
a coarser key means a *new* configuration is predicted from the history
of similar ones already measured — the cross-configuration prediction
idea of the paper's related work.

Three history sources feed one model:

* **online** — the engine calls :meth:`CostModel.observe` with each
  completed cell's worker-measured seconds;
* **store bootstrap** — :meth:`CostModel.bootstrap_from_store` replays
  the ``meta`` blocks (``elapsed_s`` + cost key) that
  :class:`repro.sim.store.ResultStore` persists with each entry, so a
  fresh process warm-boots from every run that ever hit the store;
* **snapshot file** — :meth:`load_dir`/:meth:`save_dir` round-trip the
  model through ``<dir>/cost_model.json`` (atomic replace), for
  store-less runs that still want cross-process estimates
  (``ExecutionOptions.cost_model_dir``).

Estimates never influence *results* — only chunk packing, dispatch
order, and straggler budgets: the model is the engine's only runtime
estimator.  A wildly wrong estimate can cost wall
clock, never correctness (docs/INTERNALS.md §18).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

#: Version stamp of the snapshot file and of store ``meta`` blocks this
#: model understands; unknown versions are skipped, never errors.
COST_MODEL_VERSION = 1

#: Snapshot file name under ``cost_model_dir``.
SNAPSHOT_NAME = "cost_model.json"

#: EWMA weight of the newest observation.  0.3 tracks drift (a machine
#: that warms up, a kernel change) within a few batches while smoothing
#: per-run noise.
EWMA_ALPHA = 0.3

#: A cost key: (benchmark, scheme, sim_kernel, instruction bucket).
CostKey = Tuple[str, str, str, int]


def instruction_bucket(max_instructions: Optional[int]) -> int:
    """Log2 bucket of an instruction budget (0 for unknown/absurd)."""
    if not max_instructions or max_instructions <= 0:
        return 0
    return int(max_instructions).bit_length()


def cost_key(spec) -> CostKey:
    """The estimate bucket a :class:`~repro.sim.driver.RunSpec` maps to."""
    config = spec.config
    budget = spec.max_instructions
    if budget is None:
        budget = getattr(config, "max_instructions", None)
    return (
        spec.benchmark_name,
        spec.scheme,
        getattr(config, "sim_kernel", "fast"),
        instruction_bucket(budget),
    )


class CostModel:
    """EWMA per-cell runtime estimates plus per-host speed weights."""

    def __init__(self, alpha: float = EWMA_ALPHA):
        self.alpha = float(alpha)
        #: cost key -> [ewma seconds, observation count]
        self._estimates: Dict[CostKey, List[float]] = {}
        #: ``host#incarnation`` (or ``host#pid``) -> [ewma cells/s, count]
        self._hosts: Dict[str, List[float]] = {}
        #: Observations folded in since the last :meth:`save_dir`.
        self.dirty = False

    # -- cell estimates ----------------------------------------------------

    def estimate(self, spec) -> Optional[float]:
        """Predicted wall-clock seconds for a cell; None when unknown."""
        entry = self._estimates.get(cost_key(spec))
        return None if entry is None else entry[0]

    def observe(self, spec, elapsed_s: float) -> None:
        """Fold one measured cell runtime into its bucket's EWMA."""
        if elapsed_s is None or elapsed_s < 0:
            return
        self._observe_key(cost_key(spec), float(elapsed_s))

    def _observe_key(self, key: CostKey, elapsed_s: float) -> None:
        entry = self._estimates.get(key)
        if entry is None:
            self._estimates[key] = [elapsed_s, 1]
        else:
            entry[0] += self.alpha * (elapsed_s - entry[0])
            entry[1] += 1
        self.dirty = True

    @property
    def known_keys(self) -> int:
        return len(self._estimates)

    @property
    def observations(self) -> int:
        return sum(int(c) for _, c in self._estimates.values())

    # -- host speeds -------------------------------------------------------

    def observe_host(
        self, host_id: Optional[str], cells: int, elapsed_s: float
    ) -> None:
        """Fold one chunk's measured throughput into a host's EWMA.

        ``host_id`` is the executor identity a chunk reply carries —
        ``host#incarnation`` for ssh workers, ``host#pid`` otherwise.
        Throughput (cells/second) rather than seconds/cell, so hosts
        serving differently sized chunks stay comparable.
        """
        if not host_id or cells <= 0 or elapsed_s is None or elapsed_s <= 0:
            return
        speed = cells / float(elapsed_s)
        entry = self._hosts.get(host_id)
        if entry is None:
            self._hosts[host_id] = [speed, 1]
        else:
            entry[0] += self.alpha * (speed - entry[0])
            entry[1] += 1
        self.dirty = True

    def host_speed(self, host_id: Optional[str]) -> Optional[float]:
        """EWMA cells/second of one executor; None when never observed."""
        if not host_id:
            return None
        entry = self._hosts.get(host_id)
        return None if entry is None else entry[0]

    def host_weights(self, host_slots: Dict[str, int]) -> Optional[List[float]]:
        """Per-slot relative speed weights for a pool's live hosts.

        ``host_slots`` maps executor identity to its slot count (see
        :meth:`repro.sim.pools.base.Pool.host_slots`).  Each slot of a
        host gets the host's speed normalised by the mean observed
        speed; hosts never observed get weight 1.0 (assumed average).
        Returns None when no host has been observed at all — uniform
        weights carry no information, and the scheduler skips weighting
        entirely.
        """
        if not host_slots:
            return None
        speeds = {
            host: self.host_speed(host) for host in host_slots
        }
        known = [s for s in speeds.values() if s]
        if not known:
            return None
        mean = sum(known) / len(known)
        if mean <= 0:
            return None
        weights: List[float] = []
        for host, slots in host_slots.items():
            weight = (speeds[host] / mean) if speeds[host] else 1.0
            weights.extend([max(0.05, weight)] * max(1, int(slots)))
        return weights

    # -- persistence -------------------------------------------------------

    def store_meta(self, spec, elapsed_s: float, executed_by: Optional[str]):
        """The ``meta`` block persisted with a store entry (schema v1)."""
        return {
            "v": COST_MODEL_VERSION,
            "elapsed_s": round(float(elapsed_s), 6),
            "executed_by": executed_by,
            "cost_key": list(cost_key(spec)),
        }

    def bootstrap_from_store(self, store) -> int:
        """Warm-boot from a :class:`~repro.sim.store.ResultStore`'s entry
        metadata; returns the number of observations replayed.

        Entries written before metadata existed (or by a newer meta
        version) are skipped silently — bootstrap degrades to cold
        start, never to an error.  Host speeds are *not* replayed: a
        prior process's worker pids/incarnations never match this one's.
        """
        replayed = 0
        if store is None:
            return replayed
        try:
            metas = list(store.iter_meta())
        except Exception:
            return replayed
        for meta in metas:
            replayed += self._replay_meta(meta)
        self.dirty = False  # replayed history is already persisted
        return replayed

    def _replay_meta(self, meta) -> int:
        if not isinstance(meta, dict) or meta.get("v") != COST_MODEL_VERSION:
            return 0
        key = meta.get("cost_key")
        elapsed = meta.get("elapsed_s")
        if (
            not isinstance(key, (list, tuple))
            or len(key) != 4
            or not isinstance(elapsed, (int, float))
            or elapsed < 0
        ):
            return 0
        try:
            self._observe_key(
                (str(key[0]), str(key[1]), str(key[2]), int(key[3])),
                float(elapsed),
            )
        except (TypeError, ValueError):
            return 0
        return 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "v": COST_MODEL_VERSION,
            "saved": time.time(),
            "estimates": [
                [list(key), mean, count]
                for key, (mean, count) in sorted(self._estimates.items())
            ],
            "hosts": [
                [host, speed, count]
                for host, (speed, count) in sorted(self._hosts.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CostModel":
        model = cls()
        if not isinstance(payload, dict):
            return model
        if payload.get("v") != COST_MODEL_VERSION:
            return model
        for row in payload.get("estimates") or ():
            try:
                key, mean, count = row
                model._estimates[
                    (str(key[0]), str(key[1]), str(key[2]), int(key[3]))
                ] = [float(mean), int(count)]
            except (TypeError, ValueError, IndexError):
                continue
        for row in payload.get("hosts") or ():
            try:
                host, speed, count = row
                model._hosts[str(host)] = [float(speed), int(count)]
            except (TypeError, ValueError):
                continue
        return model

    @classmethod
    def load_dir(cls, directory: Union[str, Path]) -> "CostModel":
        """Model from ``<dir>/cost_model.json``; empty model on any miss."""
        path = Path(directory) / SNAPSHOT_NAME
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        except (OSError, ValueError):
            return cls()

    def save_dir(self, directory: Union[str, Path]) -> Optional[Path]:
        """Atomically snapshot to ``<dir>/cost_model.json`` (best effort).

        Concurrent writers each commit a complete file (temp + replace);
        last writer wins, which is fine for an advisory model.
        """
        directory = Path(directory)
        path = directory / SNAPSHOT_NAME
        try:
            directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(directory), prefix=SNAPSHOT_NAME, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(self.to_dict(), handle, separators=(",", ":"))
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return None
        self.dirty = False
        return path

    def __repr__(self) -> str:
        return (
            f"CostModel({self.known_keys} keys, "
            f"{len(self._hosts)} hosts)"
        )
