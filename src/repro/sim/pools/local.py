"""In-process and local-multiprocess backends.

:class:`SerialPool` answers chunks synchronously in the calling
process — the reference backend every other backend must match bit for
bit (and the natural choice for tracing, debugging, and single-cell
runs).

:class:`LocalProcessPool` is the warm persistent ``ProcessPoolExecutor``
the engine grew in earlier iterations, moved behind the
:class:`~repro.sim.pools.base.Pool` API: workers survive across
batches, the spawn-time initializer pre-builds benchmarks and pre-fuses
their block closures (docs/INTERNALS.md §13), and a dead worker
surfaces as ``BrokenProcessPool`` for the engine's rebuild machinery.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Optional, Sequence, Tuple

from repro.sim.pools import worker as worker_mod
from repro.sim.pools.base import (
    ChunkPayload,
    Pool,
    PoolBrokenError,
    PoolCapabilities,
    completed_future,
)


class SerialPool(Pool):
    """Chunks run inline in the calling process, one cell at a time.

    ``submit_chunk`` returns an already-resolved future; per-cell
    failures come back as ``("error", exc)`` outcomes exactly like a
    process backend would report them.  There are no workers to crash,
    so ``rebuild`` is a no-op and ``worker_crash`` injections never
    fire (the plan site requires a disposable process).
    """

    name = "serial"
    capabilities = PoolCapabilities(
        parallel=False, rebuild=False, remote=False, warm_start=False
    )
    workers = 1

    def __init__(self) -> None:
        self._alive = False

    def start(self, warm_benchmarks: Sequence[str] = ()) -> bool:
        spawned = not self._alive
        self._alive = True
        return spawned

    def submit_chunk(self, payload: ChunkPayload) -> "Future":
        if not self._alive:
            raise PoolBrokenError("SerialPool is closed")
        import dataclasses

        cells, timeout, plan, capture = payload
        # No pickle boundary shields the caller here, so two worker-side
        # behaviours must be neutralised inline: ``run_chunk`` mutating
        # ``spec.benchmark`` into a built object (copy each spec), and a
        # ``worker_crash`` injection ``os._exit``-ing the calling
        # process (the site requires a disposable worker; the serial
        # engine path has never honoured it either).
        safe_cells = tuple(
            (index, dataclasses.replace(spec), attempt)
            for index, spec, attempt in cells
        )
        if plan is not None and (plan.worker_crash or plan.host_down):
            plan = dataclasses.replace(
                plan, worker_crash=0.0, host_down=0.0
            )
        return completed_future(
            worker_mod.run_chunk((safe_cells, timeout, plan, capture))
        )

    def close(self, fail_fast: bool = False) -> None:
        self._alive = False

    @property
    def alive(self) -> bool:
        return self._alive


def _shutdown_executor(pool: ProcessPoolExecutor, fail_fast: bool) -> None:
    """Shut an executor down; fail-fast drops pending work, no wait.

    ``cancel_futures`` exists from Python 3.9; on 3.8 the guard degrades
    to a plain no-wait shutdown (pending cells still run, but the caller
    is no longer blocked on them).
    """
    if not fail_fast:
        pool.shutdown(wait=True)
        return
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover — Python 3.8 fallback
        pool.shutdown(wait=False)


class LocalProcessPool(Pool):
    """Persistent warm ``ProcessPoolExecutor`` backend (the default for
    ``--backend local:N`` / ``--jobs N``)."""

    name = "local"
    capabilities = PoolCapabilities(
        parallel=True, rebuild=True, remote=False, warm_start=True
    )
    broken_exceptions: Tuple[type, ...] = (BrokenProcessPool, PoolBrokenError)

    def __init__(self, workers: int = 2, warm_start: bool = True):
        self.workers = max(1, int(workers))
        self.warm_start = bool(warm_start)
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Benchmarks the live executor's initializer pre-built.
        self.warmed: Tuple[str, ...] = ()

    def start(self, warm_benchmarks: Sequence[str] = ()) -> bool:
        if self._executor is not None:
            return False
        self.warmed = (
            tuple(dict.fromkeys(warm_benchmarks)) if self.warm_start else ()
        )
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=worker_mod.pool_initializer,
            initargs=(self.warmed,),
        )
        return True

    def submit_chunk(self, payload: ChunkPayload) -> "Future":
        if self._executor is None:
            raise PoolBrokenError("LocalProcessPool is not started")
        return self._executor.submit(worker_mod.run_chunk, payload)

    def host_slots(self) -> Dict[str, int]:
        """One homogeneous fleet: sibling processes on one machine run
        at the same speed, so all slots share a single identity and the
        scheduler packs them unweighted (chunk replies key their
        ``origin`` by pid, which deliberately never matches this)."""
        return {"local": self.workers}

    def close(self, fail_fast: bool = False) -> None:
        executor, self._executor = self._executor, None
        self.warmed = ()
        if executor is not None:
            _shutdown_executor(executor, fail_fast)

    @property
    def alive(self) -> bool:
        return self._executor is not None
