"""Worker-side chunk execution, shared by every parallel backend.

This is the code that runs on the far side of a pool boundary — in a
``ProcessPoolExecutor`` worker (:class:`~repro.sim.pools.local
.LocalProcessPool`), in a remote ``ssh`` worker process
(:mod:`repro.sim.pools.ssh_worker`), or inline for
:class:`~repro.sim.pools.local.SerialPool`.  It moved here verbatim
from ``repro.sim.engine`` when the backends were lifted behind the
:class:`~repro.sim.pools.base.Pool` API; the engine's serial path still
imports :func:`run_with_alarm` and :func:`inject_cell_faults` from
here.

Module globals below are per worker process (each worker gets its own
module state, whether forked, spawned, or ssh-exec'd); the parent never
touches them.
"""

from __future__ import annotations

import pickle
import signal
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults import FaultPlan, InjectedFault
from repro.obs.events import TIMEOUT_DISABLED
from repro.obs.remote import SNAPSHOT_VERSION, ChunkCapture, worker_origin
from repro.sim.driver import RunResult, RunSpec, execute
from repro.sim.pools.base import CellTimeout, ChunkPayload


def run_with_alarm(
    spec: RunSpec,
    timeout: Optional[float],
    telemetry=None,
    fault_plan: Optional[FaultPlan] = None,
    on_unarmed: Optional[Callable[[], None]] = None,
) -> RunResult:
    """Execute a cell, bounded by SIGALRM when a timeout is requested.

    SIGALRM interrupts pure-Python simulation loops reliably on POSIX; it
    can only be armed from a main thread (worker processes always
    qualify).  When a timeout was requested but cannot be armed, the cell
    runs unbounded and ``on_unarmed`` is invoked so the caller can make
    the disabled budget visible instead of silent.
    """
    if timeout is None or timeout <= 0:
        return execute(spec, telemetry=telemetry, fault_plan=fault_plan)
    if threading.current_thread() is not threading.main_thread():
        if on_unarmed is not None:
            on_unarmed()
        return execute(spec, telemetry=telemetry, fault_plan=fault_plan)

    def _on_alarm(signum, frame):
        raise CellTimeout(
            f"cell ({spec.benchmark_name!r}, {spec.scheme!r}) exceeded "
            f"{timeout:.1f}s"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return execute(spec, telemetry=telemetry, fault_plan=fault_plan)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def worker_host_identity() -> Tuple[Optional[str], int]:
    """This worker's ``(host, incarnation)``, from the pool's env vars.

    Multi-host pools stamp each worker with ``$REPRO_WORKER_HOST`` and
    ``$REPRO_HOST_INCARNATION`` (the per-host respawn counter) so the
    ``host_down`` and ``straggler_delay`` fault sites can key on *which
    host* is executing.  Backends without host identity (the local
    process pool) leave them unset: ``(None, 0)``, and host faults are
    inert there.
    """
    import os

    host = os.environ.get("REPRO_WORKER_HOST") or None
    try:
        incarnation = int(os.environ.get("REPRO_HOST_INCARNATION", "0"))
    except ValueError:
        incarnation = 0
    return host, incarnation


def inject_host_faults(plan: Optional[FaultPlan]) -> None:
    """Fire the per-chunk ``host_down`` site (hard process exit).

    Decided once per chunk arrival, keyed on ``(host, incarnation)``:
    every worker of a "down" host draws the same verdict, so the whole
    host collapses exactly like a powered-off machine — the parent
    observes EOF on every pipe.  A later incarnation (circuit-breaker
    probe respawn) redraws, modelling an outage that heals.
    """
    if plan is None or plan.host_down <= 0.0:
        return
    host, incarnation = worker_host_identity()
    if host is None:
        return
    if plan.decide("host_down", (host, incarnation)):
        import os

        os._exit(23)


def inject_straggler_delay(
    plan: Optional[FaultPlan], spec: RunSpec, attempt: int
) -> None:
    """Fire the per-cell ``straggler_delay`` site (wall-clock sleep).

    Keyed on ``(host, benchmark, scheme, attempt)`` — a slow *host*,
    not a slow cell — so the engine's speculative re-execution of the
    same cell on a different host redraws the delay and can win the
    race.  Never perturbs results; only scheduling.
    """
    if plan is None or plan.straggler_delay <= 0.0:
        return
    host, _ = worker_host_identity()
    if host is None:
        return
    key = (host, spec.benchmark_name, spec.scheme, attempt)
    if plan.decide("straggler_delay", key):
        time.sleep(plan.straggler_delay_s)


def inject_cell_faults(
    plan: Optional[FaultPlan], spec: RunSpec, attempt: int
) -> None:
    """Raise the per-attempt engine faults a plan schedules for a cell."""
    if plan is None:
        return
    key = (spec.benchmark_name, spec.scheme, attempt)
    if plan.decide("cell_exception", key):
        raise InjectedFault(
            f"injected exception in cell "
            f"({spec.benchmark_name!r}, {spec.scheme!r}), "
            f"attempt {attempt}"
        )
    if plan.decide("cell_timeout", key):
        raise CellTimeout(
            f"injected timeout in cell "
            f"({spec.benchmark_name!r}, {spec.scheme!r}), "
            f"attempt {attempt}"
        )


#: Built benchmarks memoised by name.  Safe to reuse across cells: a run
#: never mutates a ``BuiltBenchmark`` — the kernels decode programs into
#: per-VM tables and all run state lives in the VM/machine objects.
_WORKER_BENCHES: Dict[str, object] = {}

#: Warm-start statistics recorded by :func:`pool_initializer`, shipped
#: to the parent with the first chunk this worker completes, then cleared.
_WORKER_WARMUP: Optional[Dict[str, object]] = None


def worker_built(benchmark):
    """Worker-side memoised ``build_benchmark`` (str names only)."""
    if not isinstance(benchmark, str):
        return benchmark
    built = _WORKER_BENCHES.get(benchmark)
    if built is None:
        from repro.workloads.specjvm import build_benchmark

        built = _WORKER_BENCHES[benchmark] = build_benchmark(benchmark)
    return built


def pool_initializer(benchmarks: Tuple[str, ...]) -> None:
    """Warm one worker before it serves cells.

    Pre-builds the batch's benchmarks and pre-decodes every program, which
    compiles all fused block closures into this process's blockjit code
    cache — so the first real cell starts simulating immediately instead
    of paying program generation + codegen.  Best-effort by design: a
    failure here must not poison the pool (the cell itself will rebuild
    and surface the real error through the retry machinery).
    """
    global _WORKER_WARMUP
    from repro.vm import blockjit
    from repro.vm.jit import BlockDecoder

    started = time.perf_counter()
    compiles_before = blockjit.CACHE_STATS["compiles"]
    stats: Dict[str, object] = {"benchmarks": 0, "blocks": 0, "errors": 0}
    for name in benchmarks:
        try:
            built = worker_built(name)
            decoder = BlockDecoder(built.program)
            for method in built.program.methods.values():
                stats["blocks"] += len(decoder.table(method))
            stats["benchmarks"] += 1
        except Exception:
            stats["errors"] += 1
    stats["fused_compiles"] = (
        blockjit.CACHE_STATS["compiles"] - compiles_before
    )
    stats["warm_s"] = round(time.perf_counter() - started, 6)
    _WORKER_WARMUP = stats


def picklable(error: BaseException) -> BaseException:
    """The error itself if it survives pickling, else a repr stand-in.

    Chunk outcomes travel back to the parent in one pickled payload; one
    unpicklable exception must degrade to a readable substitute instead
    of taking the whole chunk's results down with it.  Either way the
    formatted traceback rides along as ``remote_traceback`` — pickling
    strips ``__traceback__`` (frames hold whole stacks alive), and a
    cross-backend failure with no traceback is undebuggable.
    """
    tb = "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )
    try:
        # Set before the round-trip test: BaseException pickling carries
        # ``__dict__``, so the attribute must survive it too.
        error.remote_traceback = tb
    except Exception:
        pass  # __slots__ exceptions: the stand-in still carries it
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        stand_in = RuntimeError(repr(error))
        stand_in.remote_traceback = tb
        return stand_in


def run_chunk(payload: ChunkPayload) -> tuple:
    """Top-level chunk entry (must be importable for pickling).

    ``payload`` is ``(cells, timeout, plan, capture)``, where ``cells``
    is a tuple of ``(index, spec, attempt)`` and ``capture`` is a
    plain-dict spec (``{"max_events": N}``) when the parent's telemetry
    session is live, else ``None``; the timeout and the fault plan are
    pickled once per chunk instead of once per cell.
    Returns ``(warmup, outcomes, chunk_info)``; each outcome is
    ``(index, "ok", result)`` or ``(index, "error", error)``.
    ``chunk_info`` always carries at least the executor's identity
    (``origin`` = ``host#pid``, ``host_id`` = ``host#incarnation`` on
    multi-host pools), per-cell measured seconds (``cell_times``, a
    tuple of ``(index, seconds)``), the chunk's total service seconds
    (``service_s``), and the unarmed-timeout count — the engine's cost
    model learns runtime estimates and host speeds from these
    (docs/INTERNALS.md §18).  With a live capture it is the full
    clock-stamped telemetry snapshot, same extra keys included.
    Per-cell failures are *returned*, not raised, so one bad cell
    cannot discard its chunk-mates' finished work.  A worker-crash
    injection still hard-exits the process, so the parent observes a
    broken pool exactly like a segfaulting or OOM-killed worker.

    Telemetry never influences execution: cells run identically with and
    without a capture spec (the bit-identity grid in
    tests/test_remote_obs.py holds the contract).
    """
    global _WORKER_WARMUP
    cells, timeout, plan, capture_spec = payload
    capture = ChunkCapture(capture_spec) if capture_spec else None
    inject_host_faults(plan)
    unarmed = 0
    outcomes: List[Tuple[int, str, object]] = []
    cell_times: List[Tuple[int, float]] = []
    chunk_started = time.perf_counter()
    for index, spec, attempt in cells:
        if plan is not None and plan.decide(
            "worker_crash", (spec.benchmark_name, spec.scheme, attempt)
        ):
            import os

            os._exit(17)
        cell_telemetry = capture.begin_cell() if capture else None

        def _on_unarmed(telemetry=cell_telemetry):
            nonlocal unarmed
            unarmed += 1
            if telemetry is not None:
                telemetry.emit_wall(
                    TIMEOUT_DISABLED,
                    reason=(
                        "SIGALRM needs the worker's main thread; "
                        "cell ran unbounded"
                    ),
                )

        status = "ok"
        cell_started = time.perf_counter()
        try:
            inject_cell_faults(plan, spec, attempt)
            inject_straggler_delay(plan, spec, attempt)
            spec.benchmark = worker_built(spec.benchmark)
            outcomes.append(
                (
                    index,
                    "ok",
                    run_with_alarm(
                        spec,
                        timeout,
                        cell_telemetry,
                        fault_plan=plan,
                        on_unarmed=_on_unarmed,
                    ),
                )
            )
        except Exception as error:  # noqa: BLE001 — parent retries
            status = "error"
            outcomes.append((index, "error", picklable(error)))
        finally:
            cell_times.append(
                (index, time.perf_counter() - cell_started)
            )
            if capture is not None:
                capture.end_cell(index, spec, status)
    warmup, _WORKER_WARMUP = _WORKER_WARMUP, None
    if capture is not None:
        chunk_info = capture.finish(unarmed)
    else:
        chunk_info = {
            "v": SNAPSHOT_VERSION,
            "unarmed_timeouts": unarmed,
            "cells": None,
        }
    # Cost-model feed (docs/INTERNALS.md §18): executor identity and
    # measured per-cell seconds ride every reply.  ``host_id`` is the
    # pool-level identity (``host#incarnation``) when one exists, so
    # host-speed EWMAs survive worker respawns within an incarnation.
    host, incarnation = worker_host_identity()
    chunk_info["origin"] = worker_origin()
    chunk_info["host_id"] = (
        f"{host}#{incarnation}" if host is not None else None
    )
    chunk_info["cell_times"] = tuple(cell_times)
    chunk_info["service_s"] = time.perf_counter() - chunk_started
    return warmup, outcomes, chunk_info
