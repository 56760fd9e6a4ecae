"""One repetition of a workload in a fresh interpreter.

Started by ``run.py``; prints one JSON record as its last line.  Modes:

``setup``    set-up only;
``measure``  set-up, then the timed phase on the real engine (``jobs=N``);
``inline``   the same on an in-process pool, untraced;
``spans``    the same with every layer entry point wrapped in spans;
``profile``  a stratified sample of the workload's cells under cProfile;
``cell``     one cell (``--cell``) alone on a serial engine, for its digest.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _rusage_s() -> float:
    """CPU seconds of this process plus every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest child's."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _simulated(outcome) -> dict:
    """Simulated statistics of the resolved cells (not host time)."""
    runs = [run for run in outcome.results if run is not None]
    applied = sum(sum(r.applied_reconfigurations.values()) for r in runs)
    denied = sum(sum(r.denied_reconfigurations.values()) for r in runs)
    return {
        "l1d_miss_rate": sum(r.l1d_miss_rate for r in runs) / len(runs),
        "l2_miss_rate": sum(r.l2_miss_rate for r in runs) / len(runs),
        "reconfigs": applied,
        "reconfig_accept_ratio": (
            applied / (applied + denied) if applied + denied else 0.0
        ),
    }


def _problems(workload, outcome) -> list:
    from workloads import MAX_OVERSHOOT, digest

    problems = []
    if not workload.simulates and outcome.simulations:
        problems.append(f"the timed phase simulated {outcome.simulations} cells")
    expected = digest(outcome.results)
    if any(digest(other) != expected for other in outcome.must_equal):
        problems.append("re-resolved results differ from the ones written")
    budget = outcome.budget
    for run in outcome.results:
        if run is not None and not (
            budget <= run.instructions < budget + MAX_OVERSHOOT
        ):
            problems.append(
                f"{run.benchmark}/{run.scheme} retired {run.instructions} "
                f"instructions for a budget of {budget}"
            )
    return problems


def _measure(ctx, workload, t0: float, record: dict) -> None:
    from workloads import digest, paper_error_pp, shape_failures

    state = workload.setup(ctx)
    record["setup_s"] = time.monotonic() - t0
    cpu0, wall0 = _rusage_s(), time.perf_counter()
    outcome = workload.measure(ctx, state)
    wall = time.perf_counter() - wall0
    record["cpu_s"] = _rusage_s() - cpu0
    record["wall_s"] = wall
    record["peak_rss_mb"] = _peak_rss_mb()
    record["cells"] = outcome.cells
    record["failed"] = outcome.failures
    record["simulations"] = outcome.simulations
    record["sim_instructions"] = (
        sum(run.instructions for run in outcome.results if run is not None)
        if workload.simulates
        else 0
    )
    record["config_seeds"] = workload.config_seeds(ctx.seed)
    record["digest"] = digest(outcome.results)
    record["cell_digests"] = [digest([run])[:16] for run in outcome.results]
    record["problems"] = _problems(workload, outcome)
    record["simulated"] = _simulated(outcome)
    record["paper_err_pp"] = paper_error_pp(outcome.suites)
    record["shape_failures"] = (
        shape_failures(outcome.suites[0]) if workload.checks_shape else []
    )
    stats = outcome.stats
    if stats is not None:
        record["engine"] = {
            "rounds_lpt": stats.rounds_lpt,
            "predicted_makespan_s": stats.predicted_makespan_s,
            "actual_makespan_s": stats.actual_makespan_s,
        }


def _profile_cell(spec) -> tuple:
    """Execute one cell under cProfile; returns its layer self times.

    The benchmark is built before profiling starts, as the engine's
    workers build it outside ``execute``.
    """
    import cProfile
    import dataclasses
    import pstats

    from repro.sim.driver import execute
    from repro.workloads.specjvm import build_benchmark
    from tracing import profile_groups

    built = dataclasses.replace(spec, benchmark=build_benchmark(spec.benchmark))
    profiler = cProfile.Profile()
    profiler.runcall(execute, built)
    return spec.scheme, profile_groups(pstats.Stats(profiler))


def _profile(ctx, workload, record: dict) -> None:
    """Profile the workload's sample cells, ``ctx.jobs`` at a time."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    profile: dict = {}
    cells = workload.profile_cells(ctx.seed)
    if cells:
        with ProcessPoolExecutor(
            max_workers=ctx.jobs, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            for scheme, groups in pool.map(_profile_cell, cells):
                totals = profile.setdefault(scheme, dict.fromkeys(groups, 0.0))
                for group, seconds in groups.items():
                    totals[group] += seconds
    record["profile"] = profile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument(
        "--mode",
        choices=("setup", "measure", "inline", "spans", "profile", "cell"),
        required=True,
    )
    parser.add_argument(
        "--t0", type=float, required=True,
        help="time.monotonic() just before this interpreter was started",
    )
    parser.add_argument("--inject", default=None, help="FaultPlan spec")
    parser.add_argument("--cell", type=int, default=0, help="cell index")
    args = parser.parse_args(argv)

    from tracing import Tracer, inline_pool, install, trace_pool
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload]
    ctx = Context(seed=args.seed, jobs=args.jobs, scratch=args.scratch)
    if args.inject:
        from repro.faults import FaultPlan

        ctx.fault_plan = FaultPlan.from_spec(args.inject)
    record = {"mode": args.mode}
    if args.mode == "setup":
        workload.setup(ctx)
        record["setup_s"] = time.monotonic() - args.t0
    elif args.mode == "profile":
        _profile(ctx, workload, record)
    elif args.mode == "cell":
        from repro.sim.engine import Engine
        from workloads import digest

        with Engine(store=None, use_cache=False, memory_cache={}) as engine:
            result = engine.run([workload.cells(args.seed)[args.cell]])
        record["digest"] = digest(result.values())[:16]
    else:
        if args.mode in ("inline", "spans"):
            ctx.make_pool = inline_pool
        if args.mode == "spans":
            from repro.vm import blockjit

            tracer = Tracer()
            install(tracer)
            ctx.span, ctx.paused = tracer.span, tracer.paused

            def make_traced_pool(workers):
                pool = inline_pool(workers)
                trace_pool(tracer, pool)
                return pool

            ctx.make_pool = make_traced_pool
            before = blockjit.cache_info()
        _measure(ctx, workload, args.t0, record)
        if args.mode == "spans":
            after = blockjit.cache_info()
            record["layers"] = tracer.snapshot()
            record["blockjit"] = {
                key: after[key] - before[key] for key in ("compiles", "hits")
            }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
