"""Benchmark: the time to regenerate the paper's evaluation.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Every repetition runs in a fresh interpreter (``rep.py``) with its own
``PYTHONHASHSEED``, at most ``len(os.sched_getaffinity(0))`` workers
(and no more than 2).  ``--trace 0`` times the workload and prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` makes the
separate traced passes and prints the per-layer metrics.  The last line
of standard output is one JSON object; the lines before it record the
seeds, digests and checks.  The exit code is non-zero when an output is
wrong.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import PROFILE_GROUPS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout, removed when the run ends.
SCRATCH = ROOT / ".perfbench_tmp"
#: Set-up samples per run (extra set-up-only interpreters when needed).
MIN_SETUPS = 5
REP_TIMEOUT_S = 170
#: Workloads whose set-up fills a store, so every sample costs a sweep.
SETUP_SIMULATES = ("store-warm",)


class BenchError(RuntimeError):
    """A repetition crashed or timed out."""


def host_cpus() -> int:
    """CPUs this process may run on (the affinity mask, not the host)."""
    return len(os.sched_getaffinity(0))


def hash_seed(seed: int, index: int) -> int:
    """A distinct, recorded ``PYTHONHASHSEED`` for each repetition."""
    return (seed * 1_000_003 + index * 7_919 + 1) % 4_294_967_296


def run_rep(workload, seed, mode, jobs, index, inject=None, cell=0) -> dict:
    """One repetition in a fresh interpreter; returns its JSON record."""
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=SCRATCH)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["PYTHONHASHSEED"] = str(hash_seed(seed, index))
    env["REPRO_STORE_DIR"] = os.path.join(scratch, "default-store")
    env.pop("REPRO_FLIGHT_DIR", None)
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--jobs", str(jobs), "--mode", mode,
        "--scratch", scratch, "--cell", str(cell),
    ] + (["--inject", inject] if inject else [])
    try:
        t0 = time.monotonic()
        child = subprocess.Popen(
            command + ["--t0", repr(t0)], stdout=subprocess.PIPE, env=env,
            cwd=str(ROOT), start_new_session=True, text=True,
        )
        try:
            out, _ = child.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise BenchError(f"{workload}/{mode} timed out") from None
        finally:
            # Pool workers share the child's session; none may outlive it.
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if child.returncode != 0:
        raise BenchError(f"{workload}/{mode} exited {child.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    record["hash_seed"] = hash_seed(seed, index)
    return record


def rep_problems(reps) -> list:
    """Correctness problems of a list of repetitions of one workload."""
    problems = []
    for rep in reps:
        problems.extend(rep["problems"])
        if rep["shape_failures"]:
            problems.append(
                "paper-shape checks failed: " + ", ".join(rep["shape_failures"])
            )
    digests = {rep["digest"] for rep in reps}
    if len(digests) > 1:
        problems.append(
            "result digests differ across interpreters: "
            + ", ".join(
                f"PYTHONHASHSEED={rep['hash_seed']}:{rep['digest'][:12]}"
                for rep in reps
            )
        )
    return problems


def end_to_end(reps, setups) -> dict:
    walls = [rep["wall_s"] for rep in reps]
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(rep["cpu_s"] for rep in reps),
        "cells_per_s": sum(rep["cells"] for rep in reps) / sum(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "paper_err_pp": reps[0]["paper_err_pp"],
    }


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(real, inline, spans, profile, jobs) -> dict:
    """Per-layer metrics from the traced passes of one workload."""
    layers = spans["layers"]

    def layer(name, key="self_s"):
        return layers.get(name, {}).get(key, 0)

    executes = {
        name.partition(":")[2]: values
        for name, values in layers.items()
        if name.startswith("sim.driver.execute:")
    }
    execute_s = sum(values["self_s"] for values in executes.values())
    instructions = sum(values.get("instructions", 0) for values in executes.values())
    # EngineStats of the real run; an unplanned (cold) round predicts 0.
    engine = real.get("engine", {})
    predicted = engine.get("predicted_makespan_s", 0.0)
    metrics = {
        "workloads.build_s": layer("workloads.build"),
        "workloads.builds": layer("workloads.build", "n"),
        "sim.config.fingerprint_s": layer("sim.config.fingerprint"),
        "sim.config.fingerprints": layer("sim.config.fingerprint", "n"),
        "sim.store.put_s": layer("sim.store.put"),
        "sim.store.puts": layer("sim.store.put", "entries"),
        "sim.store.bytes_written": layer("sim.store.put", "bytes"),
        "sim.pools.submit_s": layer("sim.pools.submit"),
        "sim.pools.chunks": layer("sim.pools.submit", "n"),
        "sim.pools.start_s": layer("sim.pools.start"),
        "sim.store.get_s": layer("sim.store.get"),
        "sim.store.gets": layer("sim.store.get", "n"),
        "sim.store.hit_ratio": _ratio(
            layer("sim.store.get", "hits"), layer("sim.store.get", "n")
        ),
        "report.render_s": layer("report.render"),
        "sim.engine.self_s": layer("sim.engine"),
        "sim.engine.parallel_eff": _ratio(execute_s, jobs * real["wall_s"]),
        "sim.engine.rounds_lpt": engine.get("rounds_lpt", 0),
        "sim.engine.makespan_err": _ratio(
            abs(predicted - engine.get("actual_makespan_s", 0.0)),
            engine.get("actual_makespan_s", 0.0),
        ) if predicted else 0.0,
        "sim.driver.execute_s": execute_s,
        "sim.driver.cells": sum(values["n"] for values in executes.values()),
        "sim.driver.ns_per_insn": 1e9 * _ratio(execute_s, instructions),
        "sim.mips": _ratio(real["sim_instructions"], 1e6 * real["wall_s"]),
    }
    # Split each scheme's execute time by its profiled module shares.
    shares = profile["profile"]
    for group in PROFILE_GROUPS:
        metrics[f"{group}.self_s"] = sum(
            values["self_s"]
            * _ratio(shares[scheme][group], sum(shares[scheme].values()))
            for scheme, values in executes.items()
            if scheme in shares
        )
    compiles, hits = spans["blockjit"]["compiles"], spans["blockjit"]["hits"]
    metrics["vm.blockjit.compiles"] = compiles
    metrics["vm.blockjit.hit_ratio"] = _ratio(hits, hits + compiles)
    simulated = real["simulated"]
    metrics["uarch.l1d_miss_rate"] = simulated["l1d_miss_rate"]
    metrics["uarch.l2_miss_rate"] = simulated["l2_miss_rate"]
    metrics["policy.reconfigs"] = simulated["reconfigs"]
    metrics["policy.reconfig_accept_ratio"] = simulated["reconfig_accept_ratio"]
    metrics["trace.overhead"] = _ratio(spans["wall_s"], inline["wall_s"])
    metrics["bench.fail_frac"] = _ratio(real["failed"], real["cells"])
    metrics["bench.shape_fail"] = len(real["shape_failures"])
    return metrics


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload, seed, seconds, trace, inject=None):
    """Run one workload; returns ``(result, notes)``."""
    jobs = min(2, host_cpus())
    notes = [
        f"workload={workload} seed={seed} host_cpus={host_cpus()} jobs={jobs}"
    ]
    spec = bench_spec()
    extra_problems = []
    if trace:
        real, inline, spans, profile = (
            run_rep(workload, seed, mode, jobs, index, inject)
            for index, mode in enumerate(("measure", "inline", "spans", "profile"))
        )
        reps = [real, inline, spans]
        metrics = per_layer(real, inline, spans, profile, jobs)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        # Start another repetition only while one more of the last one's
        # length still fits in ``seconds``.
        reps, started = [], time.monotonic()
        while True:
            rep_started = time.monotonic()
            reps.append(run_rep(workload, seed, "measure", jobs, len(reps), inject))
            now = time.monotonic()
            if now - started + now - rep_started > seconds:
                break
        setups = [rep["setup_s"] for rep in reps]
        while workload not in SETUP_SIMULATES and len(setups) < MIN_SETUPS:
            setups.append(
                run_rep(workload, seed, "setup", jobs, len(reps) + len(setups))[
                    "setup_s"
                ]
            )
        if len(reps) == 1:
            # One repetition has nothing to compare its digest with: one
            # of its cells, chosen by the seed, runs again on its own in
            # an interpreter with another hash seed.
            cell = seed % len(reps[0]["cell_digests"])
            check = run_rep(workload, seed, "cell", jobs, MIN_SETUPS + 1, cell=cell)
            notes.append(
                f"cell {cell} alone: PYTHONHASHSEED={check['hash_seed']} "
                f"digest={check['digest']}"
            )
            if check["digest"] != reps[0]["cell_digests"][cell]:
                extra_problems.append(
                    f"cell {cell} digest differs when run alone "
                    f"(PYTHONHASHSEED={check['hash_seed']})"
                )
        metrics = end_to_end(reps, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    problems = rep_problems(reps) + extra_problems
    attempted = sum(rep["cells"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    for rep in reps:
        notes.append(
            f"rep {rep['mode']}: PYTHONHASHSEED={rep['hash_seed']} "
            f"wall={rep['wall_s']:.3f}s cpu={rep['cpu_s']:.3f}s "
            f"setup={rep['setup_s']:.3f}s cells={rep['cells']} "
            f"failed={rep['failed']} simulations={rep['simulations']} "
            f"digest={rep['digest'][:16]}"
        )
    config_seeds = reps[0]["config_seeds"]
    notes.append(
        f"ExperimentConfig.seed {config_seeds[0]}..{config_seeds[-1]}"
    )
    notes.append(
        f"fail_frac={_ratio(failed, attempted):.4f} "
        f"shape_fail={len(reps[0]['shape_failures'])} "
        f"paper_err_pp={reps[0]['paper_err_pp']:.4f} "
        f"sim_mips={_ratio(reps[0]['sim_instructions'], 1e6 * reps[0]['wall_s']):.3f} "
        f"digests={'stable' if len({r['digest'] for r in reps}) == 1 else 'DIFFER'}"
    )
    notes.extend(f"PROBLEM: {problem}" for problem in problems)
    result = {
        "correct": not problems and not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject", default=None,
        help="FaultPlan spec applied to every cell (benchmark self-tests)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds or bench_spec()["run_seconds"]
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    correct = True
    try:
        for name in names:
            result, notes = run_workload(name, args.seed, seconds, args.trace, args.inject)
            correct = correct and result["correct"]
            for note in notes:
                print(f"# {note}")
            for metric, entry in result["metrics"].items():
                print(f"# {name} {metric} = {entry['value']:.6g} {entry['unit']}")
            if args.workload == "all":
                print(json.dumps({"workload": name, **result}))
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if args.workload != "all":
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
