"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. A copy of a real result with 20 % more ``wall_s`` is a regression.
2. Cells made to fail through the public ``FaultPlan`` raise
   ``fail_frac`` and make the run incorrect.
3. A perturbed ``RunResult`` changes the digest, and the run's
   cross-interpreter digest check reports it.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args):
    """One run of the benchmark; returns (exit code, result, notes)."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "1", *args],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    notes = [line for line in lines if line.startswith("#")]
    return completed.returncode, json.loads(lines[-1]), notes


def test_regression_detected(result) -> None:
    spec = run.bench_spec()
    assert not any(
        row["status"] == "REGRESSION"
        for row in compare.compare([result], [copy.deepcopy(result)], spec)
    ), "an identical copy must not regress"
    slower = copy.deepcopy(result)
    slower["metrics"]["wall_s"]["value"] *= 1.2
    rows = {row["name"]: row for row in compare.compare([result], [slower], spec)}
    assert rows["wall_s"]["status"] == "REGRESSION", rows["wall_s"]


def test_fault_raises_fail_frac(clean) -> None:
    code, faulty, notes = bench(
        "--workload", "sweep-small", "--seed", "3",
        "--inject", "seed=7,cell_exception=0.05",
    )
    assert clean["failed"] == 0 and clean["correct"]
    assert code == 1 and not faulty["correct"], (code, faulty["correct"])
    assert faulty["failed"] > 0, faulty
    fail_frac = [note for note in notes if "fail_frac=" in note][0]
    assert "fail_frac=0.0000" not in fail_frac, fail_frac


def test_digest_check() -> None:
    from repro.sim.config import ExperimentConfig
    from repro.sim.engine import Engine
    from repro.sim.driver import RunSpec

    config = ExperimentConfig(max_instructions=20_000)
    cells = [RunSpec("db", scheme, config) for scheme in ("baseline", "hotspot")]
    with Engine(store=None, use_cache=False) as engine:
        results = engine.run(cells).values()
    perturbed = copy.deepcopy(results)
    perturbed[1].cycles += 1e-9
    assert workloads.digest(results) == workloads.digest(copy.deepcopy(results))
    assert workloads.digest(results) != workloads.digest(perturbed)
    reps = [
        {"problems": [], "shape_failures": [], "hash_seed": seed, "digest": d}
        for seed, d in ((1, workloads.digest(results)), (2, workloads.digest(perturbed)))
    ]
    problems = run.rep_problems(reps)
    assert any("digests differ" in problem for problem in problems), problems
    assert not run.rep_problems(reps[:1])


def main() -> int:
    code, clean, _ = bench("--workload", "sweep-small", "--seed", "3")
    assert code == 0, code
    for test in (
        lambda: test_regression_detected(clean),
        lambda: test_fault_raises_fail_frac(clean),
        test_digest_check,
    ):
        test()
    print("benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
