"""The benchmark's workloads, built only on the program's public API.

Each workload is driven in two phases inside one fresh interpreter:

* ``setup``: imports, configuration, engine and pool construction (and,
  for ``store-warm``, filling a fresh result store) up to the first
  submittable cell;
* ``measure``: the timed work, ending when every cell is resolved and
  the engine's workers have exited.

The workload seed only offsets ``ExperimentConfig.seed`` of the sweeps;
the paper workloads run the calibrated ``ExperimentConfig()`` whatever
the seed, because that suite is the job the system exists for.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: Instructions the sweep workloads give each cell.
SWEEP_BUDGET = 50_000
#: Configuration seeds per sweep: 7 benchmarks x 3 schemes x 24 = 504 cells.
SWEEP_SEEDS = 24
#: Times ``store-warm`` re-resolves the whole sweep in its timed phase.
STORE_PASSES = 24
#: The simulator checks its budget at basic-block boundaries, so a run
#: retires the budget plus at most the rest of its last block.
MAX_OVERSHOOT = 1_000


def sweep_config_seeds(seed: int) -> List[int]:
    """Configuration seeds of one sweep, disjoint across workload seeds."""
    from repro.sim.config import ExperimentConfig

    base = ExperimentConfig().seed + SWEEP_SEEDS * seed
    return [base + offset for offset in range(SWEEP_SEEDS)]


def sweep_cells(seed: int) -> list:
    """Seed-major 7x3xSWEEP_SEEDS grid of small cells."""
    from repro.sim.config import ExperimentConfig
    from repro.sim.driver import SCHEMES, RunSpec
    from repro.workloads.specjvm import BENCHMARK_NAMES

    return [
        RunSpec(name, scheme, config)
        for config in (
            ExperimentConfig(max_instructions=SWEEP_BUDGET, seed=s)
            for s in sweep_config_seeds(seed)
        )
        for name in BENCHMARK_NAMES
        for scheme in SCHEMES
    ]


def suites_of(results: Sequence) -> list:
    """Group a seed-major, benchmark-major result list into suites."""
    from repro.sim.experiment import BenchmarkComparison, SuiteResults
    from repro.workloads.specjvm import BENCHMARK_NAMES

    per_suite = 3 * len(BENCHMARK_NAMES)
    suites = []
    for start in range(0, len(results), per_suite):
        suite = SuiteResults()
        for position, name in enumerate(BENCHMARK_NAMES):
            runs = results[start + 3 * position:start + 3 * position + 3]
            if len(runs) == 3 and all(run is not None for run in runs):
                suite.comparisons[name] = BenchmarkComparison(name, *runs)
        suites.append(suite)
    return suites


def results_of_suite(suite) -> list:
    return [
        run
        for comparison in suite.comparisons.values()
        for run in (comparison.baseline, comparison.bbv, comparison.hotspot)
    ]


def digest(results: Sequence) -> str:
    """sha256 over every ``RunResult`` in order (None for a failed cell)."""
    hasher = hashlib.sha256()
    for result in results:
        payload = None if result is None else result.to_dict()
        hasher.update(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        )
        hasher.update(b"\n")
    return hasher.hexdigest()


def headline_averages(suite) -> Dict[str, float]:
    """The six averages the paper reports for bbv and hotspot."""
    values = {}
    for scheme in ("bbv", "hotspot"):
        values[f"l1d.{scheme}"] = suite.average_energy_reduction(scheme, "L1D")
        values[f"l2.{scheme}"] = suite.average_energy_reduction(scheme, "L2")
        values[f"slowdown.{scheme}"] = suite.average_slowdown(scheme)
    return values


def paper_error_pp(suites: Sequence) -> float:
    """Mean absolute error, in percentage points, of the six headline
    averages against ``repro.report.paper.PAPER``, averaged over suites."""
    from repro.report.paper import PAPER

    reference = {}
    for scheme in ("bbv", "hotspot"):
        reference[f"l1d.{scheme}"] = PAPER["figure3"]["avg_l1d_reduction"][scheme]
        reference[f"l2.{scheme}"] = PAPER["figure3"]["avg_l2_reduction"][scheme]
        reference[f"slowdown.{scheme}"] = PAPER["figure4"]["avg"][scheme]
    errors = []
    for suite in suites:
        measured = headline_averages(suite)
        errors.append(
            100.0
            * sum(abs(measured[key] - reference[key]) for key in reference)
            / len(reference)
        )
    return sum(errors) / len(errors)


class _Pedantic:
    """Stand-in for pytest-benchmark's fixture: call the function once."""

    def pedantic(self, target, args=(), kwargs=None, rounds=1, iterations=1):
        return target(*args, **(kwargs or {}))


def shape_failures(suite) -> List[str]:
    """Names of the paper-shape checks of ``benchmarks/`` that fail.

    The checks are the repository's own Figure 3 and robustness
    assertions, imported and run unchanged against ``suite``.
    """
    from benchmarks import bench_figure3, bench_robustness

    checks = {
        "figure3": lambda: bench_figure3.test_figure3(_Pedantic(), suite),
        "robustness.orderings": lambda: (
            bench_robustness.test_orderings_survive_reseeding(
                _Pedantic(), suite
            )
        ),
        "robustness.savings": lambda: (
            bench_robustness.test_savings_regime_stable(_Pedantic(), suite)
        ),
    }
    failed = []
    for name, check in checks.items():
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                check()
        except AssertionError:
            failed.append(name)
    return failed


@dataclass
class Context:
    """Everything one repetition needs besides the workload itself."""

    seed: int
    jobs: int
    scratch: str
    #: Engine backend override (the traced passes use an in-process pool).
    make_pool: Optional[Callable[[int], object]] = None
    #: Optional ``repro.faults.FaultPlan`` (self-tests only).
    fault_plan: object = None
    #: Opens a traced region around a public call (no-op when untraced).
    span: Callable = lambda name, **tags: contextlib.nullcontext()
    #: Suspends tracing (store filling during set-up).
    paused: Callable = contextlib.nullcontext


def _engine(ctx: Context, jobs: Optional[int] = None, **kwargs):
    from repro.sim.engine import Engine

    jobs = ctx.jobs if jobs is None else jobs
    pool = ctx.make_pool(jobs) if ctx.make_pool and jobs > 1 else None
    if ctx.fault_plan is not None:
        kwargs.update(
            fault_plan=ctx.fault_plan, failure_policy="skip", max_retries=0
        )
    return Engine(jobs=jobs, pool=pool, memory_cache={}, **kwargs)


def _start_pool(engine, cells) -> None:
    """Start the pool with the warm list the engine itself would pass."""
    warm = engine.warm_start and engine.pool.capabilities.warm_start
    names = dict.fromkeys(spec.benchmark_name for spec in cells)
    engine.pool.start(tuple(names) if warm else ())


@dataclass
class Outcome:
    """What a timed phase resolved, for metrics and checks."""

    #: One pass of results, in cell order (None for a failed cell).
    results: list
    #: Cells resolved in the timed phase, counting every pass.
    cells: int
    budget: int
    simulations: int
    failures: int
    suites: list
    stats: object = None
    #: Result lists that must equal ``results``; checked after timing.
    must_equal: list = field(default_factory=list)


class PaperSuite:
    """The full 7x3 suite at ``ExperimentConfig()``; store and memory
    cache off; cold workers."""

    simulates = True
    #: The paper-shape assertions apply to the calibrated suite only.
    checks_shape = True

    def __init__(self, kernel: str):
        self.kernel = kernel

    def cells(self, seed: int) -> list:
        from repro.sim.config import ExperimentConfig
        from repro.sim.driver import SCHEMES, RunSpec
        from repro.workloads.specjvm import BENCHMARK_NAMES

        config = ExperimentConfig(sim_kernel=self.kernel)
        return [
            RunSpec(name, scheme, config)
            for name in BENCHMARK_NAMES
            for scheme in SCHEMES
        ]

    def setup(self, ctx: Context):
        cells = self.cells(ctx.seed)
        engine = _engine(ctx, store=None, use_cache=False)
        _start_pool(engine, cells)
        return cells[0].config, engine

    def measure(self, ctx: Context, state) -> Outcome:
        from repro.sim.experiment import run_suite

        config, engine = state
        try:
            with ctx.span("sim.engine"):
                suite = run_suite(config=config, engine=engine)
        finally:
            engine.close()
        results = results_of_suite(suite)
        return Outcome(
            results=results,
            cells=len(results),
            budget=config.max_instructions,
            simulations=engine.stats.simulations,
            failures=engine.stats.failures,
            suites=[suite],
            stats=engine.stats,
        )

    def config_seeds(self, seed: int) -> List[int]:
        from repro.sim.config import ExperimentConfig

        return [ExperimentConfig().seed]

    def profile_cells(self, seed: int) -> list:
        """One cell per benchmark, schemes rotated: every benchmark and
        every scheme, a third of the suite's work."""
        cells = self.cells(seed)
        return [cells[3 * i + i % 3] for i in range(len(cells) // 3)]


class SweepSmall:
    """~500 tiny cells written into a fresh, empty result store."""

    simulates = True
    checks_shape = False
    config_seeds = staticmethod(sweep_config_seeds)
    cells = staticmethod(sweep_cells)

    def setup(self, ctx: Context):
        from repro.sim.store import ResultStore

        cells = sweep_cells(ctx.seed)
        engine = _engine(ctx, store=ResultStore(ctx.scratch))
        _start_pool(engine, cells)
        return cells, engine

    def measure(self, ctx: Context, state) -> Outcome:
        cells, engine = state
        try:
            with ctx.span("sim.engine"):
                batch = engine.run(cells)
        finally:
            engine.close()
        results = batch.values()
        return Outcome(
            results=results,
            cells=len(results),
            budget=SWEEP_BUDGET,
            simulations=engine.stats.simulations,
            failures=len(batch.failures),
            suites=suites_of(results),
            stats=engine.stats,
        )

    def profile_cells(self, seed: int) -> list:
        """The sweep's first configuration seed: one whole 7x3 grid."""
        return sweep_cells(seed)[:21]


class StoreWarm:
    """The sweep re-resolved from a store filled during set-up, by fresh
    serial engines, each suite rendered as Figure 3/4 and Table 5."""

    simulates = False
    checks_shape = False
    config_seeds = staticmethod(sweep_config_seeds)
    cells = staticmethod(sweep_cells)

    def setup(self, ctx: Context):
        from repro.sim.engine import Engine
        from repro.sim.store import ResultStore

        cells = sweep_cells(ctx.seed)
        store = ResultStore(ctx.scratch)
        # Filled by the real engine in every mode: set-up is not traced.
        with ctx.paused():
            filler = Engine(jobs=ctx.jobs, store=store, memory_cache={})
            try:
                written = filler.run(cells).values()
            finally:
                filler.close()
        return store, written

    def measure(self, ctx: Context, state) -> Outcome:
        from repro.report import exhibits
        from repro.sim.config import ExperimentConfig
        from repro.sim.experiment import run_suite

        store, written = state
        passes, suites = [], []
        simulations = failures = 0
        for _ in range(STORE_PASSES):
            resolved = []
            for config_seed in sweep_config_seeds(ctx.seed):
                config = ExperimentConfig(
                    max_instructions=SWEEP_BUDGET, seed=config_seed
                )
                engine = _engine(ctx, jobs=1, store=store)
                with ctx.span("sim.engine"):
                    suite = run_suite(config=config, engine=engine)
                with ctx.span("report.render"):
                    for exhibit in (
                        exhibits.figure3, exhibits.figure4, exhibits.table5
                    ):
                        str(exhibit(suite))
                engine.close()
                simulations += engine.stats.simulations
                failures += engine.stats.failures
                suites.append(suite)
                resolved.extend(results_of_suite(suite))
            passes.append(resolved)
        return Outcome(
            results=passes[0],
            cells=sum(len(resolved) for resolved in passes),
            budget=SWEEP_BUDGET,
            simulations=simulations,
            failures=failures,
            suites=suites[:SWEEP_SEEDS],
            must_equal=[written] + passes[1:],
        )

    def profile_cells(self, seed: int) -> list:
        return []


WORKLOADS = {
    "paper-cold": PaperSuite("fast"),
    "paper-turbo": PaperSuite("turbo"),
    "sweep-small": SweepSmall(),
    "store-warm": StoreWarm(),
}
