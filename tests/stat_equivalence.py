"""Statistical-equivalence harness: turbo kernel vs fast kernel.

The turbo kernel (``sim_kernel="turbo"``) trades bit-identity for
throughput: whole-interval batched cache simulation over numpy draw
tables, relaxed intra-set LRU for hit-only lines, and re-associated
float accumulation.  It is therefore *banned* from the exact harness
(``tests/equivalence.py``) and the golden-trace suite, and earns its
keep against this two-level contract instead:

**Discrete tuning outcomes are compared exactly, on every cell.**
Chosen configurations, pin decisions, trial kinds, phase transitions,
hotspot sets, and reconfiguration counts must be *equal* to the fast
kernel's — a tolerance on a decision is meaningless.  Turbo achieves
this by construction: control flow draws from the split decider stream
(``decider_stream="split"``, which ``sim_kernel="turbo"`` auto-selects),
and turbo batches only when the policy installs no per-block hook; any
policy that tunes by measuring counts blocks through one, so turbo runs
its bit-identical scalar path for the whole run.

**Continuous metrics are compared under committed tolerances** — but
only where batching is actually live.  Under measuring policies (bbv,
hotspot schemes) turbo is fully deoptimised, so those cells assert
*exact* ``RunResult`` equality.  Baseline cells batch freely and are
gated by ``tests/tolerance_spec.json`` (per-metric relative budgets with
absolute floors; see that file for how the numbers were sized).

The comparator config is the *same* config: the fast run pins
``decider_stream="split"`` explicitly, because that is the stream the
turbo config resolves to.  (Fast with split deciders is itself proven
against the reference interpreter by the exact grid — the chain is
reference ≡ fast ≡(stat) turbo, each link tested where it lives.)

Every comparison lands in a :class:`tests.tolerances.DeviationReport`;
``STAT_EQUIV_REPORT=<path>`` makes the pytest suite write the rendered
JSON report there (the nightly workflow uploads it as an artifact).
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, Optional, Tuple

from repro.core.policy import HotspotACEPolicy
from repro.phases.policy import BBVACEPolicy
from repro.sim.config import ExperimentConfig
from repro.sim.driver import SCHEMES, RunResult, run_benchmark
from repro.workloads.specjvm import BENCHMARK_NAMES

from tests.tolerances import (
    DeviationReport,
    describe_divergence,
    first_divergence,
)

SPEC_PATH = os.path.join(os.path.dirname(__file__), "tolerance_spec.json")

#: Schemes whose policies measure IPC/energy to tune: turbo must be
#: fully deoptimised there, so the harness demands exact equality.
MEASURING_SCHEMES = ("bbv", "hotspot")


def load_tolerance_spec(path: str = SPEC_PATH) -> Dict[str, Dict[str, float]]:
    """The committed per-metric tolerance table (metric → budgets)."""
    with open(path) as handle:
        spec = json.load(handle)
    return spec["metrics"]


def continuous_metrics(result: RunResult) -> Dict[str, float]:
    """The tolerance-gated metric projection of a run.

    Exactly the metrics named by ``tolerance_spec.json`` — adding a
    metric here without a spec entry fails the harness, which is the
    intended friction.
    """
    total = result.l1d_energy_nj + result.l2_energy_nj + result.memory_nj
    return {
        "instructions": float(result.instructions),
        "cycles": result.cycles,
        "ipc": result.ipc,
        "l1d_energy_nj": result.l1d_energy_nj,
        "l2_energy_nj": result.l2_energy_nj,
        "memory_nj": result.memory_nj,
        "total_energy_nj": total,
        "edp": total * result.cycles,
        "l1d_miss_rate": result.l1d_miss_rate,
        "l2_miss_rate": result.l2_miss_rate,
        "branch_mispredict_rate": result.branch_mispredict_rate,
    }


def _config_tree(config) -> object:
    """A tuning Config as a JSON-comparable tree."""
    if dataclasses.is_dataclass(config):
        return dataclasses.asdict(config)
    return config


def run_with_decisions(
    benchmark: str,
    scheme: str,
    kernel: str,
    max_instructions: int,
) -> Tuple[RunResult, Dict[str, object]]:
    """One cell under ``kernel``; returns (result, discrete outcomes).

    The discrete tree is everything a tolerance must never touch:
    hotspot sets, chosen configurations, per-kind trial counts, phase
    assignments, and reconfiguration traffic.
    """
    config = ExperimentConfig(
        max_instructions=max_instructions,
        sim_kernel=kernel,
        # Turbo auto-selects the split decider stream; pin the same
        # stream for the comparator so both kernels replay identical
        # control flow (see module docstring).
        decider_stream="split",
    )
    policy: Optional[object] = None
    if scheme == "hotspot":
        policy = HotspotACEPolicy(tuning=config.tuning)
    elif scheme == "bbv":
        policy = BBVACEPolicy(bbv=config.bbv, tuning=config.tuning)
    result = run_benchmark(benchmark, scheme, config=config, policy=policy)

    discrete: Dict[str, object] = {
        "hotspots": sorted(result.hotspot_summaries),
        "n_hotspots": result.n_hotspots,
        "applied_reconfigurations": dict(result.applied_reconfigurations),
        "denied_reconfigurations": dict(result.denied_reconfigurations),
        "gc_invocations": result.gc_invocations,
    }
    if scheme == "hotspot":
        assert isinstance(policy, HotspotACEPolicy)
        discrete["chosen_configs"] = {
            name: _config_tree(cfg)
            for name, cfg in sorted(policy.chosen_configs().items())
        }
        stats = policy.final_stats
        discrete["kind_of"] = dict(sorted(stats.kind_of.items()))
        discrete["tunings"] = stats.tunings
        discrete["retunes"] = stats.retunes
    elif scheme == "bbv":
        assert isinstance(policy, BBVACEPolicy)
        discrete["phase_best"] = {
            str(phase_id): _config_tree(
                entry.best.config if entry.best else None
            )
            for phase_id, entry in sorted(policy.entries.items())
        }
        discrete["n_phases"] = policy.final_stats.n_phases
    return result, discrete


def assert_cell_stat_equivalent(
    benchmark: str,
    scheme: str,
    max_instructions: int = 400_000,
    report: Optional[DeviationReport] = None,
    spec: Optional[Dict[str, Dict[str, float]]] = None,
) -> None:
    """The full two-level contract for one cell (see module docstring).

    Raises ``AssertionError`` naming the first diverging decision path
    or the exceeded metric; metric comparisons are recorded into
    ``report`` either way.
    """
    spec = spec if spec is not None else load_tolerance_spec()
    report = report if report is not None else DeviationReport()
    cell = f"{benchmark}/{scheme}@{max_instructions}"

    fast_result, fast_decisions = run_with_decisions(
        benchmark, scheme, "fast", max_instructions
    )
    turbo_result, turbo_decisions = run_with_decisions(
        benchmark, scheme, "turbo", max_instructions
    )

    # Level 1 — discrete tuning outcomes: exact, no tolerance, always.
    hit = first_divergence(fast_decisions, turbo_decisions)
    if hit is not None:
        raise AssertionError(
            describe_divergence(cell, "tuning decisions", hit)
        )

    # Level 2a — measuring policies force full deoptimisation, so the
    # whole RunResult must be bit-identical, not merely within budget.
    if scheme in MEASURING_SCHEMES:
        fast_tree = json.loads(json.dumps(fast_result.to_dict()))
        turbo_tree = json.loads(json.dumps(turbo_result.to_dict()))
        hit = first_divergence(fast_tree, turbo_tree)
        if hit is not None:
            raise AssertionError(
                describe_divergence(
                    cell, "RunResult (deoptimised turbo)", hit
                )
            )
        # Still record the headline metrics (at zero deviation) so the
        # report shows the full grid, not just the batched cells.
        fast_metrics = continuous_metrics(fast_result)
        for metric, baseline in fast_metrics.items():
            budgets = spec[metric]
            report.record(
                cell, metric, baseline, baseline,
                budgets["rel_tol"], budgets["abs_tol"],
            )
        return

    # Level 2b — batching is live: every committed metric within budget.
    fast_metrics = continuous_metrics(fast_result)
    turbo_metrics = continuous_metrics(turbo_result)
    missing = set(fast_metrics) - set(spec)
    assert not missing, f"metrics without a tolerance spec entry: {missing}"
    exceeded = []
    for metric, baseline in fast_metrics.items():
        budgets = spec[metric]
        deviation = report.record(
            cell, metric, baseline, turbo_metrics[metric],
            budgets["rel_tol"], budgets["abs_tol"],
        )
        if not deviation.ok:
            exceeded.append(deviation)
    if exceeded:
        raise AssertionError(
            f"{cell}: {len(exceeded)} metric(s) out of tolerance\n"
            + "\n".join("  " + d.describe() for d in exceeded)
        )


def grid_cells():
    """Every (benchmark, scheme) cell of the full equivalence grid."""
    return [
        (benchmark, scheme)
        for benchmark in BENCHMARK_NAMES
        for scheme in SCHEMES
    ]


def write_report_if_requested(report: DeviationReport) -> Optional[str]:
    """Write the JSON deviation report to ``$STAT_EQUIV_REPORT`` if set."""
    path = os.environ.get("STAT_EQUIV_REPORT")
    if not path:
        return None
    payload = report.to_json()
    payload["rendered"] = report.render(n=20)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    return path
