"""Statistical equivalence gate: turbo vs fast (tests/stat_equivalence.py).

Tier-1 runs a representative subset (both contract levels: batched
baseline cells under tolerances, deoptimised measuring-policy cells
bit-exact).  The ``slow`` test runs the full benchmark × scheme grid at
a larger budget and writes the deviation-report artifact when
``STAT_EQUIV_REPORT`` is set (the nightly workflow uploads it).
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy", reason="turbo kernel requires numpy")

from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute, make_policy

from tests.stat_equivalence import (
    MEASURING_SCHEMES,
    assert_cell_stat_equivalent,
    continuous_metrics,
    grid_cells,
    load_tolerance_spec,
    run_with_decisions,
    write_report_if_requested,
)
from tests.tolerances import DeviationReport

#: Tier-1 subset: the two worst-deviating batched cells plus one cell
#: per measuring policy (where turbo must be bit-exact), and a threaded
#: benchmark for the scalar-inheritance path.
SUBSET = [
    ("db", "baseline"),
    ("jack", "baseline"),
    ("db", "bbv"),
    ("db", "hotspot"),
    ("mtrt", "hotspot"),
]


@pytest.mark.parametrize("bench,scheme", SUBSET)
def test_subset_cell_stat_equivalent(bench, scheme):
    assert_cell_stat_equivalent(bench, scheme, max_instructions=400_000)


#: Where turbo's batched path must fire and where it must stay scalar:
#: batching runs only where no seam can fall inside a batch — one thread,
#: no GC — and only when the policy installs no per-block hook (class or
#: instance override).
BATCH_SITES = [
    ("db", "baseline", False, True),
    ("db", "bbv", False, False),
    ("db", "hotspot", False, False),
    ("mtrt", "baseline", False, False),  # two threads: quantum seams
    ("javac", "baseline", False, False),  # GC seams
    ("db", "baseline", True, False),  # on_block overridden on the instance
]


@pytest.mark.parametrize("bench,scheme,instance_hook,batches", BATCH_SITES)
def test_turbo_batches_only_without_a_per_block_hook(
    monkeypatch, bench, scheme, instance_hook, batches
):
    from repro.vm.turbovm import TurboVirtualMachine

    calls = []
    execute_batch = TurboVirtualMachine._execute_batch

    def spy(self, *args):
        calls.append(args)
        return execute_batch(self, *args)

    monkeypatch.setattr(TurboVirtualMachine, "_execute_batch", spy)
    config = ExperimentConfig(max_instructions=400_000, sim_kernel="turbo")
    policy = make_policy(scheme, config)
    if instance_hook:
        policy.on_block = lambda event, machine: None
    execute(RunSpec(bench, scheme, config=config, policy=policy))
    if batches:
        assert calls, f"turbo never batched {bench}/{scheme}"
    else:
        assert not calls, f"turbo batched {bench}/{scheme} {len(calls)}x"


@pytest.mark.slow
def test_full_grid_stat_equivalent():
    """Every cell of the 7×3 grid at 1.2M instructions, one report."""
    report = DeviationReport()
    spec = load_tolerance_spec()
    failures = []
    try:
        for benchmark, scheme in grid_cells():
            try:
                assert_cell_stat_equivalent(
                    benchmark, scheme,
                    max_instructions=1_200_000,
                    report=report, spec=spec,
                )
            except AssertionError as exc:
                failures.append(str(exc))
    finally:
        write_report_if_requested(report)
    if failures:
        raise AssertionError(
            f"{len(failures)} cell(s) failed statistical equivalence:\n"
            + "\n".join(failures)
            + "\n\n" + report.render(n=20)
        )


def test_turbo_config_auto_selects_split_decider_stream():
    config = ExperimentConfig(sim_kernel="turbo")
    assert config.decider_stream == "split"
    # ...and the default stays byte-compatible shared.
    assert ExperimentConfig().decider_stream == "shared"


def test_exact_harness_refuses_turbo():
    """Turbo never enters the bit-identical harness's kernel list."""
    from tests.equivalence import KERNELS

    assert "turbo" not in KERNELS


def test_spec_covers_exactly_the_gated_metrics():
    """Adding a metric without a committed budget (or a stale spec
    entry for a dropped metric) must fail loudly."""
    spec = load_tolerance_spec()
    result, _ = run_with_decisions("db", "baseline", "fast", 50_000)
    assert set(spec) == set(continuous_metrics(result))


def test_measuring_cells_are_bit_exact():
    """Under a measuring policy the deoptimised turbo RunResult is
    byte-for-byte the fast one — stronger than any tolerance."""
    assert set(MEASURING_SCHEMES) == {"bbv", "hotspot"}
    fast, _ = run_with_decisions("jess", "hotspot", "fast", 200_000)
    turbo, _ = run_with_decisions("jess", "hotspot", "turbo", 200_000)
    assert fast.to_dict() == turbo.to_dict()


def test_deviation_report_records_every_grid_metric():
    report = DeviationReport()
    assert_cell_stat_equivalent(
        "db", "baseline", max_instructions=100_000, report=report
    )
    spec = load_tolerance_spec()
    assert len(report.deviations) == len(spec)
    assert not report.failures()
