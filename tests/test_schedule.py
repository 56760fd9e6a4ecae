"""Cost-model-driven scheduling: planner, cost model, conformance.

The scheduler (docs/INTERNALS.md §18) must be invisible to results:
``schedule=fifo|lpt`` across every backend produces bit-identical
``BatchResult`` values and ordering — the conformance grid here proves
it, including with a trained cost model forcing genuinely different
packing.  The planner itself is pure (``repro.sim.schedule``), so its
edge cases — empty rounds, single cells, cells < workers, all-equal
estimates, cold start — are unit-tested directly, as is the cost model
(EWMA learning, instruction buckets, snapshot round-trip, store
warm-boot).  The straggler budgets the cost model drives are tested
with the engine's round object in tests/test_round.py.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import FaultPlan
from repro.obs import Telemetry
from repro.sim import schedule as schedule_mod
from repro.sim.config import ExperimentConfig
from repro.sim.costmodel import (
    COST_MODEL_VERSION,
    SNAPSHOT_NAME,
    CostModel,
    cost_key,
    instruction_bucket,
)
from repro.sim.driver import RunSpec
from repro.sim.engine import Engine
from repro.sim.schedule import (
    MIN_ESTIMATE_COVERAGE,
    RoundPlan,
    legacy_chunks,
    plan_round,
    predict_makespan,
)
from repro.sim.store import ResultStore

BUDGET = 25_000

#: Same grid as tests/test_backends.py: one spec per registered backend
#: kind, loopback for ssh.
CONFORMANCE_SPECS = ("serial", "local:2", "ssh-loopback:2")


def config(**kwargs) -> ExperimentConfig:
    return ExperimentConfig(max_instructions=BUDGET, **kwargs)


def grid(cfg=None) -> list:
    cfg = cfg or config()
    return [
        RunSpec(name, scheme, cfg)
        for name in ("db", "jess")
        for scheme in ("baseline", "bbv", "hotspot")
    ]


def spec(benchmark="db", scheme="hotspot", budget=BUDGET) -> RunSpec:
    return RunSpec(
        benchmark, scheme, ExperimentConfig(max_instructions=budget)
    )


def trained_model(specs, seconds=None) -> CostModel:
    """A cost model with one observation per spec (synthetic seconds)."""
    model = CostModel()
    for n, cell in enumerate(specs):
        model.observe(
            cell, seconds[n] if seconds is not None else 0.1 * (n + 1)
        )
    return model


# ---------------------------------------------------------------------------
# planner edge cases


class TestPlanner:
    def test_empty_round(self):
        plan = plan_round([], {}, workers=2)
        assert plan.chunks == []
        assert plan.cells == 0
        assert plan.predicted_makespan_s == 0.0

    def test_single_cell_falls_back_to_legacy(self):
        plan = plan_round([7], {7: 1.0}, workers=4)
        assert plan.chunks == [[7]]
        assert plan.mode in ("cold", "fifo")

    def test_fewer_cells_than_workers_one_chunk_each(self):
        estimates = {0: 3.0, 1: 1.0, 2: 2.0}
        plan = plan_round([0, 1, 2], estimates, workers=8)
        # Legacy auto-size is 1 here, so LPT keeps 3 chunks — one cell
        # each, dispatched heaviest first.
        assert sorted(map(tuple, plan.chunks)) == [(0,), (1,), (2,)]
        assert plan.chunks[0] == [0]  # heaviest (3.0s) dispatches first
        assert plan.mode == "lpt"

    def test_all_equal_estimates_is_deterministic(self):
        indices = list(range(12))
        estimates = {i: 1.0 for i in indices}
        first = plan_round(indices, estimates, workers=2)
        second = plan_round(indices, estimates, workers=2)
        assert first.chunks == second.chunks
        # Ties break by ascending cell index: cell 0 lands in the first
        # bin, and every chunk's members ascend.
        assert first.mode == "lpt"
        for chunk in first.chunks:
            assert chunk == sorted(chunk)
        assert sorted(i for c in first.chunks for i in c) == indices
        # Equal costs across 6 bins of 12 cells: all chunks size 2.
        assert [len(c) for c in first.chunks] == [2] * 6

    def test_cold_start_reproduces_legacy_exactly(self):
        # The acceptance contract: empty history == today's behaviour,
        # bit for bit, for every round shape.
        for n in (0, 1, 2, 3, 5, 8, 12, 33, 100):
            for workers in (1, 2, 4):
                for chunk_size in (None, 1, 3):
                    indices = list(range(n))
                    plan = plan_round(
                        indices,
                        {i: None for i in indices},
                        workers=workers,
                        chunk_size=chunk_size,
                        schedule="lpt",
                    )
                    assert plan.chunks == legacy_chunks(
                        indices, workers, chunk_size
                    ), (n, workers, chunk_size)
                    assert plan.mode == "cold"

    def test_fifo_forces_legacy_even_with_estimates(self):
        indices = list(range(10))
        estimates = {i: float(10 - i) for i in indices}
        plan = plan_round(indices, estimates, workers=2, schedule="fifo")
        assert plan.chunks == legacy_chunks(indices, 2, None)
        assert plan.mode == "fifo"

    def test_low_coverage_falls_back(self):
        indices = list(range(10))
        covered = int(len(indices) * MIN_ESTIMATE_COVERAGE) - 1
        estimates = {
            i: (1.0 if i < covered else None) for i in indices
        }
        plan = plan_round(indices, estimates, workers=2)
        assert plan.mode == "cold"
        assert plan.chunks == legacy_chunks(indices, 2, None)

    def test_unknown_cells_filled_with_median(self):
        indices = list(range(4))
        estimates = {0: 1.0, 1: 1.0, 2: 9.0, 3: None}
        plan = plan_round(indices, estimates, workers=2, chunk_size=2)
        assert plan.mode == "lpt"
        assert sorted(i for c in plan.chunks for i in c) == indices
        # Cell 2 (9.0s) dominates; it dispatches in the first chunk.
        assert 2 in plan.chunks[0]

    def test_skewed_round_beats_fifo_makespan(self):
        # 10 light + 2 heavy, heavies last: the bench cell's shape.
        estimates = {i: 1.0 for i in range(10)}
        estimates[10] = estimates[11] = 10.0
        indices = list(range(12))
        plan = plan_round(indices, estimates, workers=2)
        fifo = legacy_chunks(indices, 2, None)
        fifo_costs = [sum(estimates[i] for i in c) for c in fifo]
        assert plan.predicted_makespan_s < predict_makespan(fifo_costs, 2)
        # Each heavy cell gets a chunk to itself, dispatched first.
        assert plan.chunks[0] in ([10], [11])
        assert plan.chunks[1] in ([10], [11])

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError):
            plan_round([0], {}, workers=1, schedule="random")
        with pytest.raises(ValueError):
            Engine(schedule="random")

    def test_weighted_packing_loads_fast_slot_heavier(self):
        indices = list(range(8))
        estimates = {i: 1.0 for i in indices}
        plan = plan_round(
            indices,
            estimates,
            workers=2,
            chunk_size=4,
            slot_weights=[3.0, 1.0],
        )
        assert plan.mode == "lpt"
        # Two bins; bin 0 (the 3× slot) should carry ~3× the cells.
        sizes = sorted(len(c) for c in plan.chunks)
        assert sizes == [2, 6]


class TestPredictMakespan:
    def test_balanced(self):
        assert predict_makespan([1.0, 1.0, 1.0, 1.0], 2) == 2.0

    def test_weighted_slots(self):
        # A 2× slot finishes the same chunk in half the time.
        assert predict_makespan([4.0, 4.0], 2, [2.0, 1.0]) == 4.0

    def test_empty(self):
        assert predict_makespan([], 4) == 0.0


# ---------------------------------------------------------------------------
# cost model


class TestCostModel:
    def test_instruction_bucket(self):
        assert instruction_bucket(None) == 0
        assert instruction_bucket(0) == 0
        assert instruction_bucket(-5) == 0
        assert instruction_bucket(300_000) == instruction_bucket(310_000)
        assert instruction_bucket(300_000) != instruction_bucket(3_000_000)

    def test_cost_key_ignores_seed_but_sees_kernel_and_budget(self):
        a = RunSpec(
            "db", "hotspot", ExperimentConfig(max_instructions=BUDGET)
        )
        b = RunSpec(
            "db",
            "hotspot",
            ExperimentConfig(max_instructions=BUDGET, seed=99),
        )
        assert cost_key(a) == cost_key(b)
        c = RunSpec(
            "db",
            "hotspot",
            ExperimentConfig(
                max_instructions=BUDGET, sim_kernel="reference"
            ),
        )
        assert cost_key(a) != cost_key(c)
        d = RunSpec(
            "db",
            "hotspot",
            ExperimentConfig(max_instructions=BUDGET * 100),
        )
        assert cost_key(a) != cost_key(d)

    def test_ewma_learning(self):
        model = CostModel(alpha=0.5)
        cell = spec()
        assert model.estimate(cell) is None
        model.observe(cell, 1.0)
        assert model.estimate(cell) == 1.0
        model.observe(cell, 3.0)
        assert model.estimate(cell) == pytest.approx(2.0)
        assert model.observations == 2
        assert model.dirty

    def test_negative_and_none_observations_ignored(self):
        model = CostModel()
        model.observe(spec(), -1.0)
        model.observe(spec(), None)
        assert model.estimate(spec()) is None

    def test_snapshot_round_trip(self, tmp_path):
        model = CostModel()
        model.observe(spec(), 1.25)
        model.observe_host("hostA#1", 4, 2.0)
        path = model.save_dir(tmp_path)
        assert path is not None and path.name == SNAPSHOT_NAME
        assert not model.dirty
        loaded = CostModel.load_dir(tmp_path)
        assert loaded.estimate(spec()) == pytest.approx(1.25)
        assert loaded.host_speed("hostA#1") == pytest.approx(2.0)

    def test_load_missing_or_corrupt_is_empty(self, tmp_path):
        assert CostModel.load_dir(tmp_path / "nope").known_keys == 0
        (tmp_path / SNAPSHOT_NAME).write_text("{torn")
        assert CostModel.load_dir(tmp_path).known_keys == 0
        (tmp_path / SNAPSHOT_NAME).write_text(
            json.dumps({"v": COST_MODEL_VERSION + 1, "estimates": []})
        )
        assert CostModel.load_dir(tmp_path).known_keys == 0

    def test_host_weights(self):
        model = CostModel()
        assert model.host_weights({"a#1": 1}) is None  # nothing observed
        model.observe_host("a#1", 4, 1.0)  # 4 cells/s
        model.observe_host("b#1", 1, 1.0)  # 1 cell/s
        weights = model.host_weights({"a#1": 1, "b#1": 1, "c#1": 1})
        # a is above the mean, b below, unobserved c gets 1.0.
        assert weights[0] > 1.0 > weights[1]
        assert weights[2] == 1.0
        assert all(w >= 0.05 for w in weights)

    def test_store_meta_and_bootstrap(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        model = CostModel()
        cell = spec()
        meta = model.store_meta(cell, 0.5, "hostA#1")
        assert meta["v"] == COST_MODEL_VERSION
        assert meta["elapsed_s"] == 0.5
        assert meta["executed_by"] == "hostA#1"
        from tests.test_sim_store import make_result

        store.put("db", "hotspot", "ab" * 32, make_result(), meta=meta)
        # An old-style entry without meta must coexist fine.
        store.put("db", "baseline", "cd" * 32, make_result())
        fresh = CostModel()
        assert fresh.bootstrap_from_store(store) == 1
        assert fresh.estimate(cell) == pytest.approx(0.5)
        assert not fresh.dirty  # replayed history is already persisted
        # Host speeds are never replayed across processes.
        assert fresh.host_speed("hostA#1") is None

    def test_bootstrap_skips_invalid_meta(self, tmp_path):
        model = CostModel()
        assert model._replay_meta(None) == 0
        assert model._replay_meta({"v": 999}) == 0
        assert (
            model._replay_meta(
                {"v": COST_MODEL_VERSION, "cost_key": ["a"], "elapsed_s": 1}
            )
            == 0
        )
        assert (
            model._replay_meta(
                {
                    "v": COST_MODEL_VERSION,
                    "cost_key": ["db", "hotspot", "fast", 15],
                    "elapsed_s": -2,
                }
            )
            == 0
        )
        assert model.known_keys == 0


# ---------------------------------------------------------------------------
# engine integration


class TestEngineIntegration:
    def test_fingerprint_never_sees_scheduling(self):
        cfg = config()
        fingerprint = cfg.fingerprint()
        from repro.sim.config import canonicalize

        canonical = str(canonicalize(cfg))
        for field in ("schedule", "cost_model", "cost_model_dir", "lpt"):
            assert field not in canonical
        assert cfg.fingerprint() == fingerprint

    def test_serial_path_feeds_the_model_and_store_meta(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        engine = Engine(store=store, memory_cache={})
        cell = spec()
        try:
            engine.run([cell])
        finally:
            engine.close()
        assert engine.cost_model.estimate(cell) is not None
        metas = list(store.iter_meta())
        assert len(metas) == 1
        assert metas[0]["elapsed_s"] > 0
        assert metas[0]["executed_by"]  # host#pid of this process
        assert metas[0]["cost_key"] == list(cost_key(cell))

    def test_pool_path_feeds_the_model(self):
        engine = Engine(jobs=2, use_cache=False, memory_cache={})
        specs = grid()
        try:
            engine.run(specs)
        finally:
            engine.close()
        for cell in specs:
            assert engine.cost_model.estimate(cell) is not None
        assert engine.stats.rounds_planned >= 1
        # First round is cold (no history yet).
        assert engine.stats.rounds_lpt == 0

    def test_second_batch_plans_lpt_and_emits_event(self):
        from repro.obs.events import SCHEDULE_PLANNED

        telemetry = Telemetry()
        engine = Engine(
            jobs=2, use_cache=False, memory_cache={}, telemetry=telemetry
        )
        specs = grid()
        try:
            engine.run(specs)
            engine.run(specs)
        finally:
            engine.close()
        assert engine.stats.rounds_lpt >= 1
        assert engine.stats.cells_cost_estimated >= len(specs)
        assert engine.stats.predicted_makespan_s > 0
        assert engine.stats.actual_makespan_s > 0
        events = telemetry.log.by_name(SCHEDULE_PLANNED)
        assert len(events) >= 2
        modes = [e.args["mode"] for e in events]
        assert "cold" in modes and "lpt" in modes
        lpt_event = next(e for e in events if e.args["mode"] == "lpt")
        assert lpt_event.args["predicted_makespan_s"] > 0
        assert lpt_event.args["actual_makespan_s"] > 0
        assert lpt_event.args["cells"] == len(specs)

    def test_cost_model_dir_round_trip(self, tmp_path):
        model_dir = tmp_path / "model"
        engine = Engine(
            use_cache=False, memory_cache={}, cost_model_dir=model_dir
        )
        cell = spec()
        try:
            engine.run([cell])
        finally:
            engine.close()
        assert (model_dir / SNAPSHOT_NAME).exists()
        # A fresh engine warm-boots from the snapshot.
        warmed = Engine(
            use_cache=False, memory_cache={}, cost_model_dir=model_dir
        )
        try:
            assert warmed.cost_model.estimate(cell) is not None
        finally:
            warmed.close()

    def test_wrong_estimates_cannot_break_results(self):
        # Poison the model with absurd estimates in both directions:
        # values and ordering must still be bit-identical to serial.
        specs = grid()
        serial = Engine(pool="serial", use_cache=False, memory_cache={})
        try:
            expected = serial.run(specs).values()
        finally:
            serial.close()
        model = CostModel()
        for n, cell in enumerate(specs):
            model.observe(cell, 1e6 if n % 2 else 1e-9)
        engine = Engine(
            jobs=2, use_cache=False, memory_cache={}, cost_model=model
        )
        try:
            batch = engine.run(specs)
        finally:
            engine.close()
        assert batch.values() == expected
        assert engine.stats.rounds_lpt >= 1


# ---------------------------------------------------------------------------
# conformance grid: schedule x backend, bit-identical to serial


@pytest.mark.parametrize("backend", CONFORMANCE_SPECS)
@pytest.mark.parametrize("schedule", ("fifo", "lpt"))
def test_schedule_conformance_bit_identical(backend, schedule):
    specs = grid()
    reference = Engine(pool="serial", use_cache=False, memory_cache={})
    try:
        expected = reference.run(specs).values()
    finally:
        reference.close()
    # A trained model so lpt actually re-packs (skewed synthetic
    # history: later cells "cost" more).
    model = trained_model(specs)
    engine = Engine(
        pool=backend,
        use_cache=False,
        memory_cache={},
        schedule=schedule,
        cost_model=model,
    )
    try:
        batch = engine.run(specs)
    finally:
        engine.close()
    assert batch.values() == expected
    assert [o.status for o in batch] == ["ok"] * len(specs)


# ---------------------------------------------------------------------------
# host death mid-batch: re-planning against survivors


@pytest.mark.chaos
class TestHostDeathReplanning:
    #: Seed 12 at p=0.5: loop0@incarnation-1 draws dead, loop1 alive
    #: (same draw the resilience suite documents).
    PLAN = dict(seed=12, host_down=0.5)

    def test_rerouted_chunks_replan_against_survivors(self):
        specs = grid()
        expected_engine = Engine(
            pool="serial", use_cache=False, memory_cache={}
        )
        try:
            expected = expected_engine.run(specs).values()
        finally:
            expected_engine.close()
        model = trained_model(specs)
        engine = Engine(
            pool="ssh-loopback:2",
            use_cache=False,
            memory_cache={},
            fault_plan=FaultPlan(**self.PLAN),
            max_retries=3,
            chunk_size=1,
            failure_policy="partial",
            cost_model=model,
        )
        try:
            batch = engine.run(specs)
            # After the death the pool's live-slot map only names the
            # survivor: re-planned rounds weigh surviving hosts only.
            slots = engine.pool.host_slots()
        finally:
            engine.close()
        assert [o.status for o in batch] == ["ok"] * len(specs)
        assert batch.values() == expected
        assert engine.stats.cells_rerouted > 0
        assert len(slots) == 1  # one of two hosts is gone
        host_id = next(iter(slots))
        assert "#" in host_id  # host#incarnation identity

    def test_host_slots_before_and_after_start(self):
        from repro.sim.pools import make_pool

        pool = make_pool("ssh-loopback:2")
        cold = pool.host_slots()
        assert len(cold) == 2
        assert all("#" in host for host in cold)
        try:
            pool.start()
            live = pool.host_slots()
            assert len(live) == 2
            assert all(slots >= 1 for slots in live.values())
        finally:
            pool.close()
