"""The engine's pool round, driven without processes.

``repro.sim.engine._Round`` owns every transition of a pool round:
submit a chunk, settle a finished future (speculation race, outcome
routing, retries), find stragglers and twin them, and report the
in-flight cells that crash recovery resubmits.  These tests drive it
with hand-made :class:`concurrent.futures.Future` objects and a stub
pool, so each race and failure path is set up exactly rather than
hoped for.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import List, Tuple

import pytest

from repro.obs import Telemetry
from repro.obs.events import SPECULATION_WON, STRAGGLER_DETECTED
from repro.sim.config import ExperimentConfig
from repro.sim.costmodel import CostModel
from repro.sim.driver import RunSpec
from repro.sim.engine import Engine, _PoolBroken, _Round
from repro.sim.pools.base import (
    HostDownError,
    Pool,
    PoolBrokenError,
    PoolCapabilities,
    completed_future,
)

BENCHMARKS = ("db", "jess", "javac", "mtrt")


class StubPool(Pool):
    """Records each payload and hands back a future the test resolves."""

    name = "stub"
    capabilities = PoolCapabilities(
        parallel=True, rebuild=True, remote=False, warm_start=False
    )

    def __init__(self, workers: int = 2, broken: bool = False):
        self.workers = workers
        self.broken = broken
        self.submitted: List[Tuple[tuple, Future]] = []

    def start(self, warm_benchmarks=()) -> bool:
        return False

    def submit_chunk(self, payload) -> Future:
        if self.broken:
            raise PoolBrokenError("stub pool is dead")
        future: Future = Future()
        self.submitted.append((payload, future))
        return future

    def close(self, fail_fast: bool = False) -> None:
        pass

    @property
    def alive(self) -> bool:
        return True

    def future(self, n: int) -> Future:
        return self.submitted[n][1]

    def cells(self, n: int) -> List[Tuple[int, int]]:
        """``(index, attempt)`` of the n-th submitted payload."""
        payload = self.submitted[n][0]
        return [(index, attempt) for index, _, attempt in payload[0]]


def specs(n: int = 4) -> List[RunSpec]:
    """Cells with distinct cost keys (one benchmark each)."""
    cfg = ExperimentConfig(max_instructions=10_000)
    return [RunSpec(BENCHMARKS[i], "hotspot", cfg) for i in range(n)]


def reply(chunk, value="r", seconds=0.01):
    """A worker reply for ``chunk``: every cell ok with ``value``."""
    return (
        None,
        [(index, "ok", f"{value}{index}") for index in chunk],
        {
            "cells": None,
            "unarmed_timeouts": 0,
            "cell_times": tuple((index, seconds) for index in chunk),
            "service_s": seconds * len(chunk),
            "origin": "stub#1",
            "host_id": None,
        },
    )


def make_round(n=4, workers=2, estimates=None, broken=False, **engine_kw):
    """A round over ``n`` cells on a stub pool, plus its engine.

    ``estimates`` maps cell index to seconds the cost model already
    knows for that cell.
    """
    cells = specs(n)
    model = CostModel()
    for index, seconds in (estimates or {}).items():
        model.observe(cells[index], seconds)
    pool = StubPool(workers, broken)
    engine = Engine(
        pool=pool,
        use_cache=False,
        memory_cache={},
        cost_model=model,
        failure_policy="skip",
        **engine_kw,
    )
    # What Engine._run_specs sets up before any round runs.
    engine._outcomes = [None] * n
    engine._done, engine._total = 0, n
    engine._submissions = 0
    results = [None] * n
    round_ = _Round(
        engine, cells, list(range(n)), results,
        {i: 0 for i in range(n)}, {}, {},
    )
    return round_, engine, pool, results


def twin_first_chunk(round_, pool, factor=2.0):
    """Submit ``[0]``, let it run past its budget, and twin it."""
    round_.submit([0])
    pool.future(0).set_running_or_notify_cancel()
    round_.speculate(factor, now=0.0)
    round_.speculate(factor, now=10.0)
    assert len(pool.submitted) == 2
    return pool.future(0), pool.future(1)


class TestSpeculationRace:
    def test_first_result_wins_and_loser_is_cancelled(self):
        round_, engine, pool, results = make_round(estimates={0: 1.0})
        primary, twin = twin_first_chunk(round_, pool)
        # The twin never started: the primary's win cancels it.
        primary.set_result(reply([0]))
        round_.settle(primary)
        assert twin.cancelled()
        assert results[0] == "r0"
        assert round_.flights == {}
        assert round_.in_flight_cells() == []
        # A copy that loses an already-settled race is ignored.
        round_.settle(twin)
        assert engine.stats.simulations == 1
        assert engine.stats.speculations_won == 0

    def test_speculative_win_is_counted(self):
        telemetry = Telemetry()
        round_, engine, pool, results = make_round(
            estimates={0: 1.0}, telemetry=telemetry
        )
        primary, twin = twin_first_chunk(round_, pool)
        twin.set_running_or_notify_cancel()
        twin.set_result(reply([0]))
        round_.settle(twin)
        # The primary is running, so it cannot be cancelled.
        assert not primary.cancelled()
        assert engine.stats.stragglers_detected == 1
        assert engine.stats.speculations_won == 1
        (won,) = telemetry.log.by_name(SPECULATION_WON)
        assert won.args["loser_cancelled"] is False
        assert results[0] == "r0"

    def test_failed_twin_is_dropped_without_retry(self):
        round_, engine, pool, results = make_round(estimates={0: 1.0})
        primary, twin = twin_first_chunk(round_, pool)
        twin.set_exception(HostDownError("loop1", OSError("eof")))
        round_.settle(twin)
        # The primary carries cell 0 at the same attempt number.
        assert len(pool.submitted) == 2
        assert engine.stats.retries == 0
        assert engine.stats.cells_rerouted == 0
        assert round_.in_flight_cells() == [0]
        assert round_.flights[primary].partner is None
        primary.set_result(reply([0]))
        round_.settle(primary)
        assert results[0] == "r0"
        assert round_.attempts[0] == 1

    def test_diverging_copies_raise(self):
        round_, _, pool, _ = make_round(estimates={0: 1.0})
        primary, twin = twin_first_chunk(round_, pool)
        twin.set_running_or_notify_cancel()
        twin.set_result(reply([0], value="other"))
        primary.set_result(reply([0]))
        with pytest.raises(RuntimeError, match="bit-identical"):
            round_.settle(primary)


class TestChunkFailures:
    def test_chunk_error_retries_members_as_single_cell_chunks(self):
        round_, engine, pool, results = make_round()
        round_.submit([0, 1])
        pool.future(0).set_exception(ValueError("unpicklable payload"))
        round_.settle(pool.future(0))
        assert engine.stats.retries == 2
        assert [pool.cells(1), pool.cells(2)] == [[(0, 2)], [(1, 2)]]
        assert round_.in_flight_cells() == [0, 1]
        for n, index in ((1, 0), (2, 1)):
            pool.future(n).set_result(reply([index]))
            round_.settle(pool.future(n))
        assert results[:2] == ["r0", "r1"]

    def test_host_down_counts_rerouted_cells(self):
        round_, engine, pool, _ = make_round()
        round_.submit([0, 1])
        pool.future(0).set_exception(HostDownError("loop0", OSError()))
        round_.settle(pool.future(0))
        assert engine.stats.cells_rerouted == 2
        assert len(pool.submitted) == 3

    def test_broken_pool_reports_every_in_flight_cell(self):
        round_, _, pool, _ = make_round(workers=4, estimates={2: 1.0})
        round_.submit([0, 1])
        round_.submit([2])
        pool.future(1).set_running_or_notify_cancel()
        round_.speculate(2.0, now=0.0)
        round_.speculate(2.0, now=10.0)
        twin = pool.future(2)
        # The primary of [2] fails while its twin is live: cell 2 is
        # now carried by the twin alone, and still counts.
        pool.future(1).set_exception(ValueError("transient"))
        round_.settle(pool.future(1))
        assert twin in round_.flights
        pool.future(0).set_exception(PoolBrokenError("worker died"))
        with pytest.raises(_PoolBroken):
            round_.settle(pool.future(0))
        assert round_.in_flight_cells() == [0, 1, 2]

    def test_broken_submission_counts_the_chunk(self):
        round_, _, _, _ = make_round(broken=True)
        with pytest.raises(_PoolBroken):
            round_.submit([0, 1])
        assert round_.in_flight_cells() == [0, 1]


class TestStragglers:
    def test_budget_scales_with_estimate_and_fills_the_median(self):
        # Cell 2 is unknown: it is filled with median(1, 2, 9) = 2.0.
        round_, _, pool, _ = make_round(
            n=4, workers=8, estimates={0: 1.0, 1: 2.0, 3: 9.0}
        )
        for chunk in ([0], [1], [2], [2, 3]):
            round_.submit(chunk)
        for n in range(4):
            pool.future(n).set_running_or_notify_cancel()
        assert round_.stragglers(2.0, now=0.0) == []
        found = {f: b for f, _, b in round_.stragglers(2.0, now=100.0)}
        assert found == {
            pool.future(0): 2.0,
            pool.future(1): 4.0,
            pool.future(2): 4.0,
            pool.future(3): 2.0 * (2.0 + 9.0),
        }
        late = round_.stragglers(2.0, now=3.0)
        assert [(f, elapsed) for f, elapsed, _ in late] == [
            (pool.future(0), 3.0)
        ]

    def test_estimate_is_read_when_the_check_runs(self):
        round_, engine, pool, _ = make_round(n=2, workers=4)
        round_.submit([0])
        pool.future(0).set_running_or_notify_cancel()
        assert round_.stragglers(2.0, now=0.0) == []
        assert round_.stragglers(2.0, now=50.0) == []  # nothing known
        engine.cost_model.observe(round_.specs[1], 4.0)
        ((_, elapsed, budget),) = round_.stragglers(2.0, now=50.0)
        assert (elapsed, budget) == (50.0, 8.0)

    def test_clock_starts_at_running_not_at_submit(self):
        round_, _, pool, _ = make_round(estimates={0: 1.0})
        round_.submit([0])
        # Queued for a long time: never a straggler.
        assert round_.stragglers(2.0, now=0.0) == []
        assert round_.stragglers(2.0, now=100.0) == []
        pool.future(0).set_running_or_notify_cancel()
        assert round_.stragglers(2.0, now=101.0) == []  # clock starts
        assert round_.stragglers(2.0, now=102.5) == []
        ((_, elapsed, _),) = round_.stragglers(2.0, now=103.5)
        assert elapsed == 2.5

    def test_no_idle_slot_means_no_speculation(self):
        round_, _, pool, _ = make_round(workers=1, estimates={0: 1.0})
        round_.submit([0])
        pool.future(0).set_running_or_notify_cancel()
        round_.speculate(2.0, now=0.0)
        round_.speculate(2.0, now=10.0)
        assert len(round_.stragglers(2.0, now=10.0)) == 1
        assert len(pool.submitted) == 1

    def test_no_estimate_means_no_speculation(self):
        round_, engine, pool, _ = make_round(workers=4)
        round_.submit([0])
        pool.future(0).set_running_or_notify_cancel()
        round_.speculate(2.0, now=0.0)
        round_.speculate(2.0, now=1e6)
        assert len(pool.submitted) == 1
        assert engine.stats.stragglers_detected == 0

    def test_straggler_event_reports_the_budget(self):
        telemetry = Telemetry()
        round_, _, pool, _ = make_round(
            estimates={0: 1.5}, telemetry=telemetry
        )
        twin_first_chunk(round_, pool, factor=2.0)
        (event,) = telemetry.log.by_name(STRAGGLER_DETECTED)
        assert event.args["estimate_s"] == 3.0
        assert event.args["elapsed_s"] == 10.0
        assert event.args["cells"] == [["db", "hotspot"]]


class InlineStubPool(StubPool):
    """Answers every chunk before ``submit_chunk`` returns."""

    def submit_chunk(self, payload) -> Future:
        chunk = [index for index, _, _ in payload[0]]
        return completed_future(reply(chunk))


def test_futures_complete_at_submission_run_end_to_end():
    cells = specs(4)
    model = CostModel()
    for cell in cells:
        model.observe(cell, 1.0)
    engine = Engine(
        pool=InlineStubPool(workers=2),
        use_cache=False,
        memory_cache={},
        cost_model=model,
        straggler_factor=2.0,
    )
    batch = engine.run(cells)
    assert batch.values() == ["r0", "r1", "r2", "r3"]
    assert engine.stats.rounds_lpt == 1
    assert engine.stats.stragglers_detected == 0
    assert engine._in_flight == 0
