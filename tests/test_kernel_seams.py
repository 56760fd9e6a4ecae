"""Differential seam test: fast kernel against the reference interpreter
wherever a micro-step seam is observable.

The reference scheduler runs each thread for ``quantum_blocks``
micro-steps (block body, call launch, terminator) and checks the budget
and the GC service before every one of them.  The fast kernel chains
micro-steps inside one loop and leaves it only at a seam: the end of a
quantum, the instruction budget, or the point where GC falls due.  These
cases put a seam at every micro-step boundary (quantum 1), at odd
offsets (2, 3), and between them (10), with one and two threads, GC off
and on, under every scheme's hook shape, on random programs whose runs
end both at program exit and on the budget.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.policy import HotspotACEPolicy
from repro.phases.policy import BBVACEPolicy
from repro.sim.config import MachineConfig, build_machine
from repro.vm.fastvm import FastVirtualMachine
from repro.vm.vm import AdaptationHooks, VMConfig, VirtualMachine
from repro.workloads.synthetic import random_program

SEEDS = range(40)
#: Long enough that GC fires and some runs end on the budget, short
#: enough that most random programs exit first (both endings are
#: asserted below).
BUDGET = 1_000
GC_PERIOD = 300


class Recorder(AdaptationHooks):
    """Per-block hook that reads the address lists, which keeps the fast
    kernel off its fused draw+cache path."""

    name = "recorder"

    def __init__(self):
        self.events = []

    def on_block(self, event, machine):
        self.events.append((
            event.method, event.bid, event.n_insns,
            tuple(event.loads), tuple(event.stores), event.branch_pc,
            event.taken, event.serialized, event.thread_id, event.block_pc,
            machine.instructions, machine.cycles,
        ))


POLICIES = {
    "baseline": AdaptationHooks,
    "hotspot": HotspotACEPolicy,
    "bbv": BBVACEPolicy,
    "recorder": Recorder,
}


def run(kernel, program, policy_name, threads, quantum, gc):
    config = VMConfig(hot_threshold=2, quantum_blocks=quantum)
    if gc:
        config.gc_method = sorted(program.methods)[-1]
        config.gc_period_instructions = GC_PERIOD
    policy = POLICIES[policy_name]()
    vm = kernel(
        program, build_machine(MachineConfig()), policy=policy,
        config=config, thread_entries=[program.entry] * threads,
    )
    vm.run(BUDGET)
    return vm, policy


def observe(vm, policy):
    machine = vm.machine
    energy = machine.energy
    l1 = machine.hierarchy.l1d.stats
    stats = vm.stats
    return {
        "instructions": machine.instructions,
        "cycles": machine.cycles,
        "energy": (
            energy.l1d.dynamic_nj, energy.l1d.leakage_nj,
            energy.l2.dynamic_nj, energy.l2.leakage_nj, energy.memory_nj,
            {n: c.energy_nj for n, c in energy.pipeline.items()},
        ),
        "l1d": (
            l1.read_accesses, l1.read_misses, l1.write_accesses,
            l1.write_misses, l1.writebacks, l1.fills,
        ),
        "predictor": (
            machine.predictor.lookups, machine.predictor.mispredictions,
        ),
        "vm.stats": (
            stats.blocks_executed, stats.instructions_in_hotspots,
            stats.gc_invocations, list(stats.thread_instructions),
        ),
        "hotspots": {
            name: (
                info.detected_at_instructions, info.invocations_since_hot,
                info.instructions_inside,
            )
            for name, info in vm.hotspots.items()
        },
        "threads": [
            (
                thread.finished,
                [
                    (a.method.name, a.bid, a.phase, dict(a.loop_states))
                    for a in thread.stack
                ],
            )
            for thread in vm.threads
        ],
        "events": getattr(policy, "events", None),
    }


CASES = list(itertools.product(
    POLICIES, (False, True), (1, 2), (1, 2, 3, 10)
))


@pytest.mark.parametrize(
    "policy_name,gc,threads,quantum", CASES,
    ids=[
        f"{p}-{'gc' if g else 'nogc'}-t{t}-q{q}" for p, g, t, q in CASES
    ],
)
def test_fast_matches_reference_at_every_seam(
    policy_name, gc, threads, quantum
):
    endings = set()
    for seed in SEEDS:
        program = random_program(seed)
        want = observe(*run(
            VirtualMachine, program, policy_name, threads, quantum, gc
        ))
        got = observe(*run(
            FastVirtualMachine, program, policy_name, threads, quantum, gc
        ))
        for key in want:
            assert got[key] == want[key], f"seed {seed}: {key} differs"
        endings.add(all(finished for finished, _ in want["threads"]))
    # Some runs exit, others stop on the budget mid-program.
    assert endings == {True, False}
