"""Analytic timing model.

Stands in for Dynamic SimpleScalar's out-of-order pipeline.  Cycles for a
block are the issue-limited base plus miss and misprediction penalties;
memory-level parallelism overlaps part of each miss's latency except for
dependence-serialised (pointer-chasing) blocks.  Constants default to the
paper's Table 2 machine (4-wide, 10-cycle L2 hit, 3-cycle mispredict) with
a conventional ~100-cycle memory latency for the 1 GHz part.

The issue-queue / reorder-buffer extension CUs modulate the effective issue
width: shrinking those structures lowers sustainable ILP, which is how their
(small) performance cost manifests at this abstraction level.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TimingParams:
    """Constants of the analytic cycle model."""

    issue_width: int = 4
    #: Base CPI floor from dependences even with a perfect memory system.
    base_cpi: float = 0.4
    l1_hit_latency: int = 1
    l2_hit_latency: int = 10
    memory_latency: int = 100
    mispredict_penalty: int = 3
    #: Average overlapped misses (memory-level parallelism divisor).
    mlp: float = 2.0
    #: Cycles to write one dirty line back during a cache flush.
    flush_cycles_per_line: float = 4.0

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if self.mlp < 1.0:
            raise ValueError("mlp must be >= 1.0")
        if self.base_cpi <= 0:
            raise ValueError("base_cpi must be positive")


class TimingModel:
    """Computes cycles per block event and tracks pipeline-resource scaling."""

    #: Full-size pipeline resources (paper Table 2: 64-RUU, 64-entry IFQ).
    FULL_ISSUE_QUEUE = 64
    FULL_ROB = 64

    def __init__(self, params: TimingParams = None):
        self.params = params or TimingParams()
        self._issue_queue_size = self.FULL_ISSUE_QUEUE
        self._rob_size = self.FULL_ROB
        self._ilp_factor = 1.0
        p = self.params
        # Pre-derived constants for the hot path.
        self._cycles_per_insn = max(1.0 / p.issue_width, p.base_cpi)

    # -- pipeline-resource CUs (extension) --------------------------------

    def set_issue_queue_size(self, size: int) -> None:
        self._issue_queue_size = size
        self._update_ilp()

    def set_rob_size(self, size: int) -> None:
        self._rob_size = size
        self._update_ilp()

    def _update_ilp(self) -> None:
        # Sustainable ILP scales with the square root of window size
        # (classic Riseman/Foster-style rule of thumb); normalise to 1.0 at
        # full size and floor at half throughput.
        iq = (self._issue_queue_size / self.FULL_ISSUE_QUEUE) ** 0.5
        rob = (self._rob_size / self.FULL_ROB) ** 0.5
        self._ilp_factor = max(0.5, min(iq, rob))

    @property
    def ilp_factor(self) -> float:
        return self._ilp_factor

    # -- cycle computation --------------------------------------------------

    def cycles_for_block(
        self,
        n_insns: int,
        l1d_misses: int,
        l2_misses: int,
        mispredicts: int,
        serialized: bool = False,
    ) -> float:
        """Cycles to execute one block.

        ``l1d_misses`` pay an L2 round trip, ``l2_misses`` additionally pay
        the memory latency.  Misses overlap by the MLP factor unless the
        block is dependence-serialised.
        """
        p = self.params
        cycles = n_insns * self._cycles_per_insn / self._ilp_factor
        if l1d_misses or l2_misses:
            overlap = 1.0 if serialized else p.mlp
            cycles += l1d_misses * (p.l2_hit_latency / overlap)
            cycles += l2_misses * (p.memory_latency / overlap)
        if mispredicts:
            cycles += mispredicts * p.mispredict_penalty
        return cycles

    def hot_constants(self) -> "tuple":
        """The per-block cost constants, pre-fetched for the fast kernel.

        Returns ``(cycles_per_insn, l2_hit_latency, memory_latency,
        mispredict_penalty, mlp)``.  These are fixed for a run —
        :class:`TimingParams` is never mutated after construction — so the
        fast kernel binds them as loop locals once per runner call (one
        quantum, or all of a single-threaded, GC-free run).
        ``ilp_factor`` is deliberately *not* included: pipeline CUs change
        it mid-run, so the hot loop must read ``self._ilp_factor`` live.
        """
        p = self.params
        return (
            self._cycles_per_insn,
            p.l2_hit_latency,
            p.memory_latency,
            p.mispredict_penalty,
            p.mlp,
        )

    def flush_penalty(self, dirty_lines: int) -> float:
        """Stall cycles for writing back ``dirty_lines`` during a resize."""
        return dirty_lines * self.params.flush_cycles_per_line

    def peak_ipc(self) -> float:
        """IPC with a perfect memory system at current resource scaling."""
        return self._ilp_factor / self._cycles_per_insn
