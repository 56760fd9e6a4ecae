"""JIT compiler model (paper §4.2).

Jikes RVM is compile-only: every method is baseline-compiled on first
invocation, and hotspots are recompiled at the highest optimisation level
(the paper restricts itself to one level to avoid multiple hotspot
versions).  The reproduction charges compile time (cycles) proportional to
method size, and models the *instrumentation patching* the framework relies
on: the compiler can attach/replace entry and exit stubs on a compiled
method — the tuning/profiling/configuration/sampling code of Figure 2 —
which the VM invokes on every subsequent entry/exit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.program import CondBranch, Goto, Method, Program
from repro.vm.blockjit import compile_fused_block


class OptimizationLevel(enum.IntEnum):
    """Compilation levels, mirroring Jikes' baseline + O0..O2."""

    BASELINE = 0
    O0 = 1
    O1 = 2
    O2 = 3


@dataclass(frozen=True)
class CompileEvent:
    """One compilation, for logs and overhead accounting."""

    method: str
    level: OptimizationLevel
    at_instructions: int
    cost_cycles: float


#: Relative compile cost per static instruction at each level; the optimizing
#: levels are much slower than the baseline compiler, as in Jikes.
_COST_PER_INSN = {
    OptimizationLevel.BASELINE: 2.0,
    OptimizationLevel.O0: 10.0,
    OptimizationLevel.O1: 25.0,
    OptimizationLevel.O2: 60.0,
}

#: Speedup of code compiled at each level relative to baseline code.
#: Applied as a divisor on block cycles for optimised methods.
_CODE_QUALITY = {
    OptimizationLevel.BASELINE: 1.0,
    OptimizationLevel.O0: 1.15,
    OptimizationLevel.O1: 1.25,
    OptimizationLevel.O2: 1.30,
}


class EntryStub:
    """An instrumentation stub the JIT installs at a hotspot boundary.

    ``kind`` is free-form (the framework uses "tuning", "config",
    "sampling"); ``fn`` is invoked by the VM with ``(hotspot, vm)`` at entry
    stubs and ``(hotspot, invocation_delta, vm)`` at exit stubs.
    """

    __slots__ = ("kind", "fn")

    def __init__(self, kind: str, fn: Callable):
        self.kind = kind
        self.fn = fn

    def __repr__(self) -> str:
        return f"EntryStub({self.kind!r})"


class JITCompiler:
    """Compile-state tracker + instrumentation patch points."""

    def __init__(self, top_level: OptimizationLevel = OptimizationLevel.O2):
        self.top_level = top_level
        self.levels: Dict[str, OptimizationLevel] = {}
        self.entry_stubs: Dict[str, EntryStub] = {}
        self.exit_stubs: Dict[str, EntryStub] = {}
        self.compile_log: List[CompileEvent] = []
        self.total_compile_cycles = 0.0

    # -- compilation -------------------------------------------------------

    def compile(
        self,
        method: Method,
        level: OptimizationLevel,
        now_instructions: int,
    ) -> float:
        """(Re)compile ``method`` at ``level``; returns the cycle cost."""
        current = self.levels.get(method.name)
        if current is not None and current >= level:
            return 0.0
        cost = method.static_instruction_count * _COST_PER_INSN[level]
        self.levels[method.name] = level
        self.compile_log.append(
            CompileEvent(method.name, level, now_instructions, cost)
        )
        self.total_compile_cycles += cost
        return cost

    def ensure_baseline(self, method: Method, now_instructions: int) -> float:
        """First-touch baseline compilation (compile-only VM)."""
        if method.name in self.levels:
            return 0.0
        return self.compile(
            method, OptimizationLevel.BASELINE, now_instructions
        )

    def optimize_hotspot(self, method: Method, now_instructions: int) -> float:
        """Recompile a detected hotspot at the top level (paper §4.2)."""
        return self.compile(method, self.top_level, now_instructions)

    def level_of(self, method_name: str) -> OptimizationLevel:
        return self.levels.get(method_name, OptimizationLevel.BASELINE)

    def code_quality(self, method_name: str) -> float:
        """Cycle divisor reflecting the method's code quality."""
        return _CODE_QUALITY[self.level_of(method_name)]

    # -- instrumentation patching ------------------------------------------

    def patch_entry(self, method_name: str, stub: Optional[EntryStub]) -> None:
        """Install (or, with None, remove) the entry stub of a method."""
        if stub is None:
            self.entry_stubs.pop(method_name, None)
        else:
            self.entry_stubs[method_name] = stub

    def patch_exit(self, method_name: str, stub: Optional[EntryStub]) -> None:
        if stub is None:
            self.exit_stubs.pop(method_name, None)
        else:
            self.exit_stubs[method_name] = stub

    def entry_stub(self, method_name: str) -> Optional[EntryStub]:
        return self.entry_stubs.get(method_name)

    def exit_stub(self, method_name: str) -> Optional[EntryStub]:
        return self.exit_stubs.get(method_name)


# ---------------------------------------------------------------------------
# Block decode tables (fast-kernel support)
# ---------------------------------------------------------------------------

#: Terminator kinds in a :class:`DecodedBlock`.
TERM_RETURN = 0
TERM_GOTO = 1
TERM_COND = 2

#: Initial value of :attr:`DecodedBlock.pstate` — distinct from any real
#: decider state (``None`` could be one).
PSTATE_UNSET = object()


class DecodedBlock:
    """Pre-decoded execution plan of one basic block.

    Everything the interpreter's hot loop needs from a block —
    instruction counts, terminator shape, resolved callee ``Method``
    objects — is immutable once the program is laid out, so the fast
    kernel decodes each block once and then runs from these flat slots
    instead of re-deriving them (isinstance checks, dict lookups,
    ``getattr``) millions of times.
    """

    __slots__ = (
        "bid",
        "method_name",
        "n_insns",
        "n_loads",
        "n_stores",
        "memory",
        "gen",
        "fast_gen",
        "fused_gen",
        "serialized",
        "region_base",
        "callees",
        "n_calls",
        "term_kind",
        "goto_target",
        "taken_target",
        "fallthrough_target",
        "goto_dec",
        "taken_dec",
        "fallthrough_dec",
        "decider",
        "persistent",
        "branch_pc",
        "block_pc",
        "needs_iter",
        "iter_count",
        "pstate",
    )

    def __init__(self, method: Method, block, program: Program):
        mix = block.mix
        memory = block.memory
        self.bid = block.bid
        self.method_name = method.name
        self.n_insns = mix.total
        self.n_loads = mix.loads
        self.n_stores = mix.stores
        self.memory = memory
        #: ``memory`` when the body actually generates addresses
        #: (mirrors the reference kernel's ``memory is not None and
        #: (mix.loads or mix.stores)`` guard), else ``None``.
        self.gen = (
            memory
            if memory is not None and (mix.loads or mix.stores)
            else None
        )
        #: Specialised address generator (see
        #: ``MemoryBehavior.compile_fast``); falls back to a
        #: ``generate``-wrapping closure for behaviours without one.
        #: Codegen'd draw+L1-access closure (see
        #: :mod:`repro.vm.blockjit`); only usable when no ``on_block``
        #: hook needs the address lists.  ``None`` for behaviours
        #: without a fused form.
        if self.gen is None:
            self.fast_gen = None
            self.fused_gen = None
        else:
            self.fused_gen = compile_fused_block(
                self.gen, mix.loads, mix.stores
            )
            fast = self.gen.compile_fast(mix.loads, mix.stores)
            if fast is None:
                gen, nl, ns = self.gen, mix.loads, mix.stores

                def fast(rng, frame_base, region_base, iteration):
                    return gen.generate(
                        rng, frame_base, region_base, iteration, nl, ns
                    )

            self.fast_gen = fast
        #: Whether the generators consume the iteration counter at all;
        #: when False the runner skips its per-execution maintenance
        #: (the skipped value is unobservable).
        self.needs_iter = (
            self.gen is not None and self.gen.uses_iteration
        )
        self.serialized = getattr(memory, "serialized", False)
        region = method.region
        self.region_base = region.base if region is not None else 0
        self.callees: Tuple[Method, ...] = tuple(
            program.methods[site.callee] for site in block.calls
        )
        self.n_calls = len(self.callees)
        term = block.terminator
        self.goto_target = None
        self.taken_target = None
        self.fallthrough_target = None
        self.decider = None
        self.persistent = False
        if isinstance(term, Goto):
            self.term_kind = TERM_GOTO
            self.goto_target = term.target
        elif isinstance(term, CondBranch):
            self.term_kind = TERM_COND
            self.taken_target = term.taken
            self.fallthrough_target = term.fallthrough
            self.decider = term.decider
            self.persistent = term.decider.persistent
        else:
            self.term_kind = TERM_RETURN
        self.branch_pc = block.branch_pc
        self.block_pc = block.branch_pc or 0
        #: Direct links to successor DecodedBlocks (resolved by
        #: :meth:`BlockDecoder.table` once the whole method is decoded) so
        #: the fast kernel's runner chains blocks without per-step table
        #: lookups.
        self.goto_dec = None
        self.taken_dec = None
        self.fallthrough_dec = None
        #: Per-run mutable state of the fast kernel's runner, which
        #: gives each thread its own decoder: the block's iteration
        #: counter and its persistent decider state, i.e. the reference
        #: kernel's ``thread.block_iterations`` and
        #: ``thread.persistent_decider_states`` entries for this block.
        self.iter_count = 0
        self.pstate = PSTATE_UNSET

    def __repr__(self) -> str:
        return (
            f"DecodedBlock({self.method_name}:{self.bid}, "
            f"insns={self.n_insns}, term={self.term_kind})"
        )


class BlockDecoder:
    """One thread's :class:`DecodedBlock` tables for a program.

    ``tables`` maps method name to a ``{bid: DecodedBlock}`` dict;
    methods are decoded lazily on first execution so cold methods cost
    nothing.  The blocks carry the thread's per-run state, so a decoder
    is never shared between threads.  Decoding requires the program to
    be laid out (branch PCs assigned), which the VM already guarantees.
    """

    __slots__ = ("program", "tables")

    def __init__(self, program: Program):
        self.program = program
        self.tables: Dict[str, Dict[str, DecodedBlock]] = {}

    def table(self, method: Method) -> Dict[str, DecodedBlock]:
        table = self.tables.get(method.name)
        if table is None:
            program = self.program
            table = {
                bid: DecodedBlock(method, block, program)
                for bid, block in method.blocks.items()
            }
            for dec in table.values():
                if dec.term_kind == TERM_GOTO:
                    dec.goto_dec = table[dec.goto_target]
                elif dec.term_kind == TERM_COND:
                    dec.taken_dec = table[dec.taken_target]
                    dec.fallthrough_dec = table[dec.fallthrough_target]
            self.tables[method.name] = table
        return table
