"""Turbo simulation kernel: opt-in, tolerance-equivalent, vectorized.

:class:`TurboVirtualMachine` extends the fast kernel with a *batched* path
for the dominant execution shape in the synthetic workloads: a self-loop
"mid" block (``CondBranch`` back to itself under a non-persistent
:class:`~repro.isa.program.LoopDecider`) whose callees are straight-line
leaf methods.  When the loop has ``B`` guaranteed-taken iterations left,
the kernel simulates all of them in one step:

* cache-line addresses come from per-plan *draw tables*: whole blocks of
  column values (:meth:`MemoryBehavior.turbo_columns`) are pre-drawn from
  a per-thread ``numpy.random.Generator`` and consumed slice-by-slice —
  same marginal distributions as the scalar generators, different draw
  sequence;
* the L1D is simulated set-wise (:func:`turbo_cache_batch`): sets whose
  batch lines are all resident can only hit and are finalized wholesale;
  accesses to any other set are replayed scalar in stream order through
  the real dict machinery, so miss counts, evictions and writebacks are
  exact given the addresses;
* branch predictor, cycles, energy, method profiles and hotspot
  bookkeeping are applied in closed form.

Turbo has no interpreter loop of its own.  The fast kernel's runner
calls :meth:`TurboVirtualMachine._batch_step` at the top of its tight
loop for self-loop blocks, and only in a single-threaded, GC-free run
whose policy installs no per-block hook; every other block, and every
other run, executes on the fast kernel's scalar path.

This drops the fast kernel's bit-identity contract.  What may deviate and
what must not is specified in docs/INTERNALS.md §17 and enforced by
``tests/stat_equivalence.py``: continuous metrics (energy, EDP, miss
rates, cycles) within the committed tolerance spec, discrete tuning
outcomes (chosen configurations, pin decisions, phase transitions,
hotspot sets) exactly equal to the fast kernel's.  Multi-threaded or
GC-enabled runs never batch and remain bit-identical to fast.

The kernel is strictly opt-in (``sim_kernel="turbo"``): it is never a
default, is refused by golden-trace tests, and fingerprints under its own
version so store entries never collide with fast/reference results.
"""

from __future__ import annotations

import numpy as np  # this module is imported lazily; the driver gates it

from repro.isa.program import LoopDecider
from repro.obs.events import HOTSPOT_INVOKE
from repro.vm.activation import FRAME_BYTES
from repro.vm.fastvm import FastVirtualMachine
from repro.vm.hotspot import MethodProfile
from repro.vm.jit import TERM_COND, TERM_GOTO, TERM_RETURN
from repro.vm.vm import _EMPTY, _SENTINEL
from repro.workloads.patterns import WORD

#: Smallest batch worth the fixed batching costs; shorter loops run scalar.
MIN_BATCH = 6

#: Rows per draw table (= max loop iterations per batch).  Tables are
#: rebuilt when exhausted, so the value only trades memory for rebuild
#: frequency.
TABLE_ROWS = 2048

_EMPTY_SET = frozenset()


class TurboPlan:
    """Static description of one batchable self-loop unit.

    Compiled once per decoded mid block; ``False`` is cached for blocks
    that fail the structural checks (wrong terminator shape, persistent
    or non-Loop decider, callees with branches/calls/iteration counters,
    or a memory behaviour without :meth:`turbo_columns`).  The mutable
    tail of the slots caches the current draw table.
    """

    __slots__ = (
        # static shape
        "cols",
        "col_groups",
        "width",
        "store_row",
        "serial_row",
        "store_cols",
        "has_store",
        "nl_per_iter",
        "ns_per_iter",
        "unit_insns",
        "unit_blocks",
        "mid_insns",
        "mid_needs_iter",
        "branch_pc",
        "method_name",
        "leaves",
        # draw-table cache
        "tbl",
        "store_tbl",
        "tbl_key",
        "tbl_it",
        "cursor",
        # per-row distinct-line bitmasks over the table's value universe
        "mask_vals",
        "row_masks",
        "store_row_masks",
    )


def turbo_cache_batch(cache, flat_lines, store_lines, store_row, serial_row,
                      batch):
    """Simulate a batched access stream against a dict-LRU cache.

    ``flat_lines`` is the stream-ordered list of cache-line numbers for
    ``batch`` loop iterations of ``len(store_row)`` references each;
    ``store_lines`` is the set of lines touched by at least one store;
    ``store_row`` / ``serial_row`` are the per-column store and
    dependence-serialised flags of one iteration.

    Sets whose distinct batch lines are all resident at entry can only
    hit: their accesses are counted wholesale and each touched line is
    refreshed to the young end of its set with its dirty bit OR-ed with
    the batch's stores.  Accesses to any other set are replayed scalar in
    stream order through the real set dicts, so misses, evictions and
    writebacks are exact given the addresses.  Relative to a scalar
    replay of the same stream the only deviation is the *recency order*
    among hit-only lines within a set (contents, dirty bits, miss and
    writeback sequences are identical) — the deviation the statistical
    equivalence harness tolerates.

    Returns ``(read_misses, write_misses, miss_normal, wb_normal,
    miss_serial, wb_serial)`` where the line lists are byte addresses in
    true stream order, split by the serialised flag of the slot that
    missed (the timing model charges different overlap factors per
    class).
    """
    sets = cache._sets
    set_mask = cache._set_mask
    uniq = set(flat_lines)
    bad = None
    for line in uniq:
        if line not in sets[line & set_mask]:
            if bad is None:
                bad = set()
            bad.add(line & set_mask)
    if bad is None:
        # Steady state: every touched set can only hit.  Refresh first
        # (keeping dirty bits), then OR the store lines in — assigning
        # to an existing key does not move it, so recency is identical
        # to folding the store probe into the refresh loop.
        for line in uniq:
            s = sets[line & set_mask]
            s[line] = s.pop(line)
        for line in store_lines:
            sets[line & set_mask][line] = True
        return 0, 0, _EMPTY, _EMPTY, _EMPTY, _EMPTY
    assoc = cache.associativity
    shift = cache._line_shift
    flat_store = store_row * batch
    flat_serial = serial_row * batch
    missing = _SENTINEL
    r_m = 0
    w_m = 0
    miss_normal = []
    wb_normal = []
    miss_serial = []
    wb_serial = []
    for i, line in enumerate(flat_lines):
        si = line & set_mask
        if si not in bad:
            continue
        is_store = flat_store[i]
        s = sets[si]
        prev = s.pop(line, missing)
        if prev is not missing:
            s[line] = True if is_store else prev
        else:
            if is_store:
                w_m += 1
            else:
                r_m += 1
            if flat_serial[i]:
                miss_serial.append(line << shift)
                wb_target = wb_serial
            else:
                miss_normal.append(line << shift)
                wb_target = wb_normal
            if len(s) >= assoc:
                victim = next(iter(s))
                if s.pop(victim):
                    wb_target.append(victim << shift)
            s[line] = is_store
    for line in uniq:
        si = line & set_mask
        if si in bad:
            continue
        s = sets[si]
        s[line] = s.pop(line) or (line in store_lines)
    return r_m, w_m, miss_normal, wb_normal, miss_serial, wb_serial


class TurboVirtualMachine(FastVirtualMachine):
    """Opt-in vectorized kernel; see the module docstring for contract."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: id(DecodedBlock) -> TurboPlan | False (False = not batchable).
        self._turbo_plans = {}
        #: Per-thread numpy generators for batched address draws; seeded
        #: from the run seed so turbo runs replay deterministically.
        self._np_rngs = {}

    def _np_rng(self, thread_id):
        rng = self._np_rngs.get(thread_id)
        if rng is None:
            rng = np.random.default_rng(
                (0x7472626F, self.config.seed, thread_id)
            )
            self._np_rngs[thread_id] = rng
        return rng

    # -- plan compilation ---------------------------------------------------

    def _compile_turbo_plan(self, dec):
        """Build a TurboPlan for a self-loop mid block, or None."""
        if dec.term_kind != TERM_COND or dec.taken_target != dec.bid:
            return None
        decider = dec.decider
        if (
            decider is None
            or dec.persistent
            or type(decider) is not LoopDecider
            or dec.branch_pc is None
        ):
            return None
        cols = []
        store_row = []
        serial_row = []

        def add_block(block, is_mid):
            if block.memory is None or not (block.n_loads or block.n_stores):
                return True
            specs = block.memory.turbo_columns(block.n_loads, block.n_stores)
            if specs is None:
                return False
            if len(specs) != block.n_loads + block.n_stores:
                return False
            for k, spec in enumerate(specs):
                kind = spec[0]
                base_kind = spec[1]
                off = spec[2]
                if kind not in ("unif", "mix", "wind", "det"):
                    return False
                if kind in ("wind", "det") and not dec.needs_iter:
                    # Iteration-indexed columns need the mid's counter.
                    return False
                if base_kind == "frame":
                    fsel = 1 if is_mid else 2
                    base = off
                else:
                    fsel = 0
                    base = block.region_base + off
                cols.append((kind, fsel, base) + spec[3:])
                store_row.append(k >= block.n_loads)
                serial_row.append(bool(block.serialized))
            return True

        if not add_block(dec, True):
            return None
        nl_per_iter = dec.n_loads
        ns_per_iter = dec.n_stores
        unit_insns = dec.n_insns
        unit_blocks = 1
        leaves = []
        tables = self._decoder.tables
        get_table = self._decoder.table
        for method in dec.callees:
            table = tables.get(method.name)
            if table is None:
                table = get_table(method)
            chain = []
            bid = method.entry
            seen = set()
            insns = 0
            while True:
                if bid in seen:
                    return None
                seen.add(bid)
                block = table[bid]
                if (
                    block.n_calls
                    or block.decider is not None
                    or block.needs_iter
                ):
                    return None
                chain.append(block)
                insns += block.n_insns
                kind = block.term_kind
                if kind == TERM_RETURN:
                    break
                if kind != TERM_GOTO:
                    return None
                bid = block.goto_target
            for block in chain:
                if not add_block(block, False):
                    return None
                nl_per_iter += block.n_loads
                ns_per_iter += block.n_stores
            unit_insns += insns
            unit_blocks += len(chain)
            leaves.append(
                (method, method.name, insns, "hotspot:" + method.name)
            )
        plan = TurboPlan()
        plan.cols = tuple(cols)
        # Identical column specs (common: a behaviour's N references per
        # iteration) share one wide generator draw per table rebuild.
        groups = {}
        for j, col in enumerate(cols):
            groups.setdefault(col, []).append(j)
        plan.col_groups = tuple(
            (spec, np.array(idx, dtype=np.intp))
            for spec, idx in groups.items()
        )
        plan.width = len(cols)
        plan.store_row = tuple(store_row)
        plan.serial_row = tuple(serial_row)
        store_cols = [j for j, st in enumerate(store_row) if st]
        plan.store_cols = np.array(store_cols, dtype=np.intp)
        plan.has_store = bool(store_cols)
        plan.nl_per_iter = nl_per_iter
        plan.ns_per_iter = ns_per_iter
        plan.unit_insns = unit_insns
        plan.unit_blocks = unit_blocks
        plan.mid_insns = dec.n_insns
        plan.mid_needs_iter = dec.needs_iter
        plan.branch_pc = dec.branch_pc
        plan.method_name = dec.method_name
        plan.leaves = tuple(leaves)
        plan.tbl = None
        plan.store_tbl = None
        plan.tbl_key = None
        plan.tbl_it = 0
        plan.cursor = 0
        plan.mask_vals = None
        plan.row_masks = None
        plan.store_row_masks = None
        return plan

    def _turbo_leaves_ready(self, plan):
        """Runtime gate: every callee must be in steady state.

        Compiled, hot, L1I-resident, and unmanaged (no entry/exit stubs)
        — then a leaf invocation reduces to the closed-form bookkeeping
        the batch applies.  Anything else (still warming up, or a policy
        managing the leaf) falls back to scalar execution.
        """
        levels = self._levels
        profiles = self._profiles
        resident = self.machine.hierarchy.l1i._resident
        entry_stubs = self._entry_stubs
        exit_stubs = self._exit_stubs
        for _method, name, _insns, _track in plan.leaves:
            profile = profiles.get(name)
            if profile is None or not profile.is_hot:
                return False
            if name not in levels or name not in resident:
                return False
            if (
                entry_stubs.get(name) is not None
                or exit_stubs.get(name) is not None
            ):
                return False
        return True

    # -- draw tables --------------------------------------------------------

    def _build_table(self, plan, nprng, mid_fb, leaf_fb, line_shift, it_base):
        """(Re)draw a plan's table of cache-line numbers.

        One column per memory reference of the loop unit, one row per
        iteration; iteration-indexed columns ("wind"/"det") are aligned
        so row ``i`` corresponds to mid iteration ``it_base + i``.  The
        table is keyed on the frame bases and the L1D line shift, so a
        cache reconfiguration or a different activation depth forces a
        redraw.
        """
        tbl = np.empty((TABLE_ROWS, plan.width), dtype=np.int64)
        it_vec = None
        for spec, idx in plan.col_groups:
            kind = spec[0]
            fsel = spec[1]
            base = spec[2]
            if fsel == 1:
                base += mid_fb
            elif fsel == 2:
                base += leaf_fb
            k = len(idx)
            if kind == "unif":
                tbl[:, idx] = base + nprng.integers(
                    0, spec[3], size=(TABLE_ROWS, k), dtype=np.int64
                ) * WORD
            elif kind == "mix":
                hot = nprng.integers(
                    0, spec[4], size=(TABLE_ROWS, k), dtype=np.int64
                )
                full = nprng.integers(
                    0, spec[5], size=(TABLE_ROWS, k), dtype=np.int64
                )
                choice = nprng.random((TABLE_ROWS, k)) < spec[3]
                tbl[:, idx] = base + np.where(choice, hot, full) * WORD
            else:
                if it_vec is None:
                    it_vec = np.arange(
                        it_base, it_base + TABLE_ROWS, dtype=np.int64
                    )
                if kind == "wind":
                    r = nprng.integers(
                        0, spec[3], size=(TABLE_ROWS, k), dtype=np.int64
                    ) * WORD
                    span = spec[5]
                    pos = (it_vec * spec[4]) % span
                    tbl[:, idx] = base + (pos[:, None] + r) % span
                else:  # det
                    vals = base + (it_vec * spec[3] + spec[4]) % spec[5]
                    tbl[:, idx] = vals[:, None]
        tbl >>= line_shift
        plan.tbl = tbl
        plan.store_tbl = tbl[:, plan.store_cols] if plan.has_store else None
        plan.tbl_key = (mid_fb, leaf_fb, line_shift)
        plan.tbl_it = it_base
        plan.cursor = 0
        # Per-row bitmasks over the table's distinct lines.  The loops
        # draw from small line spaces, so a whole table typically holds
        # only a few dozen distinct lines; with <= 64 a single uint64
        # lane per row lets a batch recover its *distinct* line set by
        # OR-ing its rows — without materialising the (much longer)
        # flat stream — which is all the steady-state all-hit cache
        # path needs.  Wider universes just fall back to that stream.
        # Find the table's distinct lines group-by-group with vectorized
        # range/bincount passes (bases differ wildly *across* groups, so
        # one global bincount range is unusable, but lines *within* a
        # group span a small window).
        mask_ok = True
        uniq_lines = set()
        group_info = []
        for _spec, idx in plan.col_groups:
            sub = tbl[:, idx]
            lo = int(sub.min())
            rng = int(sub.max()) - lo + 1
            if rng > 65536:
                mask_ok = False
                break
            offs = np.nonzero(np.bincount((sub - lo).reshape(-1)))[0]
            uniq_lines.update((offs + lo).tolist())
            if len(uniq_lines) > 64:
                mask_ok = False
                break
            group_info.append((idx, lo, rng, offs))
        if mask_ok:
            vals = sorted(uniq_lines)
            vals_arr = np.array(vals, dtype=np.int64)
            one = np.uint64(1)
            row_masks = np.zeros(TABLE_ROWS, dtype=np.uint64)
            store_row_masks = (
                np.zeros(TABLE_ROWS, dtype=np.uint64)
                if plan.has_store
                else None
            )
            store_col_set = frozenset(plan.store_cols)
            for idx, lo, rng, offs in group_info:
                lut = np.zeros(rng, dtype=np.uint64)
                lut[offs] = one << np.searchsorted(
                    vals_arr, offs + lo
                ).astype(np.uint64)
                gbits = lut[tbl[:, idx] - lo]
                row_masks |= np.bitwise_or.reduce(gbits, axis=1)
                if store_row_masks is not None:
                    sidx = [
                        p for p, col in enumerate(idx)
                        if col in store_col_set
                    ]
                    if sidx:
                        store_row_masks |= np.bitwise_or.reduce(
                            gbits[:, sidx], axis=1
                        )
            plan.mask_vals = vals
            plan.row_masks = row_masks
            plan.store_row_masks = store_row_masks
        else:
            plan.mask_vals = None
            plan.row_masks = None
            plan.store_row_masks = None

    # -- batched execution --------------------------------------------------

    def _execute_batch(
        self, thread, activation, dec, plan, batch, full, in_hotspot
    ):
        """Run ``batch`` loop iterations in closed form.

        With ``full`` false the iterations are guaranteed-taken and the
        loop continues scalar afterwards; with ``full`` true the batch
        is the *entire* remaining activation of the loop — the last
        iteration's branch falls through, and the caller re-arms the
        decider and continues at the fallthrough block.  Caller has
        flushed ``machine.instructions``/``cycles`` and owns the
        loop-decider state update; everything else — cache, predictor,
        timing, energy, profiles, hotspot info, L1I, stats, sampler,
        telemetry — happens here.
        """
        machine = self.machine
        hierarchy = machine.hierarchy
        l1 = hierarchy.l1d
        l1_stats = l1.stats
        timing = machine.timing
        (
            cycles_per_insn,
            l2_hit_latency,
            memory_latency,
            mispredict_penalty,
            mlp,
        ) = timing.hot_constants()
        energy = machine.energy
        l1e = energy.l1d
        l2e = energy.l2
        start_insns = machine.instructions
        thread_id = thread.thread_id

        if plan.mid_needs_iter:
            mid_iter0 = dec.iter_count
            dec.iter_count = mid_iter0 + batch
        else:
            mid_iter0 = 0

        # ---- addresses from the draw table; L1D set-wise ----
        if plan.width:
            line_shift = l1._line_shift
            mid_fb = activation.frame_base
            leaf_fb = thread.stack_base - len(thread.stack) * FRAME_BYTES
            off = (
                mid_iter0 - plan.tbl_it
                if plan.mid_needs_iter
                else plan.cursor
            )
            if (
                plan.tbl is None
                or plan.tbl_key != (mid_fb, leaf_fb, line_shift)
                or off < 0
                or off + batch > TABLE_ROWS
            ):
                self._build_table(
                    plan,
                    self._np_rng(thread_id),
                    mid_fb,
                    leaf_fb,
                    line_shift,
                    mid_iter0,
                )
                off = 0
            end = off + batch
            if not plan.mid_needs_iter:
                plan.cursor = end
            # Steady-state fast path: recover the batch's distinct lines
            # from the per-row masks; if every one is resident the batch
            # can only hit and is finalized wholesale (same contents and
            # dirty bits as :func:`turbo_cache_batch`'s all-hit path,
            # recency order within the hit-only sets relaxed as per the
            # equivalence contract) without ever materialising the flat
            # stream.  Any non-resident line falls through to the exact
            # batched/scalar simulation.
            all_hit = False
            row_masks = plan.row_masks
            if row_masks is not None:
                sets = l1._sets
                l1_set_mask = l1._set_mask
                vals = plan.mask_vals
                mm = int(np.bitwise_or.reduce(row_masks[off:end]))
                lines = []
                all_hit = True
                while mm:
                    bit = mm & -mm
                    line = vals[bit.bit_length() - 1]
                    if line not in sets[line & l1_set_mask]:
                        all_hit = False
                        break
                    lines.append(line)
                    mm ^= bit
                if all_hit:
                    for line in lines:
                        s = sets[line & l1_set_mask]
                        s[line] = s.pop(line)
                    if plan.has_store:
                        sm = int(
                            np.bitwise_or.reduce(
                                plan.store_row_masks[off:end]
                            )
                        )
                        while sm:
                            bit = sm & -sm
                            line = vals[bit.bit_length() - 1]
                            sets[line & l1_set_mask][line] = True
                            sm ^= bit
                    r_m = w_m = 0
                    miss_normal = wb_normal = _EMPTY
                    miss_serial = wb_serial = _EMPTY
            if not all_hit:
                flat_lines = plan.tbl[off:end].reshape(-1).tolist()
                if plan.has_store:
                    store_lines = set(
                        plan.store_tbl[off:end].reshape(-1).tolist()
                    )
                else:
                    store_lines = _EMPTY_SET
                (
                    r_m, w_m, miss_normal, wb_normal, miss_serial, wb_serial
                ) = turbo_cache_batch(
                    l1,
                    flat_lines,
                    store_lines,
                    plan.store_row,
                    plan.serial_row,
                    batch,
                )
        else:
            r_m = w_m = 0
            miss_normal = wb_normal = miss_serial = wb_serial = _EMPTY

        nl_total = batch * plan.nl_per_iter
        ns_total = batch * plan.ns_per_iter
        l1_misses = r_m + w_m
        l1_stats.read_accesses += nl_total
        l1_stats.write_accesses += ns_total
        if l1_misses:
            l1_stats.read_misses += r_m
            l1_stats.write_misses += w_m
            l1_stats.fills += l1_misses
            n_wb = len(wb_normal) + len(wb_serial)
            if n_wb:
                l1_stats.writebacks += n_wb

        total_insns = batch * plan.unit_insns
        cycles = total_insns * cycles_per_insn / timing._ilp_factor
        if l1_misses:
            l2_access = hierarchy.l2.access_block
            memory_access_nj = energy.memory_access_nj
            for miss_lines, wb_lines, overlap in (
                (miss_normal, wb_normal, mlp),
                (miss_serial, wb_serial, 1.0),
            ):
                if not miss_lines:
                    continue
                (l2_rh, l2_rm, l2_wh, l2_wm, _l2_miss, l2_wb) = l2_access(
                    miss_lines, wb_lines or _EMPTY
                )
                l2_misses = l2_rm + l2_wm
                hierarchy.memory_reads += l2_misses
                hierarchy.memory_writes += len(l2_wb)
                l2e.dynamic_nj += (
                    (l2_rh + l2_rm) * l2e._read_nj
                    + (l2_wh + l2_wm + l2_misses) * l2e._write_nj
                )
                energy.memory_nj += (
                    (l2_misses + len(l2_wb)) * memory_access_nj
                )
                cycles += len(miss_lines) * (l2_hit_latency / overlap)
                cycles += l2_misses * (memory_latency / overlap)

        # ---- branch predictor, closed form ----
        # ``batch - 1`` taken iterations then one not-taken when full;
        # all taken when partial (the 2-bit counter saturates upward,
        # mispredicting only while below the taken threshold).
        predictor = machine.predictor
        pred_table = predictor._table
        index = (plan.branch_pc >> 2) & predictor._mask
        counter = pred_table[index]
        takens = batch - 1 if full else batch
        mispredicts = 2 - counter
        if mispredicts < 0:
            mispredicts = 0
        elif mispredicts > takens:
            mispredicts = takens
        counter += takens
        if counter > 3:
            counter = 3
        if full:
            if counter >= 2:
                mispredicts += 1
            if counter > 0:
                counter -= 1
        pred_table[index] = counter
        predictor.lookups += batch
        if mispredicts:
            predictor.mispredictions += mispredicts
            cycles += mispredicts * mispredict_penalty

        # ---- energy + machine counters ----
        l1e.dynamic_nj += (
            nl_total * l1e._read_nj + (ns_total + l1_misses) * l1e._write_nj
        )
        l1e.leakage_nj += cycles * l1e._leak_nj
        l2e.leakage_nj += cycles * l2e._leak_nj
        for component in energy.pipeline.values():
            component.energy_nj += cycles * component._nj
        machine.instructions = start_insns + total_insns
        machine.cycles += cycles

        # ---- VM bookkeeping ----
        stats = self.stats
        stats.blocks_executed += batch * plan.unit_blocks
        stats.thread_instructions[thread_id] += total_insns
        if in_hotspot:
            stats.instructions_in_hotspots += total_insns
        else:
            # Leaf blocks always execute at hotspot depth >= 1 (the gate
            # requires hot leaves); only the mid body depends on the
            # surrounding depth.
            stats.instructions_in_hotspots += batch * (
                plan.unit_insns - plan.mid_insns
            )

        # ---- leaf invocations/returns, closed form ----
        leaves = plan.leaves
        if leaves:
            profiles = self._profiles
            hotspots = self._hotspots
            decay = (1.0 - MethodProfile.ALPHA) ** batch
            for _method, name, insns, _track in leaves:
                profile = profiles[name]
                profile.invocations += batch
                profile.completed_invocations += batch
                x = float(insns)
                mean = profile.mean_size
                if mean != x:
                    profile.mean_size = x + (mean - x) * decay
                info = hotspots[name]
                info.invocations_since_hot += batch
                info.instructions_inside += batch * insns
            l1i = hierarchy.l1i
            l1i.method_switches += batch * len(leaves)
            resident = l1i._resident
            for _method, name, _insns, _track in leaves:
                resident[name] = resident.pop(name)
            telemetry = self.telemetry
            if telemetry.enabled:
                emit = telemetry.emit
                unit = plan.unit_insns
                mid_insns = plan.mid_insns
                for i in range(batch):
                    ts = start_insns + i * unit + mid_insns
                    for _method, name, insns, track in leaves:
                        if insns > 0:
                            emit(
                                HOTSPOT_INVOKE,
                                ts=ts,
                                track=track,
                                dur=insns,
                            )
                        ts += insns

        # ---- sampler ----
        sampler = self.sampler
        now_cycles = machine.cycles
        if now_cycles >= sampler._next_sample_at:
            sampler.advance(now_cycles, plan.method_name)

    # -- batch entry of the fused runner ------------------------------------

    def _batch_step(
        self, thread, activation, dec, now_insns, now_cycles,
        max_instructions, in_hotspot,
    ):
        """Batch the self-loop block ``dec`` if it is ready; see
        :meth:`FastVirtualMachine._run_fused`, which calls this at the top
        of its tight loop in single-threaded, GC-free runs without a
        per-block hook.

        ``now_insns``/``now_cycles`` are the runner's unflushed counters.
        Returns None when no batch ran (the runner continues scalar with
        ``dec``).  Otherwise the counters have been flushed and advanced,
        and the return value is the block to continue at: ``dec`` after a
        partial batch (the next iteration runs scalar off the Mersenne
        stream and re-checks the trigger when it loops back), or
        ``dec.fallthrough_dec`` after the loop's whole activation.
        Scalar execution — including every RNG draw from the thread's
        Mersenne stream — is byte-for-byte the fast kernel's.
        """
        dec_id = id(dec)
        turbo_plans = self._turbo_plans
        plan = turbo_plans.get(dec_id)
        if plan is None:
            plan = self._compile_turbo_plan(dec) or False
            turbo_plans[dec_id] = plan
        if plan is False:
            return None
        loop_states = activation.loop_states
        state = loop_states.get(dec.bid, _SENTINEL)
        if state is _SENTINEL:
            # Pre-arm: draw the trip count now instead of at the end of
            # the first body.  Within the turbo run this is behaviour-
            # preserving (the scalar decider path finds the armed state);
            # only the Mersenne draw *position* moves, which turbo's
            # contract allows.
            state = dec.decider.initial_state(thread.decider_rng)
            loop_states[dec.bid] = state
        if type(state) is not int or state < MIN_BATCH:
            return None
        cap = (max_instructions - now_insns - 1) // plan.unit_insns
        nbatch = min(state, cap, TABLE_ROWS)
        if nbatch < MIN_BATCH or not self._turbo_leaves_ready(plan):
            return None
        full = nbatch == state
        machine = self.machine
        machine.instructions = now_insns
        machine.cycles = now_cycles
        self._execute_batch(
            thread, activation, dec, plan, nbatch, full, in_hotspot
        )
        if full:
            # The whole activation ran: re-arm the decider (the not-taken
            # decide consumes its Mersenne draw here) and continue at the
            # fallthrough block.  The batch cap guarantees the budget is
            # not yet exhausted.
            _t, loop_states[dec.bid] = dec.decider.decide(
                1, thread.decider_rng
            )
            return dec.fallthrough_dec
        loop_states[dec.bid] = state - nbatch
        return dec
