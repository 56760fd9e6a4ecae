"""In-process tracing for the benchmark's traced passes.

The traced passes run every cell in the benchmark's own process, on an
in-process pool that the engine treats as parallel, so the engine's
chunk path runs as in a real ``jobs=N`` run while every layer call stays
visible.  :func:`install` wraps the layer entry points in spans; a
layer's self time is its spans' duration minus the time their child
spans cover.  The profiled pass groups ``cProfile`` self time by module
into the simulator's layers.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict
from typing import Dict, List


class Tracer:
    """Spans kept in memory: per-name self time, count and tags."""

    def __init__(self) -> None:
        self.enabled = True
        self.self_s: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        #: Per-name sums of numeric tags (bytes written, hits, ...).
        self.sums: Dict[str, float] = defaultdict(float)
        #: Child time accumulated by each open span, innermost last.
        self._stack: List[float] = []

    @contextlib.contextmanager
    def span(self, name: str, **tags):
        if not self.enabled:
            yield tags
            return
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield tags
        finally:
            duration = time.perf_counter() - start
            children = self._stack.pop()
            if self._stack:
                self._stack[-1] += duration
            self.self_s[name] += duration - children
            self.count[name] += 1
            for key, value in tags.items():
                if isinstance(value, (int, float)):
                    self.sums[f"{name}.{key}"] += value

    @contextlib.contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, owner, attribute: str, name, after=None) -> None:
        """Replace ``owner.attribute`` by a traced call.

        ``name`` is the span name, or a function of the call's
        arguments returning it; ``after(tags, args, result)`` may add
        numeric tags once the call returned.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            with tracer.span(span_name) as tags:
                result = original(*args, **kwargs)
                if after is not None:
                    after(tags, args, result)
                return result

        setattr(owner, attribute, traced)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        layers = {
            name: {"self_s": self.self_s[name], "n": self.count[name]}
            for name in self.self_s
        }
        for key, value in self.sums.items():
            name, _, tag = key.rpartition(".")
            layers.setdefault(name, {"self_s": 0.0, "n": 0})[tag] = value
        return layers


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of the program in spans."""
    from repro.sim import driver
    from repro.sim.config import ExperimentConfig
    from repro.sim.pools import worker
    from repro.sim.store import ResultStore
    from repro.workloads import specjvm

    for module in (specjvm, driver):
        tracer.wrap(module, "build_benchmark", "workloads.build")
    tracer.wrap(ExperimentConfig, "fingerprint", "sim.config.fingerprint")

    def on_execute(tags, args, result):
        tags["instructions"] = result.instructions

    def execute_span(args):
        return f"sim.driver.execute:{args[0].scheme}"

    # Every engine path (serial and pooled) executes cells through the
    # worker module's ``run_with_alarm``.
    tracer.wrap(worker, "execute", execute_span, on_execute)

    def on_get(tags, args, result):
        tags["hits"] = int(result is not None)

    tracer.wrap(ResultStore, "get", "sim.store.get", on_get)
    put_many = ResultStore.put_many

    def traced_put_many(store, entries):
        with tracer.span("sim.store.put") as tags:
            paths = put_many(store, entries)
            tags["entries"] = len(paths)
        if tracer.enabled:
            # Sizes are read after the span: stat costs no put time.
            tracer.sums["sim.store.put.bytes"] += sum(
                os.path.getsize(path) for path in paths
            )
        return paths

    ResultStore.put_many = traced_put_many


def trace_pool(tracer: Tracer, pool) -> None:
    """Trace one pool instance's ``start`` and ``submit_chunk``."""
    tracer.wrap(pool, "start", "sim.pools.start")
    tracer.wrap(pool, "submit_chunk", "sim.pools.submit")


def inline_pool(workers: int):
    """A pool that runs chunks inline but reports ``workers`` parallel
    slots, so the engine plans and submits chunks as with ``local:N``."""
    from repro.sim.pools import PoolCapabilities, SerialPool

    class InlinePool(SerialPool):
        name = "inline"
        capabilities = PoolCapabilities(
            parallel=True, rebuild=False, remote=False, warm_start=False
        )

    pool = InlinePool()
    pool.workers = workers
    return pool


#: Profile groups, matched in order against a function's file name.
_GROUPS = (
    ("<blockjit:", "vm.blockjit"),
    ("/repro/vm/blockjit.py", "vm.blockjit"),
    ("/repro/vm/turbovm.py", "vm.turbovm"),
    ("/repro/vm/", "vm"),
    ("/repro/uarch/", "uarch"),
    ("/repro/core/", "policy"),
    ("/repro/phases/", "policy"),
    ("/repro/energy/", "energy"),
)
PROFILE_GROUPS = (
    "vm", "vm.blockjit", "vm.turbovm", "rng", "uarch", "policy", "energy",
    "other",
)


def _group(function) -> str:
    filename, _, name = function
    if filename == "~":
        if "_random.Random" in name or "numpy.random" in name:
            return "rng"
        return ""
    if os.path.basename(filename) == "random.py" and "/repro/" not in filename:
        return "rng"
    for marker, group in _GROUPS:
        if marker in filename:
            return group
    return "other"


def profile_groups(stats) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats``.

    A builtin other than the RNG has no module of its own, so its time
    goes to its callers' layers in proportion to what each caller spent
    in it.
    """
    groups = dict.fromkeys(PROFILE_GROUPS, 0.0)
    for function, (_, _, tottime, _, callers) in stats.stats.items():
        group = _group(function)
        if group:
            groups[group] += tottime
            continue
        caller_total = sum(entry[2] for entry in callers.values())
        if not caller_total:
            groups["other"] += tottime
            continue
        for caller, entry in callers.items():
            share = tottime * entry[2] / caller_total
            groups[_group(caller) or "other"] += share
    return groups
