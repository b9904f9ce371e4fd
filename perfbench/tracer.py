"""In-memory span recorder for the traced benchmark run.

The traced run wraps each layer's public entry points from the outside
(:func:`install`): a wrapper opens a span, calls the original and closes
the span.  A span records its name, start, end, parent and the job (one
benchmark operation) it belongs to.  Per-cycle hooks (device callbacks)
would drown the trace in spans, so they only accumulate time and a call
count into counters, and that time is charged to the enclosing span as
child time.  Nothing is written until :meth:`Tracer.dump`.

Self time of a span is its duration minus the time its child spans and
hot-hook counters cover, so the per-layer numbers of nested layers
(``compile_model`` → ``generate_source`` → ``run_pipeline`` → passes) add
up instead of overlapping.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, job, child seconds, args]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.job = ""
        self._stack: List[int] = []
        self._hot_depth = 0

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str, args: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job,
                           0.0, args])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        while self._stack and self._stack[-1] != index:
            self._stack.pop()  # a wrapped call raised past inner spans
        if self._stack:
            self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def hot(self, seconds: float, time_key: str, count_key: str) -> None:
        """Charge one hot-hook call: counters only, child time to the
        enclosing span."""
        self.counts[time_key] += seconds
        self.counts[count_key] += 1
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    # -- reporting -----------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _job, child, _args in self.spans:
            totals[name] += max(0.0, (end - start) - child)
        return totals

    def inclusive_times(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, *_rest in self.spans:
            totals[name] += end - start
        return totals

    def under(self, name: str, ancestor: str) -> float:
        """Inclusive time of ``name`` spans that have an ``ancestor`` span."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    total += span[2] - span[1]
                    break
                parent = self.spans[parent][3]
        return total

    def dump(self) -> dict:
        """JSON-able spans (times relative to the first span) and counts."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "origin": origin,
            "spans": [[name, start - origin, end - origin, parent, job,
                       child, args]
                      for name, start, end, parent, job, child, args
                      in self.spans],
            "counts": dict(self.counts),
        }


def chrome_events(dump: dict, pid: int, label: str) -> List[dict]:
    """Chrome trace-event ``X`` (complete) events for one process dump."""
    events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
               "args": {"name": label}}]
    for name, start, end, parent, job, _child, args in dump["spans"]:
        event_args = {"job": job, "parent": parent}
        if args:
            event_args.update(args)
        events.append({"name": name, "ph": "X", "pid": pid, "tid": 0,
                       "ts": round(start * 1e6, 3),
                       "dur": round((end - start) * 1e6, 3),
                       "args": event_args})
    return events


def count_gc(tracer: Tracer) -> None:
    """Count the cyclic garbage collector's pauses.  They overlap the layer
    times: a pause is charged to whichever layer allocated past the
    collector's threshold."""
    import gc

    started = [0.0]

    def callback(phase: str, _info: dict) -> None:
        if phase == "start":
            started[0] = perf_counter()
        else:
            tracer.counts["process.gc_s"] += perf_counter() - started[0]
            tracer.counts["process.gc_collections"] += 1

    gc.callbacks.append(callback)


# ---------------------------------------------------------------------------
# Wrapping the layers' public entry points.
# ---------------------------------------------------------------------------

def wrap(tracer: Tracer, owner, attr: str, name: str,
         after: Optional[Callable] = None,
         args_of: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``after(result, args, kwargs)`` runs once the span has closed (to
    record counts); ``args_of(args, kwargs)`` gives the span's args."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name, args_of(args, kwargs) if args_of else None)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(result, args, kwargs)
        return result

    setattr(owner, attr, wrapper)


def wrap_hot(tracer: Tracer, owner, attr: str, time_key: str,
             count_key: str) -> None:
    """Counter-only wrapper for per-cycle hooks.  Re-entrant calls (a
    device subclass calling its base hook) are charged once."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if tracer._hot_depth:
            return original(*args, **kwargs)
        tracer._hot_depth += 1
        started = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            tracer._hot_depth -= 1
            tracer.hot(perf_counter() - started, time_key, count_key)

    setattr(owner, attr, wrapper)


def _cycles_wrapper(tracer: Tracer, cls, attr: str, name: str,
                    cycles_key: str) -> None:
    """Wrap a simulator's ``run``/``run_until`` and count cycles advanced."""
    original = getattr(cls, attr)

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        before = self.cycle
        index = tracer.begin(name, {"design": getattr(self, "DESIGN_NAME",
                                                      None)})
        try:
            return original(self, *args, **kwargs)
        finally:
            tracer.end(index)
            tracer.count(cycles_key, self.cycle - before)

    setattr(cls, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    from repro.analysis import dataflow
    from repro.cuttlesim import batch, codegen, passes
    from repro.cuttlesim.cache import ModelCache
    from repro.cuttlesim.model import BatchModelBase, ModelBase
    from repro.cuttlesim.passes import opt as passes_opt
    from repro.cuttlesim import ir
    from repro.designs.msi import CoherenceDriver
    from repro.designs.rv32.cache import CacheMemoryDevice
    from repro.designs.rv32.memory import RV32MemoryDevice
    from repro.designs.soc import SocDevice
    from repro.designs.uart import UartDriver
    from repro.harness import lockstep, parallel
    from repro.rtl import cycle_sim
    from repro.semantics.interp import Interpreter
    from repro.shard import runner

    # analysis
    def count_safe(result, args, kwargs):
        tracer.count("analysis.safe_registers", len(result.safe_registers))

    wrap(tracer, codegen, "analyze", "analysis.analyze", after=count_safe)
    wrap(tracer, passes_opt, "analyze", "analysis.analyze", after=count_safe)
    wrap(tracer, dataflow, "analyze_module", "analysis.dataflow")

    # cuttlesim.passes
    def count_stmts(module, args, kwargs):
        bodies = [rule.body for rule in module.rules] + \
            [fn.body for fn in module.fns]
        tracer.count("passes.ir_stmts",
                     sum(1 for body in bodies for _ in ir.walk_stmts(body)))

    wrap(tracer, passes, "lower_design", "passes.lower")
    for name, entry in passes.PASSES.items():
        if entry.fn is not None:
            wrap(tracer, entry, "fn", f"passes.{name}")
    wrap(tracer, codegen, "run_pipeline", "passes.pipeline", after=count_stmts)
    if hasattr(batch, "run_pipeline"):
        wrap(tracer, batch, "run_pipeline", "passes.pipeline",
             after=count_stmts)

    # cuttlesim.codegen
    def count_lines(result, args, kwargs):
        tracer.count("codegen.source_lines", result[0].count("\n") + 1)

    wrap(tracer, codegen, "generate_source", "codegen.generate_source",
         after=count_lines)
    wrap(tracer, codegen, "compile_model", "codegen.compile_model",
         args_of=lambda a, k: {"opt": k.get("opt", a[1] if len(a) > 1
                                            else 5)})

    # cuttlesim.cache
    wrap(tracer, ModelCache, "key_for", "cache.key")
    wrap(tracer, ModelCache, "lookup_class", "cache.lookup")
    wrap(tracer, ModelCache, "lookup_source", "cache.lookup")
    wrap(tracer, ModelCache, "store_source", "cache.store")
    wrap(tracer, ModelCache, "store_class", "cache.store")

    # cuttlesim.model
    wrap(tracer, ModelBase, "__init__", "model.construct")
    wrap(tracer, BatchModelBase, "__init__", "model.construct")
    for attr in ("run", "run_until"):
        _cycles_wrapper(tracer, ModelBase, attr, "model.run", "model.cycles")
    _cycles_wrapper(tracer, BatchModelBase, "run", "batch.run",
                    "batch.cycles")

    # cuttlesim.batch
    wrap(tracer, batch, "compile_batch_model", "batch.compile")

    # harness.env: device hooks
    for device in (RV32MemoryDevice, CacheMemoryDevice, SocDevice,
                   UartDriver, CoherenceDriver):
        for attr in ("before_cycle", "after_cycle"):
            if attr in vars(device):
                wrap_hot(tracer, device, attr, "env.device_s",
                         "env.device_calls")

    # rtl
    def count_nodes(netlist, args, kwargs):
        tracer.count("rtl.netlist_nodes", netlist.stats()["total"])

    wrap(tracer, cycle_sim, "lower_design", "rtl.lower", after=count_nodes)
    wrap(tracer, cycle_sim, "compile_cycle_sim", "rtl.build")
    for attr in ("run", "run_until"):
        _cycles_wrapper(tracer, cycle_sim.RtlSimBase, attr, "rtl.run",
                        "rtl.cycles")

    # shard
    wrap(tracer, runner, "partition_design", "shard.partition")
    wrap(tracer, runner.ShardedSimulator, "__init__", "shard.construct")
    for attr in ("run", "run_until"):
        _cycles_wrapper(tracer, runner.ShardedSimulator, attr, "shard.run",
                        "shard.cycles")

    # harness.parallel
    wrap(tracer, parallel, "run_fleet", "fleet.run")
    wrap(tracer, lockstep, "run_fleet", "fleet.run")

    # semantics.interp (reference checks only)
    for attr in ("run", "run_until"):
        _cycles_wrapper(tracer, Interpreter, attr, "interp.run",
                        "interp.cycles")
