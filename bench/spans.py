"""Host-time spans recorded from outside ``src/``.

The traced pass wraps the public calls that cross a layer boundary and
the public scheduling entry points of the engine, so that every stretch
of host time inside the measured region belongs to a named layer:

* a **call span** around each wrapped cross-layer call (``CALLS`` below);
* a **callback span** around each callback scheduled through
  ``Engine.call_at`` / ``Engine.call_after``, owned by the layer whose
  module defines the callback (a resumed generator process is owned by
  the module that wrote the generator);
* handlers registered through ``Endpoint.on`` are wrapped where they are
  registered, so an RPC's handling belongs to the handler's module, not
  to the network that delivered it.

A span is ``(name, start, end, parent)`` in four parallel arrays, kept
in memory and written only on request.  A layer's ``busy_s`` is the sum
of its spans' self times (duration minus the children's durations);
whatever runs inside ``Engine.run`` under no other span is the engine's
own self time.

Wrappers are installed on the classes before the workload is built (bound
methods captured during set-up must already be the wrapped ones) and
record only while ``recording`` is true.  They draw no random number and
schedule nothing, so a traced run's simulated results equal an untraced
run's; the benchmark checks that on every traced unit.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: module prefix (longest match wins) -> layer.  A callback whose module
#: matches nothing here belongs to ``bench`` (the scenario driver, the
#: benchmark's own lambdas, application handlers defined outside src/).
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.fluid", "sim.fluid"),
    ("repro.sim.failures", "cluster.twine"),
    ("repro.discovery.router", "discovery.router"),
    ("repro.discovery.service_discovery", "discovery.service_discovery"),
    ("repro.app.client", "app.client"),
    ("repro.app.scatter", "app.scatter"),
    ("repro.app.fluid", "app.fluid"),
    ("repro.app", "app.server"),
    ("repro.apps", "app.server"),
    ("repro.core.shard_map", "core.shard_map"),
    ("repro.core.allocator", "core.allocator"),
    ("repro.core.migration", "core.migration"),
    ("repro.core.mini_sm", "core.mini_sm"),
    ("repro.core", "core.orchestrator"),
    ("repro.coordination", "coordination.zookeeper"),
    ("repro.cluster", "cluster.twine"),
    ("repro.solver", "solver"),
    ("repro.obs", "obs"),
    ("repro.metrics", "app.client"),
)

#: (module, class, method, layer): the public cross-layer calls wrapped.
CALLS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "Engine", "run", "sim.engine"),
    ("repro.sim.network", "Network", "rpc", "sim.network"),
    ("repro.discovery.router", "ServiceRouter", "start_request",
     "discovery.router"),
    ("repro.discovery.router", "ServiceRouter", "route_for",
     "discovery.router"),
    ("repro.discovery.router", "ServiceRouter", "on_map_update",
     "discovery.router"),
    ("repro.discovery.service_discovery", "ServiceDiscovery", "publish",
     "discovery.service_discovery"),
    ("repro.discovery.service_discovery", "Subscription", "deliver",
     "discovery.service_discovery"),
    ("repro.core.shard_map", "AssignmentTable", "snapshot_delta",
     "core.shard_map"),
    ("repro.core.shard_map", "ShardMap", "apply_delta", "core.shard_map"),
    ("repro.core.allocator", "Allocator", "emergency_plan",
     "core.allocator"),
    ("repro.core.allocator", "Allocator", "periodic_plan",
     "core.allocator"),
    ("repro.core.mini_sm", "Frontend", "route", "core.mini_sm"),
    ("repro.core.mini_sm", "PartitionRegistry", "assign", "core.mini_sm"),
    ("repro.solver.api", "Rebalancer", "solve", "solver"),
    ("repro.coordination.zookeeper", "ZooKeeper", "create",
     "coordination.zookeeper"),
    ("repro.coordination.zookeeper", "ZooKeeper", "set",
     "coordination.zookeeper"),
    ("repro.coordination.zookeeper", "ZooKeeper", "delete",
     "coordination.zookeeper"),
    ("repro.cluster.twine", "Twine", "submit_op", "cluster.twine"),
    ("repro.app.fluid", "FluidClient", "advance", "app.fluid"),
    ("repro.app.fluid", "FluidServer", "offer", "sim.fluid"),
    ("repro.obs.tracer", "Tracer", "begin", "obs"),
    ("repro.obs.tracer", "Tracer", "end", "obs"),
    ("repro.obs.tracer", "Tracer", "instant", "obs"),
    ("repro.obs.tracer", "Tracer", "counter", "obs"),
    ("repro.obs.checker", "TraceChecker", "check", "obs"),
    ("repro.obs.tracer", "Journal", "digest", "obs"),
)

_ENGINE_RUN = "Engine.run"


def layer_of_module(module: Optional[str]) -> str:
    best = ""
    layer = "bench"
    for prefix, name in LAYER_OF_MODULE:
        if module and (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best, layer = prefix, name
    return layer


class SpanRecorder:
    """Columnar in-memory span store; the wrappers below append to it."""

    def __init__(self) -> None:
        self.recording = False
        self.names: List[str] = []       # "layer|label"
        self._name_id: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.scheduled = 0               # call_at/call_after calls seen

    def name_id(self, layer: str, label: str) -> int:
        key = f"{layer}|{label}"
        found = self._name_id.get(key)
        if found is None:
            found = len(self.names)
            self._name_id[key] = found
            self.names.append(key)
        return found

    # -- analysis ------------------------------------------------------------

    def nesting_errors(self) -> int:
        """Spans that are unclosed, inverted, or leak outside their parent."""
        errors = 0
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(start)):
            if end[i] < start[i]:
                errors += 1
                continue
            p = parent[i]
            if p >= 0 and (p >= i or start[i] < start[p] or end[i] > end[p]):
                errors += 1
        return errors

    def summarize(self) -> Dict[str, object]:
        """Self time and call count per span name and per layer."""
        start, end, parent, name = self.start, self.end, self.parent, self.name
        n = len(start)
        self_time = [0.0] * n
        for i in range(n):
            duration = end[i] - start[i]
            self_time[i] += duration
            p = parent[i]
            if p >= 0:
                self_time[p] -= duration
        by_name_self = [0.0] * len(self.names)
        by_name_count = [0] * len(self.names)
        by_name_total = [0.0] * len(self.names)
        top_level = 0.0
        for i in range(n):
            k = name[i]
            by_name_self[k] += self_time[i]
            by_name_count[k] += 1
            by_name_total[k] += end[i] - start[i]
            if parent[i] < 0:
                top_level += end[i] - start[i]
        busy: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        self_by_label: Dict[str, float] = {}
        engine_self = engine_total = 0.0
        for k, key in enumerate(self.names):
            layer, label = key.split("|", 1)
            calls[label] = calls.get(label, 0) + by_name_count[k]
            self_by_label[label] = (self_by_label.get(label, 0.0)
                                    + by_name_self[k])
            if label == _ENGINE_RUN:
                engine_self += by_name_self[k]
                engine_total += by_name_total[k]
            else:
                busy[layer] = busy.get(layer, 0.0) + by_name_self[k]
        return {
            "spans": n,
            "nesting_errors": self.nesting_errors(),
            "busy_s": busy,
            "calls": calls,
            "self_by_label": self_by_label,
            "engine_self_s": engine_self,
            "engine_run_s": engine_total,
            "top_level_s": top_level,
            "scheduled": self.scheduled,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"names": self.names, "name": list(self.name),
                       "parent": list(self.parent),
                       "start": list(self.start), "end": list(self.end)},
                      handle)


def _span_wrapper_factory(rec: SpanRecorder) -> Callable:
    """``wrap(function, name_id)`` returns ``function`` inside a span.

    The recorder's columns are bound once here, not reached through
    method calls: the wrapped path runs a million times per traced unit,
    and a wrapper is built for every scheduled callback."""
    stack = rec._stack
    name_append, parent_append = rec.name.append, rec.parent.append
    start_append, end_append = rec.start.append, rec.end.append
    starts, ends = rec.start, rec.end
    clock = time.perf_counter

    def wrap(function: Callable, name_id: int) -> Callable:
        def traced(*args, **kwargs):
            if not rec.recording:
                return function(*args, **kwargs)
            started = clock()    # first and last: the wrapper's own cost
            index = len(starts)  # belongs to the span, not to its parent
            start_append(started)
            name_append(name_id)
            parent_append(stack[-1] if stack else -1)
            end_append(0.0)
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                ends[index] = clock()

        return traced

    return wrap


def install(rec: SpanRecorder) -> None:
    """Patch the wrappers onto the classes in ``src/`` for the life of
    this process (a traced unit is its own interpreter)."""
    import importlib

    from repro.sim.engine import Engine, Process
    from repro.sim.network import Endpoint

    wrap = _span_wrapper_factory(rec)
    for module_name, class_name, method, layer in CALLS:
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__[method]
        traced = wrap(original, rec.name_id(layer, f"{class_name}.{method}"))
        traced.__name__ = original.__name__
        traced.__qualname__ = original.__qualname__
        traced.__doc__ = original.__doc__
        setattr(cls, method, traced)

    layer_cache: Dict[Optional[str], str] = {}

    def owner_layer(callback: Callable) -> str:
        owner = getattr(callback, "__self__", None)
        if type(owner) is Process:
            # A process step resumes a generator: the work belongs to the
            # module that wrote it, not to the engine's Process class.
            frame = owner._generator.gi_frame
            module = (frame.f_globals.get("__name__") if frame is not None
                      else None)
        else:
            module = getattr(callback, "__module__", None)
            if module is None:
                module = type(callback).__module__
        layer = layer_cache.get(module)
        if layer is None:
            layer = layer_cache[module] = layer_of_module(module)
        return layer

    callback_ids: Dict[str, int] = {}
    # Engines whose own dispatch sampling is on journal the qualified name
    # of sampled callbacks; on those the wrapper must keep the name, or a
    # traced unit's journal digest would differ from an untraced one's.
    sampled_engines: set = set()

    def timed(engine, callback: Callable) -> Callable:
        layer = owner_layer(callback)
        name_id = callback_ids.get(layer)
        if name_id is None:
            name_id = callback_ids[layer] = rec.name_id(layer, "callback")
        run_timed = wrap(callback, name_id)
        if engine in sampled_engines:
            run_timed.__qualname__ = (getattr(callback, "__qualname__", None)
                                      or type(callback).__name__)
        return run_timed

    original_set_tracer = Engine.__dict__["set_tracer"]

    def set_tracer(self, tracer, *args, **kwargs):
        if tracer is not None and tracer.enabled:
            sampled_engines.add(self)
        else:
            sampled_engines.discard(self)
        return original_set_tracer(self, tracer, *args, **kwargs)

    Engine.set_tracer = set_tracer

    original_call_at = Engine.__dict__["call_at"]
    original_call_after = Engine.__dict__["call_after"]

    def call_at(self, when, callback, *arg, **kwarg):
        rec.scheduled += 1
        return original_call_at(self, when, timed(self, callback), *arg,
                                **kwarg)

    def call_after(self, delay, callback, *arg, **kwarg):
        # Engine.call_after hands every non-zero delay to self.call_at,
        # which is the wrapper above; only the zero-delay path queues the
        # callback itself.
        if delay == 0.0:
            rec.scheduled += 1
            callback = timed(self, callback)
        return original_call_after(self, delay, callback, *arg, **kwarg)

    Engine.call_at = call_at
    Engine.call_after = call_after

    # Signal.fire wakes its waiters through the engine's immediate queue,
    # not through call_at/call_after.  RPC completions, process joins and
    # request retries all arrive that way; without this wrapper, the one
    # private name touched here, a quarter of skew_scatter's engine time
    # has no owner.
    original_immediate = Engine.__dict__["_schedule_immediate"]

    def schedule_immediate(self, callback, *arg, **kwarg):
        rec.scheduled += 1
        return original_immediate(self, timed(self, callback), *arg, **kwarg)

    Engine._schedule_immediate = schedule_immediate

    original_on = Endpoint.__dict__["on"]

    def on(self, method, handler):
        name_id = rec.name_id(owner_layer(handler), f"rpc:{method}")
        return original_on(self, method, wrap(handler, name_id))

    Endpoint.on = on
