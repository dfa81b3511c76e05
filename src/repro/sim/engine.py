"""Discrete-event simulation engine.

This is the substrate every other subsystem runs on.  The paper's
evaluation ran on Facebook's production fleet; we reproduce the control
plane's behaviour on a simulated clock instead (see DESIGN.md,
"Substitutions").

The engine is a heap-scheduled event loop:

* :class:`Engine` owns the clock and the one pending-event heap.  A
  ``delay == 0.0`` event (a wake-up, a same-tick completion) is pushed on
  it with the ``(now, seq)`` any other event would get.
* ``call_at`` / ``call_after`` schedule plain callbacks and return the
  scheduled event itself.  There is no cancel: a scheduled event always
  runs, unless its guard drops it, and a callback with nothing left to
  do returns.  Both accept an optional ``arg`` so hot paths can schedule
  ``callback(arg)`` without allocating a closure, and ``call_at`` an
  optional ``guard`` for callbacks that usually have nothing left to do
  by the time they are due (timeouts): a guarded event costs no heap
  operation unless its guard still holds shortly before its deadline.
* :class:`Process` wraps a generator so sequential simulation code can be
  written in direct style, yielding a :class:`Delay`, another
  :class:`Process` to join, or an RPC in flight
  (:class:`repro.sim.network.RpcCall`) — anything else with an
  ``on_done`` method would do, but nothing else exists.

Determinism: every event, guarded or not, is stamped with a monotonically
increasing sequence number from one shared counter when it is scheduled,
and the run loop always executes the globally smallest ``(time, seq)``
pair next.  Two runs with the same seed therefore produce identical event
orders, and the guard buckets are purely an optimisation: callbacks that
have an effect run in the order an engine pushing every event through the
heap at once would run them (see DESIGN.md, "Determinism contract").

An event is its own heap entry: the list ``[time, seq, callback, arg]``,
ordered by C-level float/int comparison of its first two slots; ``seq``
is unique, so callbacks are never compared.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

_NO_ARG = object()  # sentinel: "callback takes no argument"

# Width, in simulated seconds, of the buckets guarded events wait in.  A
# power of two, so the bucket arithmetic in ``call_at`` is exact.
_GUARD_BUCKET = 0.25

#: Every ``ENGINE_SAMPLE``-th engine dispatch gets an instant plus a
#: queue-depth counter sample, which keeps engine tracks readable and the
#: journal bounded at figure scale.
ENGINE_SAMPLE = 64


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling in the past)."""


def _push_now(engine: "Engine", callback: Callable[..., None],
              arg: Any) -> list:
    """Push a zero-delay event.  A function, not a method, and called by
    ``call_after`` and ``_schedule_immediate`` directly: a tool that wraps
    the scheduling methods to count events then sees each event once."""
    event = [engine.now, next(engine._seq), callback, arg]
    heappush(engine._heap, event)
    return event


class Engine:
    """Heap-based discrete-event scheduler with a simulated clock."""

    def __init__(self) -> None:
        #: Current simulated time in seconds.  Written only by :meth:`run`.
        self.now = 0.0
        self._heap: list[list] = []
        # flush time -> [(guard, event)]: guarded events not yet on the heap.
        self._parked: dict[float, list[tuple[Callable[[], Any], list]]] = {}
        # Latest deadline of a guarded event dropped unfired.  The no-op it
        # had become would still have advanced the clock of a run that
        # drains the queue, so such a run ends no earlier than this.
        self._dropped_until = 0.0
        self._seq = itertools.count()
        self._running = False
        self._processed = 0
        # Observability: None leaves run() with one int compare per
        # event that never matches; set via set_tracer().
        self._trace = None
        self._trace_sample = ENGINE_SAMPLE

    def set_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer` for dispatch sampling.

        Every ``ENGINE_SAMPLE``-th executed event records an instant (the
        callback's qualified name) plus a queue-depth counter sample on
        the ``engine`` track.  Passing a disabled tracer (or ``None``)
        detaches.
        """
        if tracer is None or not tracer.enabled:
            self._trace = None
            return
        self._trace = tracer
        tracer.bind_clock(self)

    @property
    def processed_events(self) -> int:
        """Number of callbacks executed so far (for instrumentation)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Scheduled-but-not-yet-fired callbacks: the heap plus every
        parked bucket.  A guarded event counts from the moment it is
        scheduled, parked or not, until it runs or is dropped because its
        guard no longer held.
        """
        return len(self._heap) + sum(map(len, self._parked.values()))

    def call_at(self, when: float, callback: Callable[..., None],
                arg: Any = _NO_ARG,
                guard: Optional[Callable[[], Any]] = None) -> list:
        """Schedule ``callback`` at absolute simulated time ``when``.

        With ``arg``, the callback is invoked as ``callback(arg)`` — the
        zero-allocation alternative to ``lambda: callback(value)``.

        With ``guard``, the caller promises that once ``guard()`` has
        returned false it stays false and ``callback`` has nothing left to
        do.  The event takes its ``(time, seq)`` position now, exactly as
        an unguarded one would, but waits outside the heap; one flush per
        bucket of deadlines, at least one bucket width ahead of them,
        pushes the events whose guard still holds (with the ``seq`` they
        reserved) and drops the rest.  Every callback that has an effect
        therefore runs in the same total order as without the guard.
        """
        now = self.now
        if not when >= now:  # also rejects nan
            raise SimulationError(
                f"cannot schedule at t={when:.6f}, current time is {now:.6f}"
            )
        event = [when, next(self._seq), callback, arg]
        if guard is not None:
            flush_at = (when // _GUARD_BUCKET - 1.0) * _GUARD_BUCKET
            # False when that flush is already in the past, and for an
            # infinite deadline (nan): those go to the heap like any other.
            if flush_at >= now:
                bucket = self._parked.get(flush_at)
                if bucket is None:
                    bucket = self._parked[flush_at] = []
                    self.call_at(flush_at, self._flush_guarded, flush_at)
                bucket.append((guard, event))
                return event
        heappush(self._heap, event)
        return event

    def _flush_guarded(self, flush_at: float) -> None:
        """Move one bucket's still-guarded events onto the heap."""
        heap = self._heap
        dropped_until = self._dropped_until
        for guard, event in self._parked.pop(flush_at):
            if guard():
                heappush(heap, event)
            elif event[0] > dropped_until:
                dropped_until = event[0]
        self._dropped_until = dropped_until

    def call_after(self, delay: float, callback: Callable[..., None],
                   arg: Any = _NO_ARG) -> list:
        """Schedule ``callback`` after ``delay`` seconds (``arg`` as for
        :meth:`call_at`; a guarded event is scheduled with ``call_at``)."""
        if delay == 0.0:
            return _push_now(self, callback, arg)
        if not delay > 0:  # also rejects nan
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        return self.call_at(self.now + delay, callback, arg)

    def _schedule_immediate(self, callback: Callable[..., None],
                            arg: Any = _NO_ARG) -> None:
        """Same-tick scheduling of a waiter's wake-up (``on_done``)."""
        _push_now(self, callback, arg)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the simulated time when the run stopped.  When ``until`` is
        given, the clock is advanced to exactly ``until`` even if the last
        event fired earlier (so repeated ``run(until=...)`` calls tile time),
        unless ``max_events`` cut the run first: then it stays at the last
        executed event, so the events still due by ``until`` never run on
        a clock that went backwards.

        With a tracer attached (see :meth:`set_tracer`) every
        ``ENGINE_SAMPLE``-th event executed by this call is sampled.
        Sampling is pure observation: event selection, clock updates and
        callback invocation do not depend on it, so seeded runs stay
        bit-identical with tracing on or off.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        executed = 0
        heap = self._heap
        no_arg = _NO_ARG
        stop_after = float("inf") if until is None else until
        limit = float("inf") if max_events is None else max_events
        trace = self._trace
        sample = self._trace_sample
        # `executed` counts up from 0, so -1 never matches: the untraced
        # cost is the one int compare below.
        next_sample = 0 if trace is not None else -1
        try:
            while heap:
                # Popped first and put back on the rare exit, which saves
                # a peek per event.
                event = heappop(heap)
                when = event[0]
                if when > stop_after or executed >= limit:
                    heappush(heap, event)
                    if when <= stop_after:
                        until = None  # cut by max_events: the clock stays
                    break
                self.now = when
                callback = event[2]
                if executed == next_sample:
                    next_sample += sample
                    name = (getattr(callback, "__qualname__", None)
                            or type(callback).__name__)
                    trace.instant("engine", name, when)
                    trace.counter("engine", "pending_events",
                                  self.pending_events, when)
                arg = event[3]
                if arg is no_arg:
                    callback()
                else:
                    callback(arg)
                executed += 1
        finally:
            self._running = False
            self._processed += executed
        if until is not None:
            if self.now < until:
                self.now = until
        elif not heap and self.now < self._dropped_until:
            self.now = self._dropped_until  # drained: see __init__
        return self.now

    def process(self, generator: Generator[Any, Any, Any], name: str = "") -> "Process":
        """Start a generator-based process immediately."""
        proc = Process(self, generator, name=name)
        proc._step(None)
        return proc


class Delay:
    """Yielded by a process to sleep for ``seconds`` of simulated time."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        if not seconds >= 0:  # also rejects nan
            raise SimulationError(f"delay must be >= 0, got {seconds!r}")
        self.seconds = seconds


class Process:
    """A generator-driven simulated activity.

    The generator may yield:

    * ``Delay(seconds)`` — resume after the delay, receiving ``None``;
    * another ``Process`` — resume when it finishes, receiving its result;
    * an ``RpcCall`` — resume when it settles, receiving its ``RpcResult``.

    The generator's return value becomes :attr:`result`.
    """

    __slots__ = ("engine", "name", "_generator", "finished", "result",
                 "_waiters")

    def __init__(self, engine: Engine, generator: Generator[Any, Any, Any], name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._generator = generator
        self.finished = False
        self.result: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    def on_done(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(result)`` once the process has finished, as its
        own same-tick event after the one that finished it (so finishing
        inside another process is safe); subscribers run in subscription
        order.  On a finished process the event is scheduled at once."""
        if self.finished:
            self.engine._schedule_immediate(callback, self.result)
        else:
            self._waiters.append(callback)

    def _step(self, value: Any) -> None:
        if self.finished:
            return
        try:
            yielded = self._generator.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException:  # surface process crashes loudly
            self._finish(result=None)
            raise
        if isinstance(yielded, Delay):
            self.engine.call_after(yielded.seconds, self._step, None)
            return
        try:
            subscribe = yielded.on_done  # a Process or an RpcCall
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            ) from None
        subscribe(self._step)

    def _finish(self, result: Any) -> None:
        self.finished = True
        self.result = result
        waiters, self._waiters = self._waiters, []
        schedule = self.engine._schedule_immediate
        for waiter in waiters:
            schedule(waiter, result)


def every(engine: Engine, interval: float,
          callback: Callable[[], None]) -> Callable[[], None]:
    """Run ``callback`` every ``interval`` seconds until the returned
    stopper is invoked."""
    if interval <= 0:
        raise SimulationError(f"interval must be positive, got {interval!r}")
    stopped = False

    def _tick() -> None:
        if stopped:
            return
        callback()
        engine.call_after(interval, _tick)

    engine.call_after(interval, _tick)

    def _stop() -> None:
        nonlocal stopped
        stopped = True

    return _stop
