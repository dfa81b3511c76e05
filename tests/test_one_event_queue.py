"""One pending-event heap against the two-queue engine it replaced.

Until this test was written ``Engine`` kept zero-delay events in a FIFO
deque beside the heap and merged the two in its run loop by ``(time,
seq)``.  The deque was a cheaper container, not a different order, so the
engine now pushes a zero-delay event on the heap with the ``(now, seq)``
it takes anyway.  ``TwoQueueEngine`` below is the old engine, kept as the
oracle: the same program must take the same ``seq`` for every event, run
the same callbacks at the same instants in the same order, and stop with
the same clock and ``pending_events`` — drained, tiled by
``run(until=...)`` or cut by ``run(max_events=...)`` — however it mixes
zero and non-zero delays, wake-ups through ``_schedule_immediate``,
guarded events, callbacks that schedule more, and processes that join
each other.

Instants and delays come from a few multiples of 1/8 s so that exact
ties between heap events and zero-delay events are the rule.

Mutation check (each applied alone to ``_push_now`` in
``repro/sim/engine.py``; every one fails
``test_same_events_in_the_same_order`` within its budget and the fixed
case named after it):

* push with a later ``seq`` (``next(engine._seq) + 2`` in the event
  list): a zero-delay event runs after a same-instant event scheduled
  after it (``test_zero_delay_keeps_its_place_among_ties``);
* push at a later instant (``engine.now + 1e-9`` in the event list): it
  runs after same-instant heap events scheduled after it
  (``test_zero_delay_keeps_its_place_among_ties``).

``Engine.pending_events`` is derived from the queues (the heap plus the
parked buckets); the oracle keeps the incremental count the engine once
kept — +1 per schedule, -1 per run, -n per guarded drop — and the two
must agree after every ``run``.  Leaving the parked buckets out of the
derived count fails ``test_same_events_in_the_same_order``.
"""

from collections import deque
from heapq import heappop, heappush

from hypothesis import given, settings, strategies as st

from repro.sim.engine import _NO_ARG, Delay, Engine, SimulationError


class TwoQueueEngine(Engine):
    """The engine as it was: an immediate-event deque beside the heap and
    a pending-event counter.  Its events are the ``[time, seq, callback,
    arg]`` lists the heap holds."""

    def __init__(self) -> None:
        super().__init__()
        self._immediate = deque()
        self._pending = 0

    @property
    def pending_events(self) -> int:
        return self._pending

    def call_at(self, when, callback, arg=_NO_ARG, guard=None):
        event = super().call_at(when, callback, arg, guard)
        self._pending += 1
        return event

    def _flush_guarded(self, flush_at):
        parked = len(self._parked[flush_at])
        on_heap = len(self._heap)
        super()._flush_guarded(flush_at)
        self._pending -= parked - (len(self._heap) - on_heap)

    def call_after(self, delay, callback, arg=_NO_ARG):
        if delay == 0.0:
            event = [self.now, next(self._seq), callback, arg]
            self._immediate.append(event)
            self._pending += 1
            return event
        return super().call_after(delay, callback, arg)

    def _schedule_immediate(self, callback, arg=_NO_ARG):
        self._immediate.append([self.now, next(self._seq), callback, arg])
        self._pending += 1

    def run(self, until=None, max_events=None):
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        executed = 0
        heap = self._heap
        immediate = self._immediate
        stop_after = float("inf") if until is None else until
        limit = float("inf") if max_events is None else max_events
        try:
            while True:
                if not immediate:
                    if not heap:
                        break
                    event = heappop(heap)
                    if event[0] > stop_after or executed >= limit:
                        heappush(heap, event)
                        break
                else:
                    # The deque is FIFO with increasing seq, so only its
                    # head competes with the heap head.
                    event = immediate[0]
                    from_heap = False
                    if heap:
                        head = heap[0]
                        if head[0] < event[0] or (head[0] == event[0]
                                                  and head[1] < event[1]):
                            event = head
                            from_heap = True
                    if event[0] > stop_after or executed >= limit:
                        break
                    if from_heap:
                        heappop(heap)
                    else:
                        immediate.popleft()
                self.now = event[0]
                self._pending -= 1
                callback = event[2]
                if event[3] is _NO_ARG:
                    callback()
                else:
                    callback(event[3])
                executed += 1
        finally:
            self._running = False
            self._processed += executed
        if until is not None:
            if self.now < until:
                self.now = until
        elif not heap and not immediate and self.now < self._dropped_until:
            self.now = self._dropped_until
        return self.now


times = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])
#: Half of all delays are zero: that is the path under test.
delays = st.sampled_from([0.0, 0.0, 0.0, 0.125, 0.25, 0.875])

#: Every item is scheduled from a callback at ``at``, so zero-delay, heap
#: and guarded events take their seq in any interleaving.
plain_items = st.tuples(st.just("plain"), times, delays)
wake_items = st.tuples(st.just("wake"), times)  # _schedule_immediate
guarded_items = st.tuples(st.just("guarded"), times, delays,
                          st.one_of(st.none(), times))  # guard dies at
#: A callback that schedules ``fanout`` children, each of which schedules
#: one more, ``depth`` deep, every hop after ``delay``.
chain_items = st.tuples(st.just("chain"), times, delays,
                        st.integers(1, 3), st.integers(1, 3))
#: A process that sleeps, then joins a second one (finished by then, or
#: not) and is itself subscribed to.
process_items = st.tuples(st.just("process"), times, delays, delays)
programs = st.lists(
    st.one_of(plain_items, plain_items, wake_items, guarded_items,
              chain_items, process_items),
    min_size=1, max_size=10)
drivers = st.one_of(
    st.just(("drain",)),
    st.tuples(st.just("tile"), st.sampled_from([0.125, 0.3, 1.0])),
    st.tuples(st.just("max_events"), st.integers(1, 5)),
)


def _load(program, engine):
    """Schedule ``program`` on ``engine``; returns the log it will fill:
    every event's ``(time, seq)`` as it is scheduled (where the engine
    hands the event back) and every callback as it runs."""
    log = []

    def ran(what):
        log.append(("ran", engine.now) + what)

    def scheduled(ident, handle):
        log.append(("scheduled", ident, handle[0], handle[1]))

    def hop(state):
        ident, delay, fanout, depth = state
        ran((ident, "hop", depth))
        if depth:
            for _ in range(fanout):
                scheduled(ident, engine.call_after(
                    delay, hop, (ident, delay, 1, depth - 1)))

    def start(ident):
        kind, _, *rest = program[ident]
        ran((ident, "start"))
        if kind == "plain":
            scheduled(ident, engine.call_after(rest[0], ran, (ident, "plain")))
        elif kind == "wake":
            engine._schedule_immediate(ran, (ident, "woken"))
        elif kind == "guarded":
            delay, dies_at = rest
            live = [True]

            def fire():
                if live[0]:
                    ran((ident, "fire"))

            def die():
                live[0] = False
                ran((ident, "die"))

            # A zero delay's flush instant is past: both engines push it.
            scheduled(ident, engine.call_at(engine.now + delay, fire,
                                            guard=lambda: live[0]))
            if dies_at is not None:
                scheduled(ident, engine.call_at(max(engine.now, dies_at),
                                                die))
        elif kind == "chain":
            delay, fanout, depth = rest
            hop((ident, delay, fanout, depth))
        else:
            sleep, other_sleep = rest

            def other():
                yield Delay(other_sleep)
                ran((ident, "other done"))
                return "other"

            def joiner(target):
                yield Delay(sleep)
                ran((ident, "joining", target.finished))
                ran((ident, "joined", (yield target)))
                return "joiner"

            process = engine.process(joiner(engine.process(other())))
            process.on_done(lambda result: ran((ident, "on_done", result)))

    for ident, item in enumerate(program):
        engine.call_at(item[1], start, ident)
    return log


def _drive_both(program, driver):
    engine, oracle = Engine(), TwoQueueEngine()
    log, expected = _load(program, engine), _load(program, oracle)

    def same():
        assert log == expected
        assert engine.now == oracle.now
        assert engine.pending_events == oracle.pending_events
        assert engine.processed_events == oracle.processed_events

    if driver[0] == "tile":
        for tile in range(1, int(6.0 / driver[1]) + 1):
            assert engine.run(until=tile * driver[1]) \
                == oracle.run(until=tile * driver[1])
            same()
    elif driver[0] == "max_events":
        # Both sides execute the same events, so every cut must agree.
        while engine.pending_events or oracle.pending_events:
            assert engine.run(max_events=driver[1]) \
                == oracle.run(max_events=driver[1])
            same()
    assert engine.run() == oracle.run()
    same()
    assert engine.pending_events == 0
    assert not oracle._immediate and not engine._heap


@settings(max_examples=300, deadline=None)
@given(programs, drivers)
def test_same_events_in_the_same_order(program, driver):
    _drive_both(program, driver)


def test_zero_delay_keeps_its_place_among_ties():
    """The deterministic core: zero-delay events between heap events for
    the same instant, scheduled from inside that instant."""
    for engine in (Engine(), TwoQueueEngine()):
        order = []

        def at_one():
            engine.call_after(0.0, lambda: order.append(("zero", engine.now)))
            engine.call_at(1.0, lambda: order.append(("heap", engine.now)))
            engine._schedule_immediate(
                lambda: order.append(("wake", engine.now)))

        engine.call_at(1.0, at_one)
        engine.call_at(1.0, lambda: order.append(("before", engine.now)))
        engine.run()
        assert order == [("before", 1.0), ("zero", 1.0), ("heap", 1.0),
                         ("wake", 1.0)]
    _drive_both([("plain", 0.25, 0.0), ("wake", 0.25), ("plain", 0.25, 0.0),
                 ("chain", 0.25, 0.0, 2, 2)], ("max_events", 1))
