"""Unit tests for the discrete-event engine."""

import sys

import pytest

from repro.obs.tracer import Tracer
from repro.sim.engine import (
    Delay,
    Engine,
    Process,
    SimulationError,
    every,
)


NAN = float("nan")


@pytest.fixture(params=[None, 1, 64],
                ids=["untraced", "sample_every=1", "sample_every=64"])
def engine(request):
    """A plain engine, and two with a tracer bound whose run loop is
    watched from outside while the case runs.  The watcher counts every
    dispatch by ``tests/ledger.py``'s rule (a frame entered directly from
    ``Engine.run``'s frame) and reads the clock at every
    ``sample_every``-th dispatch of each ``run`` call.  The cases that
    exercise the run loop's exits and bookkeeping then also pin that the
    ledger's count is ``processed_events`` after every exit, that the
    sampled clock never goes back, and that the engine journals nothing
    of its own."""
    engine = Engine()
    sample_every = request.param
    if sample_every is None:
        yield engine
        return
    tracer = Tracer()
    engine.set_tracer(tracer)
    run_code = Engine.run.__code__
    dispatches = [0]
    index = [0]
    clock = []

    def watch(frame, event, _arg):
        if event != "call":
            return
        if frame.f_code is run_code:
            index[0] = 0
        elif frame.f_back is not None and frame.f_back.f_code is run_code:
            dispatches[0] += 1
            if index[0] % sample_every == 0:
                clock.append(engine.now)
            index[0] += 1

    sys.setprofile(watch)
    try:
        yield engine
    finally:
        sys.setprofile(None)
    assert dispatches[0] == engine.processed_events
    assert clock == sorted(clock)
    assert len(tracer.journal) == 0


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Engine().now == 0.0

    def test_call_after_advances_clock(self):
        engine = Engine()
        seen = []
        engine.call_after(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.0]
        assert engine.now == 5.0

    def test_call_at_absolute_time(self):
        engine = Engine()
        seen = []
        engine.call_at(3.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [3.0]

    def test_events_fire_in_time_order(self):
        engine = Engine()
        seen = []
        engine.call_after(2.0, lambda: seen.append("b"))
        engine.call_after(1.0, lambda: seen.append("a"))
        engine.call_after(3.0, lambda: seen.append("c"))
        engine.run()
        assert seen == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        engine = Engine()
        seen = []
        for label in "abc":
            engine.call_after(1.0, lambda l=label: seen.append(l))
        engine.run()
        assert seen == ["a", "b", "c"]

    def test_scheduling_in_the_past_raises(self):
        engine = Engine()
        engine.call_after(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(0.5, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Engine().call_after(-1.0, lambda: None)

    @pytest.mark.parametrize("schedule", [
        lambda engine: engine.call_at(NAN, lambda: None),
        lambda engine: engine.call_after(NAN, lambda: None),
        lambda engine: engine.call_at(NAN, lambda: None, guard=lambda: True),
        lambda engine: Delay(NAN),
    ], ids=["call_at", "call_after", "guarded call_at", "Delay"])
    def test_nan_is_rejected_and_leaves_no_trace(self, schedule):
        # nan compares false with everything, so `when < now` let it
        # through; the event then ran with engine.now == nan.
        engine = Engine()
        engine.call_after(1.0, lambda: None)
        with pytest.raises(SimulationError):
            schedule(engine)
        assert engine.pending_events == 1
        assert engine.run() == 1.0
        assert engine.processed_events == 1

    def test_infinite_deadline_is_still_accepted(self):
        engine = Engine()
        engine.call_at(float("inf"), lambda: None)
        engine.call_at(float("inf"), lambda: None, guard=lambda: True)
        assert engine.pending_events == 2
        assert engine.run(until=10.0) == 10.0
        assert engine.pending_events == 2

    def test_run_until_stops_before_later_events(self, engine):
        seen = []
        engine.call_after(1.0, lambda: seen.append(1))
        engine.call_after(10.0, lambda: seen.append(10))
        engine.run(until=5.0)
        assert seen == [1]
        assert engine.now == 5.0

    def test_run_until_tiles_time(self, engine):
        engine.run(until=5.0)
        assert engine.now == 5.0
        engine.run(until=7.0)
        assert engine.now == 7.0

    def test_events_resume_after_partial_run(self, engine):
        seen = []
        engine.call_after(10.0, lambda: seen.append(10))
        engine.run(until=5.0)
        engine.run()
        assert seen == [10]

    def test_max_events_limits_execution(self, engine):
        seen = []
        for i in range(5):
            engine.call_after(float(i + 1), lambda i=i: seen.append(i))
        engine.run(max_events=2)
        assert seen == [0, 1]
        engine.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_max_events_cut_leaves_the_clock_at_the_last_event(self, engine):
        """A run cut by ``max_events`` before ``until`` does not advance
        the clock to ``until``: the events still due would then run on a
        clock that went backwards (it returned 10.0, then fired at 2.0)."""
        fired = []
        for when in (1.0, 2.0, 3.0):
            engine.call_at(when, lambda: fired.append(engine.now))
        assert engine.run(until=10.0, max_events=1) == 1.0
        assert engine.now == 1.0
        assert engine.run(until=10.0, max_events=1) == 2.0
        assert engine.run() == 3.0
        assert fired == [1.0, 2.0, 3.0]
        # Cut by ``until`` first, or drained inside the budget: it tiles.
        engine.call_at(4.0, lambda: fired.append(engine.now))
        assert engine.run(until=3.5, max_events=1) == 3.5
        assert engine.run(until=10.0, max_events=5) == 10.0
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_processed_events_counter(self):
        engine = Engine()
        for _ in range(3):
            engine.call_after(1.0, lambda: None)
        engine.run()
        assert engine.processed_events == 3

    def test_callback_may_schedule_more_events(self):
        engine = Engine()
        seen = []

        def first():
            seen.append("first")
            engine.call_after(1.0, lambda: seen.append("second"))

        engine.call_after(1.0, first)
        engine.run()
        assert seen == ["first", "second"]
        assert engine.now == 2.0

    def test_reentrant_run_raises(self, engine):

        def nested():
            with pytest.raises(SimulationError):
                engine.run()

        engine.call_after(1.0, nested)
        engine.run()


class TestImmediateQueue:
    """delay == 0.0 ("immediate") events go on the one heap with the
    ``(now, seq)`` they take when scheduled; these pin the resulting
    order (the two-queue loop they replaced is the oracle in
    ``test_one_event_queue.py``)."""

    def test_zero_delay_runs_at_current_time(self):
        engine = Engine()
        seen = []
        engine.call_after(0.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [0.0]

    def test_zero_delay_interleaves_with_heap_by_schedule_order(self):
        engine = Engine()
        seen = []

        def at_one():
            seen.append("heap")
            engine.call_after(0.0, lambda: seen.append("imm1"))
            engine.call_at(1.0, lambda: seen.append("heap2"))
            engine.call_after(0.0, lambda: seen.append("imm2"))

        engine.call_after(1.0, at_one)
        engine.run()
        # Same timestamp: strict schedule order, zero delay or not.
        assert seen == ["heap", "imm1", "heap2", "imm2"]

    def test_zero_delay_runs_before_later_heap_event(self):
        engine = Engine()
        seen = []
        engine.call_after(1.0, lambda: seen.append("later"))
        engine.call_after(0.0, lambda: seen.append("now"))
        engine.run()
        assert seen == ["now", "later"]

    def test_callback_arg_is_passed(self):
        engine = Engine()
        seen = []
        engine.call_after(1.0, seen.append, "after")
        engine.call_at(2.0, seen.append, "at")
        engine.call_after(0.0, seen.append, "immediate")
        engine.run()
        assert seen == ["immediate", "after", "at"]

    def test_none_arg_is_a_real_argument(self):
        engine = Engine()
        seen = []
        engine.call_after(1.0, seen.append, None)
        engine.run()
        assert seen == [None]


class TestProcesses:
    def test_process_delays(self):
        engine = Engine()
        trace = []

        def proc():
            trace.append(engine.now)
            yield Delay(2.0)
            trace.append(engine.now)
            yield Delay(3.0)
            trace.append(engine.now)

        engine.process(proc())
        engine.run()
        assert trace == [0.0, 2.0, 5.0]

    def test_process_result(self):
        engine = Engine()

        def proc():
            yield Delay(1.0)
            return 42

        process = engine.process(proc())
        engine.run()
        assert process.finished
        assert process.result == 42

    def test_finished_process_wakes_all_joiners(self):
        engine = Engine()
        woken = []

        def target():
            yield Delay(1.0)
            return "result"

        def joiner(name, process):
            woken.append((name, (yield process), engine.now))

        process = engine.process(target())
        engine.process(joiner("a", process))
        engine.process(joiner("b", process))
        process.on_done(lambda result: woken.append(("callback", result,
                                                     engine.now)))
        engine.run()
        # Each wake-up is its own same-tick event, in subscription order.
        assert woken == [("a", "result", 1.0), ("b", "result", 1.0),
                         ("callback", "result", 1.0)]
        assert engine.processed_events == 4

    def test_process_joins_another_process(self):
        engine = Engine()

        def inner():
            yield Delay(3.0)
            return "inner-result"

        def outer():
            inner_process = engine.process(inner())
            result = yield inner_process
            return ("outer", result, engine.now)

        outer_process = engine.process(outer())
        engine.run()
        assert outer_process.result == ("outer", "inner-result", 3.0)

    def test_joining_finished_process_returns_immediately(self):
        engine = Engine()

        def quick():
            return "done"
            yield  # pragma: no cover

        def outer(target):
            result = yield target
            return result

        quick_process = engine.process(quick())
        assert quick_process.finished
        outer_process = engine.process(outer(quick_process))
        engine.run()
        assert outer_process.result == "done"

    def test_yielding_garbage_raises(self):
        engine = Engine()

        def bad():
            yield 12345

        with pytest.raises(SimulationError):
            engine.process(bad())

    def test_process_exception_propagates(self):
        engine = Engine()

        def boom():
            yield Delay(1.0)
            raise ValueError("boom")

        engine.process(boom())
        with pytest.raises(ValueError):
            engine.run()

    def test_done_signal_fires_on_completion(self):
        engine = Engine()
        results = []

        def proc():
            yield Delay(1.0)
            return "x"

        process = engine.process(proc())
        process.on_done(results.append)
        engine.run()
        assert results == ["x"]
        process.on_done(results.append)  # already finished: still an event
        assert results == ["x"]
        engine.run()
        assert results == ["x", "x"]


class TestEvery:
    def test_fires_periodically(self):
        engine = Engine()
        ticks = []
        every(engine, 10.0, lambda: ticks.append(engine.now))
        engine.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_stopper_ends_the_loop(self):
        engine = Engine()
        ticks = []
        stop = every(engine, 10.0, lambda: ticks.append(engine.now))
        engine.call_at(25.0, stop)
        engine.run(until=100.0)
        assert ticks == [10.0, 20.0]

    def test_zero_interval_rejected(self):
        with pytest.raises(SimulationError):
            every(Engine(), 0.0, lambda: None)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build():
            engine = Engine()
            trace = []

            def proc(name):
                for _ in range(3):
                    yield Delay(1.5)
                    trace.append((name, engine.now))

            engine.process(proc("a"))
            engine.process(proc("b"))
            engine.run()
            return trace

        assert build() == build()


class TestPendingEvents:
    """The pending-event count is a live counter, not a heap scan; these
    tests pin the transitions (push, guarded park and drop, execution)."""

    def test_counts_scheduled_events(self):
        engine = Engine()
        assert engine.pending_events == 0
        engine.call_after(1.0, lambda: None)
        engine.call_after(2.0, lambda: None)
        assert engine.pending_events == 2

    def test_execution_decrements(self):
        engine = Engine()
        engine.call_after(1.0, lambda: None)
        engine.call_after(2.0, lambda: None)
        engine.run(until=1.0)
        assert engine.pending_events == 1
        engine.run()
        assert engine.pending_events == 0

    def test_max_events_keeps_deferred_event_pending(self, engine):
        engine.call_after(1.0, lambda: None)
        engine.call_after(2.0, lambda: None)
        engine.run(max_events=1)
        assert engine.pending_events == 1

    def test_parked_guarded_event_counts_until_dropped(self, engine):
        live = [True]
        handle = engine.call_at(2.0, lambda: None, guard=lambda: live[0])
        # Parked, not pushed: the heap holds only the bucket's flush.
        assert len(engine._heap) == 1
        assert engine.pending_events == 2  # the event and the flush
        live[0] = False
        engine.run(until=1.9)              # the flush drops it
        assert engine.pending_events == 0
        assert not engine._heap

    def test_promoted_guarded_event_counts_until_it_runs(self, engine):
        fired = []
        engine.call_at(2.0, lambda: fired.append(engine.now),
                       guard=lambda: True)
        engine.run(until=1.9)              # the flush pushes it
        assert engine.pending_events == 1
        assert len(engine._heap) == 1
        engine.run()
        assert fired == [2.0]
        assert engine.pending_events == 0

    def test_guarded_event_too_near_to_park_goes_to_the_heap(self, engine):
        engine.run(until=1.8)
        engine.call_at(2.0, lambda: None, guard=lambda: False)
        # Its bucket's flush instant (1.75) is already past.
        assert engine.pending_events == 1
        assert len(engine._heap) == 1
        assert engine.run() == 2.0
        assert engine.processed_events == 1

    def test_matches_naive_heap_scan(self):
        import random as _random
        rng = _random.Random(7)
        engine = Engine()
        for _ in range(200):
            engine.call_after(rng.uniform(0, 10), lambda: None)
        assert engine.pending_events == len(engine._heap)
        engine.run(until=5.0)
        assert engine.pending_events == len(engine._heap)

