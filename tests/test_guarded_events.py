"""Guarded events against eager scheduling, which is kept here as the oracle.

``Engine.call_at(..., guard=g)`` promises that every callback which has an
effect runs at the same ``(time, seq)`` position as if the event had been
pushed onto the heap when it was scheduled.  The reference below does
exactly that — the same program with ``guard`` left out — so the two runs
must log the same effective callbacks at the same instants and stop on the
same clock, however the program mixes plain and guarded events
and however the run is cut into ``run(until=...)`` / ``run(max_events=...)``
calls, or calls passing both.

Instants and delays are mostly drawn from a few multiples of 1/8 s (half
the engine's bucket width), so exact ties, bucket boundaries and deadlines
in the current, the next and far buckets are all common; arbitrary floats
ride along.

Mutation check (each applied alone to ``repro/sim/engine.py``; every one is
caught by ``test_same_effects_in_the_same_order`` within the budget below,
and the fixed cases named after it fail too):

* flush too late (``when // W - 1.0`` → ``when // W + 1.0``, the end of
  the bucket): a timeout that should have fired runs late or, on a tiled
  run, after later events — the log comparison fails
  (``test_ties_run_in_schedule_order``,
  ``test_draining_run_ends_on_the_dropped_deadline``).  Flushing at the
  bucket's own first instant (``when // W``) is the last schedule that is
  still correct: the property passes, and only the flush instants pinned
  in ``test_engine.py`` move — the engine's "one bucket ahead" is slack,
  not something a tie depends on;
* take ``seq`` at flush instead of at registration (``event[1] =
  next(self._seq)`` in ``_flush_guarded``): a guarded deadline runs after
  a plain event for the same instant that was scheduled after it — the
  log comparison fails (``test_ties_run_in_schedule_order``);
* drop on a true guard (``if guard()`` → ``if not guard()``): an
  effective callback never runs — the log comparison fails on a missing
  ``fire`` (both fixed cases);
* forget the dropped deadline (``_dropped_until`` never raised): the logs
  agree and the final-clock comparison fails on a draining run
  (``test_draining_run_ends_on_the_dropped_deadline``).
"""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine

#: A handful of instants and delays, so that equal deadlines reached by
#: different routes are the rule, plus arbitrary floats.
times = st.one_of(st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0, 1.125]),
                  st.floats(0.0, 4.0, allow_nan=False))
#: Immediate, inside the current bucket, the next one, and far ones.
delays = st.one_of(st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5, 0.875,
                                    1.0, 2.0]),
                   st.floats(0.0, 3.0, allow_nan=False))

#: Every item is scheduled from a callback at ``at``, for ``at + delay``,
#: so plain and guarded events take their seq in any interleaving.
plain_items = st.tuples(st.just("plain"), times, delays)
guarded_items = st.tuples(
    st.just("guarded"), times, delays,
    st.one_of(st.none(), times),  # guard turns false at (None: never)
    st.booleans(),                # the oracle schedules via call_after
)
programs = st.lists(
    st.one_of(plain_items, guarded_items, guarded_items),
    min_size=1, max_size=12)
drivers = st.one_of(
    st.just(("drain",)),
    st.tuples(st.just("tile"), st.sampled_from([0.125, 0.25, 0.3, 1.0])),
    st.tuples(st.just("max_events"), st.integers(1, 4)),
    st.tuples(st.just("tile_cut"), st.sampled_from([0.125, 0.25, 0.3, 1.0]),
              st.integers(1, 4)),
)


def _load(program, guarded: bool):
    """Schedule ``program`` on a fresh engine; ``guarded=False`` is the
    oracle: every event goes straight to the heap, a guarded item's
    through ``call_after`` or ``call_at``.  The guarded side always uses
    ``call_at(now + delay, ...)``, as the network's timeouts do."""
    engine = Engine()
    log = []

    def schedule(ident):
        kind, _, delay, *rest = program[ident]
        log.append((engine.now, ident, "schedule"))
        if kind == "plain":
            engine.call_after(delay, log_now, (ident, "plain"))
        else:
            dies_at, via_after = rest
            live = [True]

            def fire():
                # The guard's contract: nothing left to do once false.
                if live[0]:
                    log_now((ident, "fire"))

            def die():
                live[0] = False
                log_now((ident, "die"))

            if guarded:
                engine.call_at(engine.now + delay, fire,
                               guard=lambda: live[0])
            elif via_after:
                engine.call_after(delay, fire)
            else:
                engine.call_at(engine.now + delay, fire)
            if dies_at is not None:
                engine.call_at(max(engine.now, dies_at), die)

    def log_now(what):
        log.append((engine.now,) + what)

    for ident, item in enumerate(program):
        engine.call_at(item[1], schedule, ident)
    return engine, log


def _drive_both(program, driver):
    """Run the guarded engine and the oracle in lockstep; compare at every
    point where the two are supposed to be indistinguishable."""
    engine, log = _load(program, guarded=True)
    oracle, expected = _load(program, guarded=False)
    if driver[0] == "tile":
        step = driver[1]
        for tile in range(1, int(8.0 / step) + 1):
            assert engine.run(until=tile * step) \
                == oracle.run(until=tile * step)
            assert log == expected
    elif driver[0] == "max_events":
        # Flushes and dropped no-ops count against max_events, so the two
        # sides need different numbers of calls; only the end must agree.
        for side in (engine, oracle):
            while side.pending_events:
                side.run(max_events=driver[1])
    elif driver[0] == "tile_cut":
        # Both arguments in one call.  The sides need different numbers
        # of slices per tile, so only the tile ends must agree; a cut
        # slice stops on its last event, never past one still due.
        step, budget = driver[1], driver[2]
        for tile in range(1, int(8.0 / step) + 1):
            for side in (engine, oracle):
                while True:
                    before = side.processed_events
                    side.run(until=tile * step, max_events=budget)
                    assert side.now <= (side._heap[0][0] if side._heap
                                        else float("inf"))
                    if side.processed_events - before < budget:
                        break
                assert side.now == tile * step
            assert log == expected
    assert engine.run() == oracle.run()
    assert log == expected
    assert engine.now == oracle.now
    assert engine.pending_events == oracle.pending_events == 0


@settings(max_examples=300, deadline=None)
@given(programs, drivers)
def test_same_effects_in_the_same_order(program, driver):
    _drive_both(program, driver)


def test_ties_run_in_schedule_order():
    """The deterministic core of the property: a guarded deadline on a
    bucket boundary, scheduled between two plain events for that instant."""
    engine = Engine()
    order = []
    engine.call_at(1.0, order.append, "before")
    engine.call_at(1.0, order.append, "guarded", guard=lambda: True)
    engine.call_at(1.0, order.append, "after")
    engine.run()
    assert order == ["before", "guarded", "after"]


def test_draining_run_ends_on_the_dropped_deadline():
    _drive_both([("guarded", 0.0, 2.0, 0.5, True)], ("drain",))
    engine, _ = _load([("guarded", 0.0, 2.0, 0.5, True)], guarded=True)
    assert engine.run() == 2.0
    assert engine.processed_events == 3  # schedule, die, flush; no no-op
