"""Unit tests for the simulated coordination store."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.coordination.zookeeper import (
    HeartbeatGrid,
    NoChildrenForEphemeralsError,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
    SessionExpiredError,
    WatchEventType,
    ZkError,
    ZooKeeper,
)
from repro.sim.engine import Engine, every


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def zk(engine):
    return ZooKeeper(engine, default_session_timeout=10.0)


class TestNamespace:
    def test_create_and_get(self, zk):
        zk.create("/a", data=1)
        assert zk.get("/a") == 1

    def test_create_nested_requires_parents(self, zk):
        with pytest.raises(NoNodeError):
            zk.create("/a/b/c")

    def test_make_parents(self, zk):
        zk.create("/a/b/c", data="deep", make_parents=True)
        assert zk.get("/a/b/c") == "deep"
        assert zk.children("/a") == ["b"]

    def test_duplicate_create_raises(self, zk):
        zk.create("/a")
        with pytest.raises(NodeExistsError):
            zk.create("/a")

    def test_relative_path_rejected(self, zk):
        with pytest.raises(ZkError):
            zk.create("nope")

    def test_get_missing_raises(self, zk):
        with pytest.raises(NoNodeError):
            zk.get("/missing")

    def test_exists(self, zk):
        assert not zk.exists("/a")
        zk.create("/a")
        assert zk.exists("/a")

    def test_delete(self, zk):
        zk.create("/a")
        zk.delete("/a")
        assert not zk.exists("/a")

    def test_delete_nonempty_requires_recursive(self, zk):
        zk.create("/a/b", make_parents=True)
        with pytest.raises(NotEmptyError):
            zk.delete("/a")
        zk.delete("/a", recursive=True)
        assert not zk.exists("/a")

    def test_children_sorted(self, zk):
        zk.create("/root")
        for name in ("c", "a", "b"):
            zk.create(f"/root/{name}")
        assert zk.children("/root") == ["a", "b", "c"]

    def test_set_bumps_version(self, zk):
        zk.create("/a", data=1)
        assert zk.set("/a", 2) == 1
        assert zk.set("/a", 3) == 2
        assert zk.get("/a") == 3

    def test_compare_and_set(self, zk):
        zk.create("/a", data=1)
        zk.set("/a", 2, expected_version=0)
        with pytest.raises(ZkError):
            zk.set("/a", 3, expected_version=0)


class TestSessionsAndEphemerals:
    def test_ephemeral_requires_session(self, zk):
        with pytest.raises(SessionExpiredError):
            zk.create("/e", ephemeral=True)

    def test_ephemeral_survives_while_heartbeating(self, engine, zk):
        session = zk.create_session(timeout=10.0)
        zk.create("/e", ephemeral=True, session=session)
        for _ in range(5):
            engine.run(until=engine.now + 5.0)
            session.heartbeat()
        assert zk.exists("/e")

    def test_ephemeral_deleted_on_expiry(self, engine, zk):
        session = zk.create_session(timeout=10.0)
        zk.create("/e", ephemeral=True, session=session)
        engine.run(until=20.0)
        assert not zk.exists("/e")
        assert session.expired

    def test_close_deletes_immediately(self, engine, zk):
        session = zk.create_session()
        zk.create("/e", ephemeral=True, session=session)
        session.close()
        assert not zk.exists("/e")

    def test_heartbeat_after_expiry_raises(self, engine, zk):
        session = zk.create_session(timeout=5.0)
        engine.run(until=10.0)
        with pytest.raises(SessionExpiredError):
            session.heartbeat()

    def test_expiry_only_removes_own_ephemerals(self, engine, zk):
        session_a = zk.create_session(timeout=5.0)
        session_b = zk.create_session(timeout=1000.0)
        zk.create("/a", ephemeral=True, session=session_a)
        zk.create("/b", ephemeral=True, session=session_b)
        engine.run(until=10.0)
        assert not zk.exists("/a")
        assert zk.exists("/b")

    def test_nested_ephemerals_cleaned(self, engine, zk):
        session = zk.create_session(timeout=5.0)
        zk.create("/dir")
        zk.create("/dir/e", ephemeral=True, session=session)
        engine.run(until=10.0)
        assert zk.exists("/dir")
        assert not zk.exists("/dir/e")


class TestWatches:
    def test_data_watch_fires_once(self, engine, zk):
        zk.create("/a", data=1)
        events = []
        zk.get("/a", watch=events.append)
        zk.set("/a", 2)
        zk.set("/a", 3)
        engine.run()
        assert len(events) == 1
        assert events[0].type is WatchEventType.DATA_CHANGED

    def test_exists_watch_sees_creation(self, engine, zk):
        events = []
        assert not zk.exists("/a", watch=events.append)
        zk.create("/a")
        engine.run()
        assert events[0].type is WatchEventType.CREATED

    def test_delete_fires_node_watch(self, engine, zk):
        zk.create("/a")
        events = []
        zk.get("/a", watch=events.append)
        zk.delete("/a")
        engine.run()
        assert events[0].type is WatchEventType.DELETED

    def test_child_watch_on_add(self, engine, zk):
        zk.create("/dir")
        events = []
        zk.children("/dir", watch=events.append)
        zk.create("/dir/kid")
        engine.run()
        assert events[0].type is WatchEventType.CHILD_ADDED
        assert events[0].path == "/dir/kid"

    def test_child_watch_on_remove(self, engine, zk):
        zk.create("/dir/kid", make_parents=True)
        events = []
        zk.children("/dir", watch=events.append)
        zk.delete("/dir/kid")
        engine.run()
        assert events[0].type is WatchEventType.CHILD_REMOVED

    def test_watch_rearm_pattern(self, engine, zk):
        """Re-arming inside the callback sees every change (the pattern
        the orchestrator uses)."""
        zk.create("/dir")
        seen = []

        def watch(event):
            seen.append(event.path)
            zk.children("/dir", watch=watch)

        zk.children("/dir", watch=watch)
        zk.create("/dir/a")
        engine.run()
        zk.create("/dir/b")
        engine.run()
        assert seen == ["/dir/a", "/dir/b"]

    def test_watch_delivery_is_async(self, engine, zk):
        zk.create("/a", data=1)
        events = []
        zk.get("/a", watch=events.append)
        zk.set("/a", 2)
        assert events == []  # not yet delivered
        engine.run()
        assert len(events) == 1


class TestImplicitParentWatches:
    """create(make_parents=True) must treat implicit parents as real
    creations: CREATED on the new path, CHILD_ADDED on its parent.
    Silently materialising them left exists-watches armed forever."""

    def test_implicit_parent_fires_created_watch(self, engine, zk):
        events = []
        assert not zk.exists("/a/b", watch=events.append)
        zk.create("/a/b/c", make_parents=True)
        engine.run()
        assert [e.type for e in events] == [WatchEventType.CREATED]
        assert events[0].path == "/a/b"

    def test_implicit_parent_fires_child_added(self, engine, zk):
        zk.create("/a")
        events = []
        zk.children("/a", watch=events.append)
        zk.create("/a/b/c", make_parents=True)
        engine.run()
        assert events[0].type is WatchEventType.CHILD_ADDED
        assert events[0].path == "/a/b"

    def test_orchestrator_bootstrap_pattern(self, engine, zk):
        """The orchestrator arms an exists-watch on the servers root
        before any server registers; the first server's
        make_parents=True liveness create must wake it."""
        root = "/sm/app/servers"
        events = []
        session = zk.create_session()
        assert not zk.exists(root, watch=events.append)
        zk.create(f"{root}/server1", ephemeral=True, session=session,
                  make_parents=True)
        engine.run()
        assert [e.type for e in events] == [WatchEventType.CREATED]
        assert events[0].path == root


class TestEphemeralConstraints:
    def test_child_under_ephemeral_rejected(self, zk):
        session = zk.create_session()
        zk.create("/e", ephemeral=True, session=session)
        with pytest.raises(NoChildrenForEphemeralsError):
            zk.create("/e/kid")

    def test_implicit_parents_under_ephemeral_rejected(self, zk):
        session = zk.create_session()
        zk.create("/e", ephemeral=True, session=session)
        with pytest.raises(NoChildrenForEphemeralsError):
            zk.create("/e/a/b", make_parents=True)
        assert not zk.exists("/e/a")


class TestRecursiveDeleteWatches:
    def test_descendants_fire_deleted_watches(self, engine, zk):
        zk.create("/a/b/c", make_parents=True)
        zk.create("/a/d", make_parents=True)
        deleted = []
        for path in ("/a/b", "/a/b/c", "/a/d"):
            zk.get(path, watch=deleted.append)
        zk.delete("/a", recursive=True)
        engine.run()
        assert sorted(e.path for e in deleted) == ["/a/b", "/a/b/c", "/a/d"]
        assert all(e.type is WatchEventType.DELETED for e in deleted)

    def test_descendants_fire_child_removed_depth_first(self, engine, zk):
        zk.create("/a/b/c", make_parents=True)
        removed = []
        zk.children("/a/b", watch=removed.append)
        zk.children("/a", watch=removed.append)
        zk.delete("/a", recursive=True)
        engine.run()
        # Depth-first: /a/b loses c before /a loses b.
        assert [e.path for e in removed] == ["/a/b/c", "/a/b"]
        assert all(e.type is WatchEventType.CHILD_REMOVED for e in removed)

    def test_no_armed_watches_leak(self, engine, zk):
        zk.create("/a/b/c", make_parents=True)
        zk.get("/a/b/c", watch=lambda e: None)
        zk.children("/a/b", watch=lambda e: None)
        zk.delete("/a", recursive=True)
        engine.run()
        assert "/a/b/c" not in zk._watches
        assert "/a/b" not in zk._child_watches


class TestSessionKillSemantics:
    def test_close_then_timer_deletes_exactly_once(self, engine, zk):
        """The closed session's expiry timer must not fire again: a
        same-named node created later belongs to its new owner."""
        session = zk.create_session(timeout=5.0)
        zk.create("/e", ephemeral=True, session=session)
        session.close()
        assert not zk.exists("/e")
        zk.create("/e", data="new-owner")
        engine.run(until=20.0)  # past the original expiry deadline
        assert zk.get("/e") == "new-owner"

    def test_expire_session_deletes_ephemerals_and_fires_watches(
            self, engine, zk):
        session = zk.create_session(timeout=1000.0)
        zk.create("/e", ephemeral=True, session=session)
        events = []
        zk.get("/e", watch=events.append)
        assert zk.expire_session(session.session_id)
        assert session.expired
        assert not zk.exists("/e")
        engine.run()
        assert [e.type for e in events] == [WatchEventType.DELETED]

    def test_expire_session_idempotent(self, engine, zk):
        session = zk.create_session()
        assert zk.expire_session(session.session_id)
        assert not zk.expire_session(session.session_id)
        assert not zk.expire_session(99_999)

    def test_heartbeat_after_forced_expiry_raises(self, engine, zk):
        session = zk.create_session()
        session.expire()
        with pytest.raises(SessionExpiredError):
            session.heartbeat()

    def test_forced_expiry_only_removes_own_ephemerals(self, engine, zk):
        session_a = zk.create_session()
        session_b = zk.create_session()
        zk.create("/a", ephemeral=True, session=session_a)
        zk.create("/b", ephemeral=True, session=session_b)
        zk.expire_session(session_a.session_id)
        assert not zk.exists("/a")
        assert zk.exists("/b")


class TestSessionEphemeralBookkeeping:
    """A session tracks its own ephemerals; expiry never walks the tree."""

    def test_expiry_deletes_in_tree_walk_order(self, engine, zk):
        """Several ephemerals under different parents go in the order a
        pre-order walk of the tree finds them — parents in creation order,
        children in creation order — not in the order the session
        created them.  Watchers hear about them in that order."""
        for parent in ("/b", "/a", "/a/deep"):
            zk.create(parent)
        session = zk.create_session(timeout=5.0)
        other = zk.create_session(timeout=1000.0)
        zk.create("/a/deep/x", ephemeral=True, session=session)
        zk.create("/b/other", ephemeral=True, session=other)
        zk.create("/b/y", ephemeral=True, session=session)
        zk.create("/a/z", ephemeral=True, session=session)
        zk.create("/top", ephemeral=True, session=session)
        zk.create("/b/w", ephemeral=True, session=session)
        heard = []
        for path in ("/top", "/a/z", "/a/deep/x", "/b/y", "/b/w"):
            zk.exists(path, watch=lambda event: heard.append(event.path))
        for parent in ("/", "/a", "/a/deep", "/b"):
            # One-shot: each parent reports the first child it loses.
            zk.children(parent, watch=lambda event: heard.append(
                "child-removed " + event.path))
        engine.run(until=10.0)
        assert session.expired
        # Root's children were created /b, /a, /top; /a's: deep, z.
        assert heard == [
            "/b/y", "child-removed /b/y", "/b/w",
            "/a/deep/x", "child-removed /a/deep/x",
            "/a/z", "child-removed /a/z",
            "/top", "child-removed /top"]
        assert zk.exists("/b/other")

    def test_close_deletes_every_ephemeral(self, engine, zk):
        session = zk.create_session()
        zk.create("/d")
        for name in ("/e1", "/d/e2", "/e3"):
            zk.create(name, ephemeral=True, session=session)
        session.close()
        assert zk.children("/") == ["d"]
        assert zk.children("/d") == []

    def test_node_taken_over_is_not_deleted_by_old_owner(self, engine, zk):
        """The fast-restart takeover: a successor deletes the stale
        ephemeral and re-creates it; the old session's expiry must leave
        the successor's node alone."""
        old = zk.create_session(timeout=5.0)
        zk.create("/live", ephemeral=True, session=old)
        new = zk.create_session(timeout=1000.0)
        zk.delete("/live")
        zk.create("/live", data="successor", ephemeral=True, session=new)
        engine.run(until=10.0)
        assert old.expired
        assert zk.get("/live") == "successor"

    def test_ephemeral_deleted_with_its_parent_is_forgotten(self, engine, zk):
        session = zk.create_session(timeout=5.0)
        zk.create("/dir")
        zk.create("/dir/e", ephemeral=True, session=session)
        zk.delete("/dir", recursive=True)
        zk.create("/dir")
        zk.create("/dir/e", data="unrelated")
        engine.run(until=10.0)
        assert session.expired
        assert zk.get("/dir/e") == "unrelated"


class TestLivenessLease:
    def test_live_lease_owns_no_timer(self, engine, zk):
        session = zk.create_session(
            timeout=10.0, heartbeats=zk.heartbeat_grid(2.0))
        zk.create("/e", ephemeral=True, session=session)
        assert engine.pending_events == 0
        engine.run(until=10_000.0)
        assert engine.processed_events == 0
        assert zk.exists("/e") and not session.expired

    def test_stop_expires_a_timeout_after_the_last_beat(self, engine, zk):
        session = zk.create_session(
            timeout=10.0, heartbeats=zk.heartbeat_grid(2.0))
        zk.create("/e", ephemeral=True, session=session)
        engine.run(until=31.0)
        session.stop_heartbeats()          # last beat was at t=30
        assert engine.pending_events == 1
        engine.run(until=39.9)
        assert zk.exists("/e")
        engine.run(until=40.0)
        assert not zk.exists("/e") and session.expired

    def test_stop_that_ties_with_a_beat_loses_that_beat(self, engine, zk):
        session = zk.create_session(
            timeout=10.0, heartbeats=zk.heartbeat_grid(2.0))
        engine.run(until=30.0)
        session.stop_heartbeats()          # the t=30 beat never left
        engine.run(until=37.9)
        assert not session.expired
        engine.run(until=38.0)
        assert session.expired

    def test_stop_before_the_first_beat_counts_from_open(self, engine, zk):
        engine.run(until=3.0)
        session = zk.create_session(
            timeout=10.0, heartbeats=zk.heartbeat_grid(2.0))
        engine.run(until=4.5)
        session.stop_heartbeats()
        engine.run(until=12.9)
        assert not session.expired
        engine.run(until=13.0)
        assert session.expired

    def test_timeout_shorter_than_interval_lapses_while_healthy(
            self, engine, zk):
        session = zk.create_session(
            timeout=1.5, heartbeats=zk.heartbeat_grid(2.0))
        engine.run(until=1.4)
        assert not session.expired
        engine.run(until=1.5)
        assert session.expired

    def test_close_and_forced_expiry_end_a_lease_at_once(self, engine, zk):
        for end in ("close", "expire"):
            session = zk.create_session(
                timeout=10.0, heartbeats=zk.heartbeat_grid(2.0))
            zk.create("/e", ephemeral=True, session=session)
            getattr(session, end)()
            assert session.expired and not zk.exists("/e")
            session.stop_heartbeats()      # no-op on a dead session
            assert engine.pending_events == 0

    def test_manual_heartbeat_keeps_its_meaning(self, engine, zk):
        """On a leased session a manual heartbeat has nothing to reset
        while the lease is live, and resets the clock once it is not."""
        session = zk.create_session(
            timeout=10.0, heartbeats=zk.heartbeat_grid(2.0))
        session.heartbeat()
        assert engine.pending_events == 0
        engine.run(until=5.0)
        session.stop_heartbeats()          # due at 4 + 10
        engine.run(until=9.0)
        session.heartbeat()                # now due at 9 + 10
        engine.run(until=18.9)
        assert not session.expired
        engine.run(until=19.0)
        assert session.expired

    def test_grid_replays_the_cumulative_sum(self):
        grid = HeartbeatGrid(0.3, 0.1)
        beat, beats = 0.3, []
        for _ in range(1000):
            beat = beat + 0.1
            beats.append(beat)
        assert grid.last_before(beats[-1]) == beats[-2]
        assert grid.last_before(beats[-1] + 1e-9) == beats[-1]
        assert beats[-1] != 0.3 + 1000 * 0.1   # why it is not a product
        assert grid.last_before(beats[10]) == beats[9]   # cursor rewinds
        assert grid.last_before(0.2) == 0.3

    def test_grid_rejects_a_non_positive_interval(self):
        with pytest.raises(ZkError):
            HeartbeatGrid(0.0, 0.0)


# -- the lease against a ticker ------------------------------------------------

def _client_lifetime(leased, origin, interval, timeout, stop, churn):
    """One SM-library client on one timeline; returns every session expiry
    as ``(session index, instant)`` plus whether a beat ever tied with —
    and beat — the expiry it pre-empted.

    ``leased=False`` is the reference: the pre-lease implementation, a
    session kept alive by ``Session.heartbeat()`` driven from ``every()``.
    ``leased=True`` opens the sessions on a :class:`HeartbeatGrid` and
    schedules nothing.  ``stop`` (offset from ``origin``, or None) is a
    crash; ``churn`` is ``[(kill offset, reconnect delay)]``.
    """
    engine = Engine()
    zk = ZooKeeper(engine)
    sessions, expiries = [], []
    state = {"stopped": False, "grid": None, "tie": False}

    def open_session():
        if leased:
            session = zk.create_session(timeout, heartbeats=state["grid"])
        else:
            session = zk.create_session(timeout)
        index = len(sessions)
        sessions.append(session)
        zk.create(f"/live/{index}", ephemeral=True, session=session,
                  make_parents=True)
        zk.exists(f"/live/{index}",
                  watch=lambda _e: expiries.append((index, engine.now)))

    def beat():
        session = sessions[-1]
        if state["stopped"] or session.expired:
            return
        if session._expiry_handle.time == engine.now:
            state["tie"] = True
        session.heartbeat()

    def crash():
        state["stopped"] = True
        if leased:
            sessions[-1].stop_heartbeats()

    def kill():
        zk.expire_session(sessions[-1].session_id)

    def reconnect():
        if not state["stopped"] and sessions[-1].expired:
            open_session()

    engine.run(until=origin)
    # Faults are on the calendar before the client starts, as a chaos
    # timeline's are: at a tie with a heartbeat the fault runs first.
    end = origin
    if stop is not None:
        engine.call_at(origin + stop, crash)
        end = max(end, origin + stop)
    for kill_at, reconnect_after in churn:
        engine.call_at(origin + kill_at, kill)
        engine.call_at(origin + kill_at + reconnect_after, reconnect)
        end = max(end, origin + kill_at + reconnect_after)
    if leased:
        state["grid"] = zk.heartbeat_grid(interval)
    open_session()
    if not leased:
        every(engine, interval, beat)
    engine.run(until=end + timeout + 2 * interval + 1.0)
    return expiries, state["tie"], engine.processed_events


_NICE = [0.0, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0]
_offsets = st.one_of(st.sampled_from(_NICE),
                     st.floats(min_value=0.0, max_value=60.0))
_periods = st.one_of(st.sampled_from([p for p in _NICE if p > 0]),
                     st.floats(min_value=0.05, max_value=12.0))


class TestLeaseMatchesTicker:
    @settings(max_examples=300, deadline=None)
    @given(origin=_offsets, interval=_periods, timeout=_periods,
           stop=st.none() | _offsets,
           churn=st.lists(st.tuples(_offsets, _offsets), max_size=3))
    # a crash that ties with a beat; eight 0.1s sum to 0.7999999999999999,
    # not 0.8, so only a replayed grid sees the tie
    @example(origin=0.0, interval=0.1, timeout=1.0, stop=sum([0.1] * 8),
             churn=[])
    @example(origin=0.0, interval=2.0, timeout=10.0, stop=30.0, churn=[])
    # a crash before the first beat
    @example(origin=5.0, interval=2.0, timeout=10.0, stop=1.0, churn=[])
    # timeout < interval, == interval, with and without a crash / churn
    @example(origin=1.0, interval=2.0, timeout=1.5, stop=None, churn=[])
    @example(origin=1.0, interval=2.0, timeout=2.0, stop=None, churn=[])
    @example(origin=0.0, interval=2.0, timeout=1.5, stop=None,
             churn=[(1.0, 0.0)])
    @example(origin=0.0, interval=2.0, timeout=1.5, stop=3.0,
             churn=[(1.0, 2.5)])
    # forced expiry and reconnect landing on beats
    @example(origin=0.0, interval=2.0, timeout=10.0, stop=50.0,
             churn=[(30.0, 6.0), (40.0, 1.0)])
    def test_expiry_instants_are_bit_identical(self, origin, interval,
                                               timeout, stop, churn):
        # A timeout within rounding distance above the interval makes the
        # ticker's survival depend on the magnitude of "now"; a lease is
        # decided once.  Not a configuration anyone runs (DESIGN.md).
        assume(timeout <= interval or timeout - interval > 1e-6)
        reference, tie, ticker_events = _client_lifetime(
            False, origin, interval, timeout, stop, churn)
        # The one tie the ticker resolves for the heartbeat: a session
        # re-opened so that its first expiry is due on a beat.  The lease
        # is strict — a beat never wins a tie.
        assume(not tie)
        leased, _, lease_events = _client_lifetime(
            True, origin, interval, timeout, stop, churn)
        assert leased == reference
        assert lease_events <= ticker_events
