"""A simulated ZooKeeper: znodes, ephemeral nodes, sessions, watches.

§3.2 gives ZooKeeper three jobs in the SM ecosystem:

1. store the orchestrator's persistent state;
2. let an application server read its shard assignment at start-up without
   depending on the SM control plane;
3. detect application-server failures via SM-library-created ephemeral
   nodes that the orchestrator watches.

This in-process implementation supports exactly those uses: a hierarchical
namespace of znodes, per-client sessions whose expiry deletes their
ephemeral nodes after a session timeout, and one-shot watches on node
creation/deletion/data changes (ZooKeeper watches are one-shot; re-arm
after every fire, as real clients do).

Liveness is a *lease*, not a ticker: a client that heartbeats on a fixed
:class:`HeartbeatGrid` keeps its session alive without a single engine
event, and the one expiry event is scheduled only when the heartbeats
stop (see DESIGN.md, "Liveness leases").
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim.engine import Engine, EventHandle


class ZkError(RuntimeError):
    """Base class for coordination-store errors."""


class NoNodeError(ZkError):
    pass


class NodeExistsError(ZkError):
    pass


class NotEmptyError(ZkError):
    pass


class NoChildrenForEphemeralsError(ZkError):
    """Real ZooKeeper forbids children under ephemeral znodes; so do we."""


class SessionExpiredError(ZkError):
    pass


class WatchEventType(str, Enum):
    CREATED = "created"
    DELETED = "deleted"
    DATA_CHANGED = "data_changed"
    CHILD_ADDED = "child_added"
    CHILD_REMOVED = "child_removed"


@dataclass(frozen=True)
class WatchEvent:
    type: WatchEventType
    path: str


WatchCallback = Callable[[WatchEvent], None]


@dataclass
class _Znode:
    path: str
    data: Any
    ephemeral_session: Optional[int] = None
    version: int = 0
    children: Dict[str, "_Znode"] = field(default_factory=dict)
    #: Creation stamp from one store-wide counter (real ZooKeeper's czxid).
    #: Siblings sit in ``children`` in creation order, so the tuple of
    #: stamps along a path orders paths exactly as a pre-order tree walk.
    czxid: int = 0


class HeartbeatGrid:
    """The instants a client's heartbeats reach the store.

    Beat ``k`` (``k >= 1``) arrives at ``origin + interval + ... +
    interval`` — the *cumulative* float sum a periodic timer re-armed
    from each firing produces, which is not ``origin + k * interval`` in
    floating point.  :meth:`last_before` replays that sum, so a lease
    anchored on the grid expires at bit-identical instants to a session
    heartbeated by such a timer.
    """

    __slots__ = ("origin", "interval", "_beat")

    def __init__(self, origin: float, interval: float) -> None:
        if interval <= 0:
            raise ZkError(
                f"heartbeat interval must be positive, got {interval!r}")
        self.origin = origin
        self.interval = interval
        self._beat = origin  # replay cursor: a grid point already reached

    def last_before(self, when: float) -> float:
        """The latest beat strictly before ``when`` (``origin`` if none).

        Strict: a heartbeat that ties with whatever stops the client (or
        with the expiry it would have pre-empted) loses the tie.
        """
        interval = self.interval
        beat = self._beat if self._beat < when else self.origin
        following = beat + interval
        while following < when:
            beat = following
            following = beat + interval
        self._beat = beat
        return beat


class Session:
    """A client session; heartbeats keep it alive, silence expires it.

    Two ways to heartbeat.  A session opened without a grid is kept alive
    by explicit :meth:`heartbeat` calls, each re-arming its expiry timer.
    A session opened with a :class:`HeartbeatGrid` holds a *lease*: the
    client promises a heartbeat at every grid instant until it says
    otherwise, so while ``timeout > interval`` the session cannot lapse
    and owns no timer at all.  :meth:`stop_heartbeats` ends the lease and
    schedules the single expiry the last delivered heartbeat earned.
    """

    def __init__(self, store: "ZooKeeper", session_id: int, timeout: float,
                 heartbeats: Optional[HeartbeatGrid] = None) -> None:
        self._store = store
        self.session_id = session_id
        self.timeout = timeout
        self.expired = False
        self._opened = store.engine.now
        self._heartbeats = heartbeats
        self._expiry_handle: Optional[EventHandle] = None
        # Paths of the ephemerals this session owns (maintained by
        # ZooKeeper.create/delete), so expiry never walks the tree.
        self._ephemerals: set = set()
        if heartbeats is None:
            self._arm_expiry(self._opened + timeout)
        elif timeout <= heartbeats.interval:
            # The gap between two heartbeats outlasts the timeout: the
            # session lapses even though the client is healthy.
            self._arm_lease_expiry(math.inf)

    def _arm_expiry(self, when: float) -> None:
        if self._expiry_handle is not None:
            self._expiry_handle.cancel()
        self._expiry_handle = self._store.engine.call_at(when, self._expire)

    def _arm_lease_expiry(self, stop: float) -> None:
        """Schedule the expiry of a lease whose heartbeats end at ``stop``:
        ``timeout`` after the last beat strictly before ``stop`` (or after
        the session opened, if no beat landed in between)."""
        heartbeats = self._heartbeats
        if self.timeout <= heartbeats.interval:
            # Beats after the first armed expiry (opened + timeout) come
            # too late; at most one lands before it, and the expiry that
            # one re-arms is due before the next beat could renew it.
            stop = min(stop, self._opened + self.timeout)
        renewed = max(self._opened, heartbeats.last_before(stop))
        self._arm_expiry(renewed + self.timeout)

    def heartbeat(self) -> None:
        """Reset the expiry clock.  Call periodically while alive.

        On a leased session that is still heartbeating there is no clock
        to reset: the grid already vouches for it."""
        if self.expired:
            raise SessionExpiredError(f"session {self.session_id} expired")
        if self._expiry_handle is not None:
            self._arm_expiry(self._store.engine.now + self.timeout)

    def stop_heartbeats(self) -> None:
        """The client died without closing: no heartbeat arrives from now
        on.  Ends the lease; failure detection then takes whatever is
        left of the session timeout.  No-op without a live lease."""
        if self.expired or self._heartbeats is None:
            return
        self._arm_lease_expiry(self._store.engine.now)
        self._heartbeats = None

    def close(self) -> None:
        """Graceful close: ephemerals vanish immediately."""
        if not self.expired:
            self._expire()

    def expire(self) -> None:
        """Force-expire the session *now*, as if every heartbeat since the
        last one had been lost (a GC pause, a dropped TCP connection).
        The chaos layer's session-kill action; idempotent."""
        if not self.expired:
            self._expire()

    def _expire(self) -> None:
        if self.expired:
            return
        self.expired = True
        if self._expiry_handle is not None:
            self._expiry_handle.cancel()
        self._store._session_expired(self)


class ZooKeeper:
    """The coordination store.  All operations are synchronous in simulated
    time (a real ZK quorum round-trip is microscopic next to the
    shard-management timescales we simulate)."""

    def __init__(self, engine: Engine, default_session_timeout: float = 10.0) -> None:
        self.engine = engine
        self.default_session_timeout = default_session_timeout
        self._root = _Znode(path="/", data=None)
        self._session_counter = itertools.count(1)
        self._czxid = itertools.count(1)
        self._sessions: Dict[int, Session] = {}
        self._watches: Dict[str, List[WatchCallback]] = {}
        self._child_watches: Dict[str, List[WatchCallback]] = {}

    # -- sessions -------------------------------------------------------------

    def heartbeat_grid(self, interval: float) -> HeartbeatGrid:
        """A grid starting now: first beat ``interval`` from now."""
        return HeartbeatGrid(self.engine.now, interval)

    def create_session(self, timeout: Optional[float] = None,
                       heartbeats: Optional[HeartbeatGrid] = None) -> Session:
        """Open a session.  With ``heartbeats`` it is leased on that grid
        (see :class:`Session`); without, the caller heartbeats by hand."""
        session = Session(self, next(self._session_counter),
                          timeout or self.default_session_timeout,
                          heartbeats)
        self._sessions[session.session_id] = session
        return session

    def expire_session(self, session_id: int) -> bool:
        """Server-side session kill (the chaos layer's ZK-churn action).

        Force-expires the session as if its heartbeats stopped arriving;
        ephemerals vanish and watchers fire exactly as on a timeout.
        Returns False when the session is unknown or already expired.
        """
        session = self._sessions.get(session_id)
        if session is None:
            return False
        session.expire()
        return True

    def _session_expired(self, session: Session) -> None:
        self._sessions.pop(session.session_id, None)
        # Delete in the order a pre-order walk of the tree would find
        # them, so watchers hear about a dead session's nodes in tree
        # order no matter in which order the session created them.
        for path in sorted(session._ephemerals, key=self._walk_order):
            self.delete(path)

    def _walk_order(self, path: str) -> Tuple[int, ...]:
        node = self._root
        stamps = []
        for part in self._split(path):
            node = node.children[part]
            stamps.append(node.czxid)
        return tuple(stamps)

    # -- namespace helpers ------------------------------------------------------

    @staticmethod
    def _split(path: str) -> List[str]:
        if not path.startswith("/"):
            raise ZkError(f"path must be absolute, got {path!r}")
        return [part for part in path.split("/") if part]

    def _find(self, path: str) -> Optional[_Znode]:
        node = self._root
        for part in self._split(path):
            node = node.children.get(part)
            if node is None:
                return None
        return node

    def _require(self, path: str) -> _Znode:
        node = self._find(path)
        if node is None:
            raise NoNodeError(path)
        return node

    @staticmethod
    def _parent_path(path: str) -> str:
        parts = path.rstrip("/").rsplit("/", 1)
        return parts[0] or "/"

    # -- data operations ----------------------------------------------------------

    def create(self, path: str, data: Any = None, ephemeral: bool = False,
               session: Optional[Session] = None, make_parents: bool = False) -> str:
        """Create a znode.  Ephemeral nodes require a live session."""
        if ephemeral and (session is None or session.expired):
            raise SessionExpiredError("ephemeral create needs a live session")
        parts = self._split(path)
        if not parts:
            raise ZkError("cannot create the root")
        node = self._root
        for part in parts[:-1]:
            child = node.children.get(part)
            if child is None:
                if not make_parents:
                    raise NoNodeError("/" + "/".join(parts[:-1]))
                if node.ephemeral_session is not None:
                    raise NoChildrenForEphemeralsError(node.path)
                child_path = (node.path.rstrip("/") + "/" + part)
                child = _Znode(path=child_path, data=None,
                               czxid=next(self._czxid))
                node.children[part] = child
                # Implicitly created parents are creations like any other:
                # a CREATED watch armed on the intermediate path (via
                # exists()) must fire, not just the parent's child watch.
                self._fire(child_path, WatchEventType.CREATED, child_path)
                self._fire(node.path, WatchEventType.CHILD_ADDED, child_path)
            node = child
        name = parts[-1]
        if name in node.children:
            raise NodeExistsError(path)
        if node.ephemeral_session is not None:
            raise NoChildrenForEphemeralsError(
                f"{node.path} is ephemeral and cannot have children")
        child = _Znode(
            path=path,
            data=data,
            ephemeral_session=session.session_id if ephemeral else None,
            czxid=next(self._czxid),
        )
        node.children[name] = child
        if ephemeral:
            session._ephemerals.add(path)
        self._fire(path, WatchEventType.CREATED, path)
        self._fire(node.path, WatchEventType.CHILD_ADDED, path)
        return path

    def exists(self, path: str, watch: Optional[WatchCallback] = None) -> bool:
        if watch is not None:
            self._watches.setdefault(path, []).append(watch)
        return self._find(path) is not None

    def get(self, path: str, watch: Optional[WatchCallback] = None) -> Any:
        node = self._require(path)
        if watch is not None:
            self._watches.setdefault(path, []).append(watch)
        return node.data

    def set(self, path: str, data: Any,
            expected_version: Optional[int] = None) -> int:
        """Write data; optional compare-and-set on the node version."""
        node = self._require(path)
        if expected_version is not None and node.version != expected_version:
            raise ZkError(
                f"version mismatch on {path}: have {node.version}, "
                f"expected {expected_version}"
            )
        node.data = data
        node.version += 1
        self._fire(path, WatchEventType.DATA_CHANGED, path)
        return node.version

    def delete(self, path: str, recursive: bool = False) -> None:
        parent = self._require(self._parent_path(path))
        name = self._split(path)[-1]
        node = parent.children.get(name)
        if node is None:
            raise NoNodeError(path)
        if node.children and not recursive:
            raise NotEmptyError(path)
        # Descendants are deleted depth-first, firing DELETED on each node
        # and CHILD_REMOVED on its parent — silently discarding the
        # subtree would leave their armed watches in ``_watches`` /
        # ``_child_watches`` forever, never fired and never collected.
        self._delete_descendants(node)
        del parent.children[name]
        self._disown(node)
        self._fire(path, WatchEventType.DELETED, path)
        self._fire(parent.path, WatchEventType.CHILD_REMOVED, path)

    def _delete_descendants(self, node: _Znode) -> None:
        for name in sorted(node.children):
            child = node.children[name]
            self._delete_descendants(child)
            del node.children[name]
            self._disown(child)
            self._fire(child.path, WatchEventType.DELETED, child.path)
            self._fire(node.path, WatchEventType.CHILD_REMOVED, child.path)

    def _disown(self, node: _Znode) -> None:
        """A deleted ephemeral leaves its session's books (another client
        may delete it first: the fast-restart takeover does)."""
        owner = self._sessions.get(node.ephemeral_session)
        if owner is not None:
            owner._ephemerals.discard(node.path)

    def children(self, path: str, watch: Optional[WatchCallback] = None) -> List[str]:
        node = self._require(path)
        if watch is not None:
            self._child_watches.setdefault(path, []).append(watch)
        return sorted(node.children)

    # -- watches ---------------------------------------------------------------

    def _fire(self, watch_path: str, event_type: WatchEventType,
              event_path: str) -> None:
        if event_type in (WatchEventType.CHILD_ADDED, WatchEventType.CHILD_REMOVED):
            callbacks = self._child_watches.pop(watch_path, [])
        else:
            callbacks = self._watches.pop(watch_path, [])
        event = WatchEvent(type=event_type, path=event_path)
        for callback in callbacks:
            # Deliver asynchronously, as real ZooKeeper does.
            self.engine.call_after(0.0, lambda cb=callback: cb(event))
