"""Authoritative shard-assignment state and the published shard map.

The orchestrator owns an :class:`AssignmentTable` (which replica of which
shard lives in which container, with what role and lifecycle state) and
periodically publishes an immutable, versioned :class:`ShardMap` snapshot
through the service discovery system; application clients route with the
snapshot, never with the live table (§3.2).

Scale notes (§6, Figs 15/16): the paper runs O(10^5-10^6) shards per
application, so the table, the map and the publish path are sized for a
million entries, and none keeps an object per shard for the collector:

* :class:`AssignmentTable` indexes replicas by the key index's column: a
  slot holds ``None``, the shard's lone :class:`ReplicaAssignment`, or a
  list once it has two.  Dirty shards are column ints (an "all dirty"
  flag before the first snapshot) and understaffed ones a ``bytearray``
  of flags, so a build keeps per shard only the replica it added.
* A :class:`ShardMap` is stored *columnar* — one shared
  :class:`AppKeyIndex` (shard ids + ``array('q')`` key bounds + the
  sorted interval permutation, identical across every version of an
  app's map) plus per-version chunked columns for the only fields that
  change between publishes (primary address, secondaries tuple).
  Unchanged chunks are shared between versions, so a steady-state
  publish allocates O(changed + chunks) instead of O(shards).
  :class:`ShardMapEntry` objects are built on each ``entry()`` /
  ``entry_at()`` call and never kept.
* :meth:`AssignmentTable.snapshot_delta` emits a versioned
  :class:`ShardMapDelta` (the changed shards' column indices and new
  column values + the base version it applies to) straight from the
  table's dirty-shard bookkeeping, so dissemination cost is
  proportional to *what changed*, not app size, and no entry object is
  built on the write path.  :meth:`ShardMap.apply_delta` is the
  subscriber-side inverse; a delta-applied map is bit-identical to the
  corresponding full snapshot (property-tested in
  ``tests/test_map_delta.py``).
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import (Container, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from ..obs.tracer import NO_TRACER
from .spec import AppSpec, Role, ShardSpec

#: Chunk geometry for the copy-on-write columns, sized by what a publish
#: touches.  With N shards in chunks of C, one publish plus one
#: subscriber's ``apply_delta`` moves about 4*N/C outer-list pointers
#: (two columns, copied once on each side) plus 8*C per touched chunk
#: (two columns, copied on each side and freed one version later).
#: Randomly placed dirty shards each touch their own chunk, so the
#: second term dominates from a handful of dirty shards up; 256 entries
#: keeps it small while a 10^6-shard map still has only ~4000 chunks.
_CHUNK_SHIFT = 8
_CHUNK = 1 << _CHUNK_SHIFT
_CHUNK_MASK = _CHUNK - 1


class ReplicaState(str, Enum):
    """Lifecycle of one replica assignment.

    PENDING: decided by the allocator, add_shard not yet acknowledged.
    PREPARING: prepare_add_shard acknowledged (migration target).
    READY: serving.
    DRAINING: prepare_drop_shard sent; forwarding to the new owner.
    DROPPED: terminal.
    """

    PENDING = "pending"
    PREPARING = "preparing"
    READY = "ready"
    DRAINING = "draining"
    DROPPED = "dropped"


#: Member -> plain ``str`` value, without ``Enum.value``'s Python descriptor.
VALUE_OF = {m: m.value for enum in (Role, ReplicaState) for m in enum}

# Members bound once: on 3.11 ``Role.PRIMARY`` goes through
# ``EnumType.__getattr__``, about 4x a module global, and the table reads
# these once or more per replica it adds or re-staffs.
_PRIMARY = Role.PRIMARY
_PENDING = ReplicaState.PENDING
_READY = ReplicaState.READY
_DROPPED = ReplicaState.DROPPED


@dataclass(slots=True, eq=False)
class ReplicaAssignment:
    """One shard replica pinned to one container (identity semantics)."""

    replica_id: str
    shard_id: str
    address: str  # container / application-server address
    role: Role
    state: ReplicaState = ReplicaState.PENDING

    @property
    def available(self) -> bool:
        return self.state is _READY


class ShardMapEntry(NamedTuple):
    """Published routing info for one shard (a named tuple: cheap to
    build on every lookup)."""

    shard_id: str
    key_low: int
    key_high: int
    primary: Optional[str]
    secondaries: Tuple[str, ...]

    def all_addresses(self) -> Tuple[str, ...]:
        if self.primary is None:
            return self.secondaries
        return (self.primary,) + self.secondaries


class AppKeyIndex:
    """The static layout of an app's shard map: ids, key bounds, order.

    Shard ids and key ranges come from the app spec and never change
    between publishes, so every version of an app's map shares one index
    — including the sorted interval permutation the router bisects, so
    a new map version costs no re-sort.
    """

    __slots__ = ("shard_ids", "key_lows", "key_highs", "index_of",
                 "sorted_order", "sorted_lows")

    def __init__(self, shard_ids: Sequence[str], key_lows: Sequence[int],
                 key_highs: Sequence[int]) -> None:
        self.shard_ids: Tuple[str, ...] = tuple(shard_ids)
        self.key_lows = array("q", key_lows)
        self.key_highs = array("q", key_highs)
        size = len(self.shard_ids)
        self.index_of: Dict[str, int] = dict(zip(self.shard_ids,
                                                 range(size)))
        # Sorted from the caller's sequence, not the array, whose items
        # are boxed anew on every read; the lows in that order are the
        # sorted lows.
        self.sorted_order = array("q", sorted(range(size),
                                              key=key_lows.__getitem__))
        self.sorted_lows = array("q", sorted(key_lows))

    @classmethod
    def from_spec(cls, spec: AppSpec) -> "AppKeyIndex":
        shards = spec.shards
        return cls([s.shard_id for s in shards],
                   [s.key_range.low for s in shards],
                   [s.key_range.high for s in shards])

    def same_layout(self, other: "AppKeyIndex") -> bool:
        """Same shards with the same key bounds in the same column order."""
        return self is other or (
            self.shard_ids == other.shard_ids
            and self.key_lows == other.key_lows
            and self.key_highs == other.key_highs)


@dataclass(frozen=True, slots=True)
class ShardMapDelta:
    """What changed between two consecutive map versions, as columns.

    Applies on top of the map whose version is ``base_version`` and
    produces the map at ``version``.  ``indices`` names the changed
    shards as column indices into ``key_index`` (in shard-id order) and
    ``primaries`` / ``secondaries`` carry their new column values in
    parallel.  The shard set and key bounds are the app spec's and never
    change between versions, so a delta cannot add, drop or re-range a
    shard: it names the layout it was cut from and nothing else.
    """

    app: str
    version: int
    base_version: int
    key_index: AppKeyIndex
    indices: Tuple[int, ...]
    primaries: Tuple[Optional[str], ...]
    secondaries: Tuple[Tuple[str, ...], ...]


def _chunked(values: List) -> List[list]:
    return [values[i:i + _CHUNK] for i in range(0, len(values), _CHUNK)]


class ShardMap:
    """Immutable-by-contract versioned snapshot disseminated to clients.

    Columnar storage: the :class:`AppKeyIndex` (shared across versions)
    plus chunked ``primaries`` / ``secondaries`` columns.  Entry objects
    are built per call and not kept (``entry_at(i)`` for ``i < len(map)``
    walks the whole map in column order, the app spec's shard order).
    """

    __slots__ = ("app", "version", "_index", "_primaries", "_secondaries")

    def __init__(self, app: str, version: int, key_index: AppKeyIndex,
                 primaries: List[list], secondaries: List[list]) -> None:
        self.app = app
        self.version = version
        self._index = key_index
        self._primaries = primaries
        self._secondaries = secondaries

    @classmethod
    def from_entries(cls, app: str, version: int,
                     entries: Sequence[ShardMapEntry]) -> "ShardMap":
        """A map written out entry by entry (how tests build one by
        hand; the control plane publishes columns)."""
        entries = tuple(entries)
        key_index = AppKeyIndex(
            [e.shard_id for e in entries],
            [e.key_low for e in entries],
            [e.key_high for e in entries])
        intern: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        return cls(app, version, key_index,
                   _chunked([e.primary for e in entries]),
                   _chunked([intern.setdefault(e.secondaries, e.secondaries)
                             for e in entries]))

    # -- core accessors ----------------------------------------------------

    @property
    def key_index(self) -> AppKeyIndex:
        return self._index

    def __len__(self) -> int:
        return len(self._index.shard_ids)

    def primary_at(self, index: int) -> Optional[str]:
        return self._primaries[index >> _CHUNK_SHIFT][index & _CHUNK_MASK]

    def entry_at(self, index: int) -> ShardMapEntry:
        """Entry at a column index, built on each call.

        The map keeps no reference to it: an entry per column asked for
        would live as long as the map and be scanned by every full
        collection, for a hit that saves one small object's build.
        """
        idx = self._index
        chunk, offset = index >> _CHUNK_SHIFT, index & _CHUNK_MASK
        return ShardMapEntry(idx.shard_ids[index], idx.key_lows[index],
                             idx.key_highs[index],
                             self._primaries[chunk][offset],
                             self._secondaries[chunk][offset])

    def entry(self, shard_id: str) -> ShardMapEntry:
        """O(1) entry lookup by shard id."""
        try:
            index = self._index.index_of[shard_id]
        except KeyError:
            raise KeyError(
                f"shard {shard_id!r} not in map v{self.version}") from None
        return self.entry_at(index)

    def index_for_key(self, key: int) -> int:
        """Column index of the entry covering ``key``, or -1 if none."""
        idx = self._index
        pos = bisect_right(idx.sorted_lows, key) - 1
        if pos < 0:
            return -1
        entry_index = idx.sorted_order[pos]
        if key >= idx.key_highs[entry_index]:
            return -1
        return entry_index

    # -- delta application -------------------------------------------------

    def apply_delta(self, delta: ShardMapDelta) -> "ShardMap":
        """The subscriber-side inverse of ``snapshot_delta``.

        Returns a new map sharing every unchanged chunk with this one;
        O(changed + chunks).  Raises ``ValueError`` when the delta does
        not chain onto this map — wrong app or base version, a delta cut
        from a different layout or an index outside it (the caller
        should resync with a full snapshot instead).
        """
        if delta.app != self.app:
            raise ValueError(
                f"delta for app {delta.app!r} applied to {self.app!r}")
        if delta.base_version != self.version:
            raise ValueError(
                f"{self.app}: delta v{delta.version} applies to base "
                f"v{delta.base_version}, have v{self.version}")
        index = self._index
        # One layout check per delta: every version of an app's map
        # shares the table's index object, so this is an identity test
        # except across a publisher failover.
        if not index.same_layout(delta.key_index):
            raise ValueError(
                f"{self.app}: delta v{delta.version} was cut from a "
                f"different shard layout")
        size = len(index.shard_ids)
        primaries = list(self._primaries)
        secondaries = list(self._secondaries)
        copied: set = set()
        for i, primary, secondary_tuple in zip(
                delta.indices, delta.primaries, delta.secondaries):
            if not 0 <= i < size:
                raise ValueError(
                    f"{self.app}: delta v{delta.version} names column "
                    f"{i} of {size}")
            chunk = i >> _CHUNK_SHIFT
            if chunk not in copied:
                primaries[chunk] = primaries[chunk][:]
                secondaries[chunk] = secondaries[chunk][:]
                copied.add(chunk)
            offset = i & _CHUNK_MASK
            primaries[chunk][offset] = primary
            secondaries[chunk][offset] = secondary_tuple
        return ShardMap(self.app, delta.version, index, primaries,
                        secondaries)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardMap):
            return NotImplemented
        if self.app != other.app or self.version != other.version:
            return False
        if not self._index.same_layout(other._index):
            return False
        return all(a is b or a == b for a, b in zip(
            self._primaries + self._secondaries,
            other._primaries + other._secondaries))

    def __hash__(self) -> int:
        return hash((self.app, self.version))

    def __repr__(self) -> str:
        return (f"ShardMap(app={self.app!r}, version={self.version}, "
                f"entries={len(self)})")


# -- wire-size model --------------------------------------------------------
#
# The simulator passes map objects by reference, so dissemination "bytes"
# are modeled analytically: per-entry framing plus the strings it carries.
# The estimators are what ``bench/``'s ``map_publish`` workload reports
# (``delta_bytes_d1`` vs ``full_map_bytes``).

_ENTRY_OVERHEAD = 24   # two int64 key bounds + field framing
_HEADER_OVERHEAD = 32  # app name, version(s), entry count


def map_wire_bytes(shard_map: ShardMap) -> int:
    """Serialized size of a full snapshot (computed from the columns)."""
    index = shard_map.key_index
    size = _HEADER_OVERHEAD + len(shard_map.app)
    size += sum(len(shard_id) for shard_id in index.shard_ids)
    size += _ENTRY_OVERHEAD * len(index.shard_ids)
    size += sum(len(primary) for chunk in shard_map._primaries
                for primary in chunk if primary is not None)
    return size + sum(len(secondary) for chunk in shard_map._secondaries
                      for secondaries in chunk for secondary in secondaries)


def delta_wire_bytes(delta: ShardMapDelta) -> int:
    """Serialized size of a delta: each changed shard travels as a full
    entry (id, key bounds, addresses), summed from the columns."""
    shard_ids = delta.key_index.shard_ids
    size = _HEADER_OVERHEAD + len(delta.app) + 8  # + base version
    size += _ENTRY_OVERHEAD * len(delta.indices)
    for i, primary, secondaries in zip(
            delta.indices, delta.primaries, delta.secondaries):
        size += len(shard_ids[i])
        if primary is not None:
            size += len(primary)
        for secondary in secondaries:
            size += len(secondary)
    return size


class AssignmentTable:
    """The orchestrator's mutable, authoritative assignment state."""

    def __init__(self, spec: AppSpec, tracer=NO_TRACER) -> None:
        self.spec = spec
        # Every replica state transition flows through this table's
        # mutators (snapshot() relies on the same property), which makes
        # it the one chokepoint where the "shards" journal track is
        # complete by construction — emergency placement, failover drops
        # and MiniSM partitions included.
        self.tracer = tracer
        self._key_index = AppKeyIndex.from_spec(spec)
        size = len(spec.shards)
        self._replicas: Dict[str, ReplicaAssignment] = {}
        # By column: None, the lone replica, or a list of two or more in
        # insertion order (the solver's tie rule).
        self._by_shard: list = [None] * size
        self._by_address: Dict[str, List[ReplicaAssignment]] = {}
        self._version = itertools.count(1)
        self.last_version = 0
        self._replica_counter = itertools.count()
        # Incremental snapshot state: the static key index is shared by
        # every snapshot; the routable columns are chunked and patched
        # copy-on-write, so only columns mutated since the last snapshot
        # (``_dirty``; every column before the first, ``_all_dirty``)
        # cost anything at publish time.
        self._dirty: Set[int] = set()
        self._all_dirty = True
        self._col_primaries: List[list] = _chunked([None] * size)
        self._col_secondaries: List[list] = _chunked([()] * size)
        # Chunks shared with an already-published map must be copied
        # before the next patch (copy-on-write).
        self._chunk_shared = bytearray(len(self._col_primaries))
        self._sec_intern: Dict[Tuple[str, ...], Tuple[str, ...]] = {(): ()}
        # Addresses whose hosted-replica set (or a hosted replica's
        # role/state) changed, and live replicas whose role, state or
        # address changed, since the orchestrator last persisted them.
        self._dirty_addresses: set = set()
        self._dirty_replicas: set = set()
        # A flag per column: short of live replicas or, in an app with
        # primaries, of a live primary — what emergency placement acts on.
        # Every mutator but relocate (count and roles unchanged) keeps it.
        self._needs_primary = spec.has_primaries()
        self._understaffed = bytearray(b"\x01") * size
        # Ids of replicas dropped since the orchestrator last persisted
        # its state (adds need no log: they sit at the tail of
        # ``_replicas``).
        self._dropped_log: List[str] = []

    def resume_versions_from(self, version: int) -> None:
        """Continue version numbering after a control-plane failover so
        published maps stay monotonic for subscribers."""
        self._version = itertools.count(version + 1)
        self.last_version = version

    # -- mutation ----------------------------------------------------------

    def add(self, shard_id: str, address: str, role: Role,
            state: ReplicaState = _PENDING) -> ReplicaAssignment:
        column = self._key_index.index_of.get(shard_id)
        if column is None:
            raise KeyError(f"unknown shard {shard_id!r}")
        slot = self._by_shard[column]
        if (slot is not None and role is _PRIMARY
                and self.primary_of(shard_id) is not None):
            raise ValueError(f"shard {shard_id} already has a primary")
        replica_id = f"{shard_id}#{next(self._replica_counter)}"
        replica = ReplicaAssignment(replica_id, shard_id, address, role, state)
        self._replicas[replica_id] = replica
        if type(slot) is list:
            slot.append(replica)
        else:
            self._by_shard[column] = (replica if slot is None
                                      else [slot, replica])
        hosted = self._by_address.get(address)
        if hosted is None:
            self._by_address[address] = [replica]
        else:
            hosted.append(replica)
        if not self._all_dirty:
            self._dirty.add(column)
        self._dirty_addresses.add(address)
        if self._understaffed[column]:
            self._restaff(column)
        if self.tracer.enabled:
            self._trace_transition("add", replica)
        return replica

    def _touch(self, replica: ReplicaAssignment) -> int:
        """Mark a replica, its shard and its address dirty; its column."""
        column = self._key_index.index_of[replica.shard_id]
        if not self._all_dirty:
            self._dirty.add(column)
        self._dirty_addresses.add(replica.address)
        self._dirty_replicas.add(replica)
        return column

    def _restaff(self, column: int) -> None:
        """Re-derive one column's understaffed flag."""
        slot = self._by_shard[column]
        live = 0
        has_primary = not self._needs_primary
        for replica in (slot if type(slot) is list
                        else () if slot is None else (slot,)):
            if replica.state is not _DROPPED:
                live += 1
                if replica.role is _PRIMARY:
                    has_primary = True
        self._understaffed[column] = not (
            has_primary and live >= self.spec.shards[column].replica_count)

    def _trace_transition(self, op: str, replica: ReplicaAssignment) -> None:
        """Journal one replica transition on the ``shards`` track (the
        TraceChecker's primary-uniqueness and map-coverage evidence)."""
        self.tracer.instant("shards", "transition", None, {
            "app": self.spec.name, "op": op,
            "shard": replica.shard_id, "replica": replica.replica_id,
            "address": replica.address, "role": VALUE_OF[replica.role],
            "state": VALUE_OF[replica.state]})

    def drop(self, replica_id: str) -> None:
        replica = self._replicas.pop(replica_id, None)
        if replica is None:
            return
        replica.state = _DROPPED
        column = self._touch(replica)
        slot = self._by_shard[column]
        if slot is replica:
            self._by_shard[column] = None
        else:
            slot.remove(replica)
            if len(slot) == 1:
                self._by_shard[column] = slot[0]
        self._dirty_replicas.discard(replica)
        bucket = self._by_address.get(replica.address, [])
        if replica in bucket:
            bucket.remove(replica)
            if not bucket:
                del self._by_address[replica.address]
        self._dropped_log.append(replica_id)
        self._restaff(column)
        if self.tracer.enabled:
            self._trace_transition("drop", replica)

    def set_state(self, replica_id: str, state: ReplicaState) -> None:
        replica = self._replicas[replica_id]
        replica.state = state
        self._restaff(self._touch(replica))
        if self.tracer.enabled:
            self._trace_transition("set_state", replica)

    def set_role(self, replica_id: str, role: Role) -> None:
        replica = self._replicas[replica_id]
        if role is _PRIMARY:
            current = self.primary_of(replica.shard_id)
            if current is not None and current.replica_id != replica_id:
                raise ValueError(
                    f"shard {replica.shard_id} already has primary "
                    f"{current.replica_id}")
        replica.role = role
        self._restaff(self._touch(replica))
        if self.tracer.enabled:
            self._trace_transition("set_role", replica)

    def relocate(self, replica_id: str, new_address: str) -> None:
        replica = self._replicas[replica_id]
        self._dirty_addresses.add(replica.address)
        bucket = self._by_address.get(replica.address, [])
        if replica in bucket:
            bucket.remove(replica)
            if not bucket:
                del self._by_address[replica.address]
        replica.address = new_address
        self._by_address.setdefault(new_address, []).append(replica)
        self._touch(replica)
        if self.tracer.enabled:
            self._trace_transition("relocate", replica)

    # -- queries ------------------------------------------------------------

    def get(self, replica_id: str) -> ReplicaAssignment:
        return self._replicas[replica_id]

    def replicas_of(self, shard_id: str) -> List[ReplicaAssignment]:
        return list(self.replicas_view(shard_id))

    def replicas_view(self, shard_id: str) -> Sequence[ReplicaAssignment]:
        """:meth:`replicas_of` without the copy: read-only by contract,
        and not to be held across table mutations."""
        slot = self._by_shard[self._key_index.index_of[shard_id]]
        if type(slot) is list:
            return slot
        return () if slot is None else (slot,)

    def consume_dirty_addresses(self) -> set:
        """Addresses whose assignments changed since the last call.

        Returns the accumulated set and resets it; the orchestrator uses
        this to rewrite only changed per-address assignment znodes.
        """
        dirty = self._dirty_addresses
        self._dirty_addresses = set()
        return dirty

    def consume_dirty_replicas(self) -> set:
        """Live replicas whose role, state or address changed since the
        last call (``add`` marks none); resets the set."""
        dirty = self._dirty_replicas
        self._dirty_replicas = set()
        return dirty

    def consume_dropped(self) -> List[str]:
        """Ids of the replicas dropped since the last call."""
        dropped = self._dropped_log
        self._dropped_log = []
        return dropped

    def newest_replicas(self) -> Iterator[ReplicaAssignment]:
        """Replicas from the most recently added backwards — the reverse
        of :meth:`all_replicas`, without the copy."""
        return reversed(self._replicas.values())

    def understaffed_shards(self) -> List[ShardSpec]:
        """Shards with fewer live replicas than their spec asks for, or
        lacking a live primary in an app that has primaries — in spec
        order.  One C-level scan of a byte per shard."""
        flags, shards, found = self._understaffed, self.spec.shards, []
        column = flags.find(1)
        while column >= 0:
            found.append(shards[column])
            column = flags.find(1, column + 1)
        return found

    def primary_of(self, shard_id: str) -> Optional[ReplicaAssignment]:
        for replica in self.replicas_view(shard_id):
            if replica.role is _PRIMARY:
                return replica
        return None

    def on_address(self, address: str) -> List[ReplicaAssignment]:
        return list(self._by_address.get(address, []))

    def address_view(self, address: str) -> Sequence[ReplicaAssignment]:
        """:meth:`on_address` without the copy (read-only by contract)."""
        return self._by_address.get(address, ())

    def hosted_count(self, address: str) -> int:
        """``len(on_address(address))`` without the copy."""
        return len(self._by_address.get(address, ()))

    def all_replicas(self) -> List[ReplicaAssignment]:
        return list(self._replicas.values())

    def unavailable_count(self, shard_id: str,
                          down_addresses: Container[str] = ()) -> int:
        """How many of a shard's replicas are currently not serving.

        Counts both replicas in non-READY states and READY replicas on
        known-down containers — the §4.1 caps must "account for the ...
        shard replicas that are already unavailable due to ongoing
        unplanned outage".
        """
        count = 0
        for replica in self.replicas_view(shard_id):
            if not replica.available or replica.address in down_addresses:
                count += 1
        return count

    def shards_on(self, address: str) -> Set[str]:
        return {r.shard_id for r in self.address_view(address)}

    # -- snapshotting -----------------------------------------------------------

    def _rebuild_dirty(self) -> Tuple[List[int], List[Optional[str]],
                                      List[Tuple[str, ...]]]:
        """Recompute the routable columns for every dirty shard.

        Returns what it wrote as three parallel lists — column index,
        primary, secondaries — in (deterministic) shard-id order, and
        clears the dirty set.  Sound because every mutation goes through
        this table — replica fields are never written from outside, see
        the mutation methods above.
        """
        indices: List[int] = []
        primaries: List[Optional[str]] = []
        secondary_tuples: List[Tuple[str, ...]] = []
        # With every column dirty (a first snapshot) all columns are
        # sorted: in spec order their ids come in long presorted runs.
        by_id = self._key_index.shard_ids.__getitem__
        if self._all_dirty:
            self._all_dirty = False
            dirty = sorted(range(len(self._by_shard)), key=by_id)
        else:
            dirty = sorted(self._dirty, key=by_id)
            self._dirty.clear()
        by_shard = self._by_shard
        primaries_col = self._col_primaries
        secondaries_col = self._col_secondaries
        shared = self._chunk_shared
        intern = self._sec_intern
        for i in dirty:
            primary: Optional[str] = None
            secondaries: List[str] = []
            slot = by_shard[i]
            for replica in (slot if type(slot) is list
                            else () if slot is None else (slot,)):
                if replica.state is _READY:
                    if replica.role is _PRIMARY:
                        primary = replica.address
                    else:
                        secondaries.append(replica.address)
            if secondaries:
                key = tuple(sorted(secondaries))
                secondary_tuple = intern.setdefault(key, key)
            else:
                secondary_tuple = ()
            chunk = i >> _CHUNK_SHIFT
            if shared[chunk]:
                primaries_col[chunk] = primaries_col[chunk][:]
                secondaries_col[chunk] = secondaries_col[chunk][:]
                shared[chunk] = 0
            offset = i & _CHUNK_MASK
            primaries_col[chunk][offset] = primary
            secondaries_col[chunk][offset] = secondary_tuple
            indices.append(i)
            primaries.append(primary)
            secondary_tuples.append(secondary_tuple)
        return indices, primaries, secondary_tuples

    def _make_map(self) -> ShardMap:
        self.last_version = next(self._version)
        # The new map shares the chunk objects; mark them all shared so
        # the next mutation copies before patching.
        shared = self._chunk_shared
        shared[:] = b"\x01" * len(shared)
        return ShardMap(self.spec.name, self.last_version, self._key_index,
                        list(self._col_primaries),
                        list(self._col_secondaries))

    def snapshot(self) -> ShardMap:
        """Publishable map: only READY replicas are routable.

        During a graceful migration the old primary stays READY (and thus
        routable) until the new primary takes over at step 3 of §4.3; only
        then does it flip to DRAINING and leave the next published map.
        Stale clients that still route to it are served via forwarding
        inside the application server.

        Cost is O(dirty + chunks): only shards touched by a mutation
        since the previous snapshot are recomputed, and unchanged column
        chunks are shared with the previous published map.
        """
        self._rebuild_dirty()
        return self._make_map()

    def snapshot_delta(self) -> Tuple[ShardMap, ShardMapDelta]:
        """Snapshot plus the :class:`ShardMapDelta` from the previous one.

        The delta's columns are exactly what the rebuild wrote for the
        shards in the dirty set (sorted by shard id for determinism) and
        its ``base_version`` is the previous published version, so
        ``previous.apply_delta(delta)`` reproduces the returned map
        bit-for-bit.
        """
        base_version = self.last_version
        indices, primaries, secondaries = self._rebuild_dirty()
        shard_map = self._make_map()
        delta = ShardMapDelta(
            app=self.spec.name, version=shard_map.version,
            base_version=base_version, key_index=self._key_index,
            indices=tuple(indices), primaries=tuple(primaries),
            secondaries=tuple(secondaries))
        return shard_map, delta
