"""Trace-driven invariant checking: replay the journal, assert the protocol.

The :class:`TraceChecker` turns the observability journal into an oracle
for cross-layer invariants that no single unit test sees end to end:

* **single completion** — no span ends twice; in particular an RPC never
  both delivers and fails (the class of bug the ``rpcs_failed``
  double-count fix addressed);
* **primary uniqueness** — replaying the ``shards`` transition records,
  a shard never has two READY primaries at any point in time;
* **migration protocol** — every migration span that ends with
  ``outcome == "ok"`` contains its protocol's full phase sequence in
  order (§4.3's prepare → forward → handoff → publish → drop_old for the
  graceful path); a "torn" migration that claims success without the
  complete handshake is flagged.

:meth:`TraceChecker.check_shard_map` additionally cross-checks a final
published :class:`~repro.core.shard_map.ShardMap` against the journal:
every routable address must be explained by a READY transition record —
the regression guard for paths (MiniSM partitions, emergency placement)
that once bypassed the orchestrator's bookkeeping.

The checker tolerates ring-buffer truncation: span ends whose begins were
evicted, and spans still open when the run stopped, are not violations.
It reads the journal's columns in place; one pass over the track column
splits out the tracks the invariants replay (DESIGN.md, "Record schema").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .tracer import KIND_BEGIN, KIND_END, KIND_INSTANT, Journal, TraceRecord

__all__ = ["Violation", "TraceChecker", "REQUIRED_PHASES"]

#: Per migration kind, the in-order phase sequence an ``ok`` span must show.
REQUIRED_PHASES: Dict[str, Tuple[str, ...]] = {
    "graceful": ("prepare", "forward", "handoff", "publish", "drop_old"),
    "abrupt": ("drop_old", "handoff"),
    "secondary": ("add_new", "drop_old"),
}


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to a journal sequence number."""

    invariant: str
    message: str
    seq: int

    def __str__(self) -> str:
        return f"[{self.invariant} @seq={self.seq}] {self.message}"

    def as_dict(self) -> Dict[str, Any]:
        return {"invariant": self.invariant, "message": self.message,
                "seq": self.seq}


#: The tracks whose records the invariants replay.
_REPLAYED = ("shards", "migration", "chaos", "fluid", "scatter",
             "orchestrator")


def _is_subsequence(needle: Tuple[str, ...], haystack: List[str]) -> bool:
    it = iter(haystack)
    return all(item in it for item in needle)


def _views(columns: Sequence[List[Any]],
           rows: List[int]) -> Iterator[TraceRecord]:
    """Record views of ``rows`` (indices into ``columns``), in order, each
    built as it is reached: a view no check keeps is freed at once, so
    the replay does not add up to a garbage collection."""
    return map(TraceRecord._make, zip(*(map(column.__getitem__, rows)
                                        for column in columns)))


class TraceChecker:
    """Replays a :class:`~repro.obs.tracer.Journal` against the invariants."""

    def __init__(self, journal: Journal) -> None:
        self.journal = journal
        self._split_at = -1
        self._rows: Dict[str, List[int]] = {}

    def records(self, track: str) -> Iterator[TraceRecord]:
        """The window's records on ``track``, one of the replayed tracks
        (split again only after further appends)."""
        columns = self.journal.columns()
        if self._split_at != self.journal.appended:
            self._split_at = self.journal.appended
            self._rows = {name: [] for name in _REPLAYED}
            found = self._rows.get
            for index, name in enumerate(columns[2]):
                into = found(name)
                if into is not None:
                    into.append(index)
        return _views(columns, self._rows[track])

    # -- entry points --------------------------------------------------------

    def check(self) -> List[Violation]:
        """Run the full journal invariant set; [] means clean."""
        return [violation for check in (
            self._check_single_completion, self._check_primary_uniqueness,
            self._check_migration_protocol, self.check_fault_recovery,
            self.check_fluid, self.check_scatter) for violation in check()]

    def assert_clean(self) -> None:
        violations = self.check()
        if violations:
            raise AssertionError(
                "trace invariants violated:\n"
                + "\n".join(f"  {v}" for v in violations))

    # -- invariant 1: spans settle exactly once ------------------------------

    def _check_single_completion(self) -> List[Violation]:
        violations: List[Violation] = []
        columns = self.journal.columns()
        spans = [span for kind, span in zip(columns[1], columns[5])
                 if kind == KIND_END]
        if len(set(spans)) == len(spans):
            return violations   # the clean case: no span id ends twice
        ended: Dict[int, Any] = {}  # span -> first end record
        ends = [row for row, kind in enumerate(columns[1]) if kind == KIND_END]
        for record in _views(columns, ends):
            first = ended.get(record.span)
            if first is None:
                ended[record.span] = record
                continue
            detail = ""
            if record.track == "net" or first.track == "net":
                first_ok = (first.args or {}).get("ok")
                this_ok = (record.args or {}).get("ok")
                detail = (f" (rpc completed as ok={first_ok} "
                          f"then again as ok={this_ok})")
            violations.append(Violation(
                "single-completion",
                f"span {record.span} ({first.track}/{first.name}) "
                f"ended more than once{detail}",
                record.seq))
        return violations

    # -- invariant 2: one READY primary per shard ----------------------------

    def _check_primary_uniqueness(self) -> List[Violation]:
        violations: List[Violation] = []
        # (app, shard) -> {replica_id: (role, state, address)}
        shards: Dict[Tuple[str, str], Dict[str, Tuple[str, str, str]]] = {}
        flagged: set = set()
        for record in self.records("shards"):
            if record.kind != KIND_INSTANT:
                continue
            args = record.args or {}
            if args.get("op") == "reset":
                # Control-plane failover: a successor orchestrator starts a
                # fresh replica-id space for the app.  Its restored READY
                # primaries must not be compared against the dead
                # incarnation's.
                app = args.get("app", "")
                for key in [k for k in shards if k[0] == app]:
                    shards[key].clear()
                    flagged.discard(key)
                continue
            key = (args.get("app", ""), args.get("shard", ""))
            replicas = shards.setdefault(key, {})
            replica_id = args.get("replica", "")
            if args.get("op") == "drop":
                replicas.pop(replica_id, None)
                continue
            replicas[replica_id] = (args.get("role", ""),
                                    args.get("state", ""),
                                    args.get("address", ""))
            primaries = [a for (r, s, a) in replicas.values()
                         if r == "primary" and s == "ready"]
            if len(primaries) > 1 and key not in flagged:
                flagged.add(key)
                violations.append(Violation(
                    "primary-uniqueness",
                    f"shard {key[1]} of {key[0]} has {len(primaries)} READY "
                    f"primaries at t={record.time!r}: {sorted(primaries)}",
                    record.seq))
        return violations

    # -- invariant 3: successful migrations ran the whole protocol -----------

    def _check_migration_protocol(self) -> List[Violation]:
        violations: List[Violation] = []
        begins: Dict[int, Any] = {}
        phases: Dict[int, List[str]] = {}
        for record in self.records("migration"):
            if record.kind == KIND_BEGIN:
                begins[record.span] = record
                phases[record.span] = []
            elif record.kind == KIND_INSTANT and record.name == "phase":
                args = record.args or {}
                span = args.get("span", 0)
                if span in phases:
                    phases[span].append(args.get("phase", ""))
            elif record.kind == KIND_END:
                begin = begins.pop(record.span, None)
                observed = phases.pop(record.span, None)
                if begin is None:
                    continue  # begin evicted by the ring: unverifiable
                outcome = (record.args or {}).get("outcome", "")
                if outcome != "ok":
                    continue  # aborted migrations make no phase promise
                required = REQUIRED_PHASES.get(begin.name)
                if required is None:
                    continue
                if not _is_subsequence(required, observed or []):
                    args = begin.args or {}
                    violations.append(Violation(
                        "migration-protocol",
                        f"{begin.name} migration span {record.span} "
                        f"(shard {args.get('shard', '?')}) ended ok with "
                        f"phases {observed} — requires {list(required)} "
                        f"in order",
                        record.seq))
        # Spans still open at the end of the run are in-flight, not torn.
        return violations

    # -- chaos invariants (fault audit trail, §8.1 robustness) ---------------

    def check_fault_recovery(self) -> List[Violation]:
        """Every injected fault must have a matching recovery record.

        The chaos engine journals one ``chaos/fault`` instant per injected
        fault (keyed by a unique ``fault`` id) and one ``chaos/recover``
        when it reverts it.  A fault with no recovery means the scenario
        left the world broken (e.g. a stopped injector stranding a machine
        down); a recovery with no fault means a revert double-applied.
        Failed in-scenario probes (``chaos/probe`` with ``ok: False``)
        are surfaced here too.  Journals without a chaos track pass
        trivially.
        """
        violations: List[Violation] = []
        pending: Dict[str, Any] = {}  # fault id -> fault record
        for record in self.records("chaos"):
            if record.kind != KIND_INSTANT:
                continue
            args = record.args or {}
            if record.name == "fault":
                fault = args.get("fault", "")
                if fault in pending:
                    violations.append(Violation(
                        "fault-recovery",
                        f"fault {fault!r} injected twice without a recovery "
                        f"in between",
                        record.seq))
                pending[fault] = record
            elif record.name == "recover":
                fault = args.get("fault", "")
                if pending.pop(fault, None) is None:
                    violations.append(Violation(
                        "fault-recovery",
                        f"recovery for {fault!r} without a matching fault "
                        f"(double-applied revert?)",
                        record.seq))
            elif record.name == "probe" and args.get("ok") is False:
                violations.append(Violation(
                    "fault-recovery",
                    f"scenario probe failed at t={record.time!r}: "
                    f"{args.get('check', '?')} — {args.get('detail', '')}",
                    record.seq))
        for fault, record in pending.items():
            violations.append(Violation(
                "fault-recovery",
                f"fault {fault!r} injected at t={record.time!r} has no "
                f"recovery record",
                record.seq))
        return violations

    # -- fluid traffic invariants (hybrid engine audit trail) ----------------

    def check_fluid(self) -> List[Violation]:
        """Audit the fluid engine's ``fluid/epoch`` records.

        Per (app, client) stream: epochs must be non-overlapping and in
        time order, arrivals must be conserved (``ok + failed`` equals
        ``arrivals`` up to integration rounding), and the healthy share
        must stay in ``[0, 1]``.  Journals without a fluid track pass
        trivially — the event path is unaffected.
        """
        violations: List[Violation] = []
        last_end: Dict[Tuple[str, str], float] = {}
        for record in self.records("fluid"):
            if record.kind != KIND_INSTANT or record.name != "epoch":
                continue
            args = record.args or {}
            key = (args.get("app", ""), args.get("client", ""))
            t0 = args.get("t0", 0.0)
            t1 = args.get("t1", 0.0)
            previous = last_end.get(key)
            if previous is not None and t0 < previous - 1e-9:
                violations.append(Violation(
                    "fluid-epochs",
                    f"fluid stream {key} epoch [{t0!r}, {t1!r}] overlaps "
                    f"the previous epoch ending at {previous!r}",
                    record.seq))
            last_end[key] = max(t1, previous or t1)
            arrivals = args.get("arrivals", 0.0)
            ok = args.get("ok", 0.0)
            failed = args.get("failed", 0.0)
            slack = max(1e-6, 1e-6 * arrivals) + 2e-6  # journal rounding
            if abs((ok + failed) - arrivals) > slack:
                violations.append(Violation(
                    "fluid-conservation",
                    f"fluid stream {key} epoch [{t0!r}, {t1!r}]: "
                    f"ok({ok}) + failed({failed}) != arrivals({arrivals})",
                    record.seq))
            share = args.get("healthy_share", 0.0)
            if not 0.0 <= share <= 1.0 + 1e-9:
                violations.append(Violation(
                    "fluid-share",
                    f"fluid stream {key} healthy_share {share!r} outside "
                    f"[0, 1] at t={record.time!r}",
                    record.seq))
        return violations

    # -- scatter-gather invariants (fan-out audit trail) ---------------------

    def check_scatter(self) -> List[Violation]:
        """Audit scatter-gather fan-outs: a merge waits for all its legs.

        The scatter client journals one ``scatter/fanout`` instant per
        request (with its ``legs`` count), one ``scatter/leg`` per leg
        completion and one ``scatter/merge`` when the reply is assembled.
        Per scatter id: at most one fanout and one merge; a merge must
        account for exactly the fanned-out leg count (a merge firing
        early — before every leg landed — is the tail-amplification bug
        class this app exists to surface), its ``ok`` must agree with
        ``failed_legs == 0``, and it must not precede its fanout in time.
        Fanouts with no merge are in-flight at run end, not violations;
        legs/merges whose fanout was evicted by the ring are unverifiable
        and skipped.  Journals without a scatter track pass trivially.
        """
        violations: List[Violation] = []
        fanouts: Dict[str, Any] = {}     # scatter id -> fanout record
        leg_counts: Dict[str, int] = {}  # scatter id -> legs seen
        merged: set = set()
        for record in self.records("scatter"):
            if record.kind != KIND_INSTANT:
                continue
            args = record.args or {}
            scatter = args.get("scatter", "")
            if record.name == "fanout":
                if scatter in fanouts:
                    violations.append(Violation(
                        "scatter-protocol",
                        f"scatter {scatter!r} fanned out twice",
                        record.seq))
                    continue
                fanouts[scatter] = record
                leg_counts[scatter] = 0
            elif record.name == "leg":
                if scatter in leg_counts:
                    leg_counts[scatter] += 1
            elif record.name == "merge":
                if scatter in merged:
                    violations.append(Violation(
                        "scatter-protocol",
                        f"scatter {scatter!r} merged twice",
                        record.seq))
                    continue
                merged.add(scatter)
                fanout = fanouts.pop(scatter, None)
                seen = leg_counts.pop(scatter, None)
                if fanout is None:
                    continue  # fanout evicted by the ring: unverifiable
                expected = (fanout.args or {}).get("legs", 0)
                if seen != expected or args.get("legs") != expected:
                    violations.append(Violation(
                        "scatter-protocol",
                        f"scatter {scatter!r} merged after {seen} of "
                        f"{expected} legs (merge claims "
                        f"{args.get('legs')})",
                        record.seq))
                if args.get("ok") is not (args.get("failed_legs", 0) == 0):
                    violations.append(Violation(
                        "scatter-protocol",
                        f"scatter {scatter!r} merge ok={args.get('ok')} "
                        f"inconsistent with failed_legs="
                        f"{args.get('failed_legs')}",
                        record.seq))
                if record.time < fanout.time - 1e-9:
                    violations.append(Violation(
                        "scatter-protocol",
                        f"scatter {scatter!r} merged at t={record.time!r} "
                        f"before its fanout at t={fanout.time!r}",
                        record.seq))
        return violations

    def check_failover_detection(self, bound: float) -> List[Violation]:
        """Each crashed server must recover or fail over within ``bound``.

        ``chaos/fault`` records carry the application-server addresses the
        fault took down (``addresses``); within ``bound`` seconds of the
        fault, each must either come back (the fault's ``recover``) or
        receive an ``orchestrator/failover`` instant (replicas recreated
        elsewhere).  ``bound`` should cover detection (the ZK session
        timeout) plus the orchestrator's failover grace.
        """
        faults: List[Tuple[int, float, str, List[str]]] = []
        recovers: Dict[str, float] = {}
        failovers: List[Tuple[float, str]] = []
        for record in chain(self.records("chaos"),
                            self.records("orchestrator")):
            if record.kind != KIND_INSTANT:
                continue
            args = record.args or {}
            if record.track == "chaos":
                if record.name == "fault" and args.get("addresses"):
                    faults.append((record.seq, record.time,
                                   args.get("fault", ""),
                                   list(args["addresses"])))
                elif record.name == "recover":
                    recovers.setdefault(args.get("fault", ""), record.time)
            elif record.name == "failover":
                failovers.append((record.time, args.get("address", "")))
        violations: List[Violation] = []
        for seq, start, fault, addresses in faults:
            recover_time = recovers.get(fault)
            recovered = (recover_time is not None
                         and recover_time - start <= bound)
            for address in addresses:
                if recovered:
                    continue
                if any(start <= t <= start + bound and a == address
                       for t, a in failovers):
                    continue
                violations.append(Violation(
                    "failover-detection",
                    f"{address} went down with fault {fault!r} at "
                    f"t={start!r} and neither recovered nor failed over "
                    f"within {bound}s",
                    seq))
        return violations

    def check_availability(self, bound: float,
                           until: Optional[float] = None) -> List[Violation]:
        """No shard may lack a READY primary for longer than ``bound``.

        Replays the ``shards`` transition records and measures, per
        (app, shard), every interval with no READY primary that *starts
        after the shard first became available* (initial placement is
        deploy latency, not an outage).  An interval still open at
        ``until`` (default: the last journal timestamp) counts against
        the bound too.
        """
        # (app, shard) -> replica_id -> (role, state)
        shards: Dict[Tuple[str, str], Dict[str, Tuple[str, str]]] = {}
        gap_start: Dict[Tuple[str, str], float] = {}
        ever_ready: Dict[Tuple[str, str], bool] = {}
        violations: List[Violation] = []
        flagged: set = set()
        times = self.journal.columns()[4]
        last_time = times[-1] if times else 0.0

        def has_ready_primary(key: Tuple[str, str]) -> bool:
            return any(role == "primary" and state == "ready"
                       for role, state in shards.get(key, {}).values())

        for record in self.records("shards"):
            if record.kind != KIND_INSTANT:
                continue
            args = record.args or {}
            if args.get("op") == "reset":
                app = args.get("app", "")
                for key in [k for k in shards if k[0] == app]:
                    shards[key].clear()
                    # The restore re-adds replicas at the same instant; a
                    # real gap only opens if it fails to.
                    if ever_ready.get(key) and key not in gap_start:
                        gap_start[key] = record.time
                continue
            key = (args.get("app", ""), args.get("shard", ""))
            replicas = shards.setdefault(key, {})
            replica_id = args.get("replica", "")
            was_ready = has_ready_primary(key)
            if args.get("op") == "drop":
                replicas.pop(replica_id, None)
            else:
                replicas[replica_id] = (args.get("role", ""),
                                        args.get("state", ""))
            now_ready = has_ready_primary(key)
            if now_ready:
                ever_ready[key] = True
                start = gap_start.pop(key, None)
                if (start is not None and record.time - start > bound
                        and key not in flagged):
                    flagged.add(key)
                    violations.append(Violation(
                        "availability",
                        f"shard {key[1]} of {key[0]} had no READY primary "
                        f"for {record.time - start:.3f}s (t={start!r}.."
                        f"{record.time!r}), bound {bound}s",
                        record.seq))
            elif was_ready and key not in gap_start:
                gap_start[key] = record.time
        end = until if until is not None else last_time
        for key, start in gap_start.items():
            if ever_ready.get(key) and end - start > bound and key not in flagged:
                violations.append(Violation(
                    "availability",
                    f"shard {key[1]} of {key[0]} had no READY primary from "
                    f"t={start!r} to the end of the run "
                    f"({end - start:.3f}s > {bound}s)",
                    -1))
        return violations

    # -- cross-check: final map vs transition records ------------------------

    def check_shard_map(self, shard_map) -> List[Violation]:
        """Every routable address in ``shard_map`` must have a journaled
        READY transition for that shard.

        Catches assignment paths that mutate placement without going
        through the instrumented :class:`~repro.core.shard_map.AssignmentTable`
        chokepoint.
        """
        explained: set = set()  # (app, shard, address) seen READY
        for record in self.records("shards"):
            if record.kind != KIND_INSTANT:
                continue
            args = record.args or {}
            if args.get("state") == "ready":
                explained.add((args.get("app", ""), args.get("shard", ""),
                               args.get("address", "")))
        violations: List[Violation] = []
        for entry in map(shard_map.entry_at, range(len(shard_map))):
            for address in entry.all_addresses():
                if (shard_map.app, entry.shard_id, address) not in explained:
                    violations.append(Violation(
                        "map-coverage",
                        f"map v{shard_map.version}: {entry.shard_id} routes "
                        f"to {address} but the journal has no READY "
                        f"transition for it",
                        -1))
        return violations
