"""A multi-decree Paxos library (the §2.4 "option 5" substrate).

"Our colleagues initially developed a Paxos library, hoping it would be
used along with SM to build many applications.  However, it eventually
had only one use case, i.e., ZippyDB."  Faithful to that history, this
module exists to support exactly one example application
(``repro.apps.zippydb``) — but it is a real implementation: single-decree
Paxos (prepare/promise, accept/accepted) generalised to a replicated log,
with a distinguished proposer (the SM-elected primary) as leader.

The implementation is deliberately synchronous-message-passing over an
abstract transport function so it can run over the simulated network or
in-process in tests.  Safety (agreed values never change) holds under
message loss, duplication and reordering; liveness requires a majority of
acceptors reachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Ballot:
    """Totally ordered proposal number: (round, proposer_id)."""

    round: int
    proposer: str

    def __lt__(self, other: "Ballot") -> bool:
        return (self.round, self.proposer) < (other.round, other.proposer)

    def __le__(self, other: "Ballot") -> bool:
        return (self.round, self.proposer) <= (other.round, other.proposer)


ZERO_BALLOT = Ballot(round=-1, proposer="")


@dataclass
class Promise:
    """Phase-1b response."""

    ok: bool
    ballot: Ballot
    accepted_ballot: Ballot = ZERO_BALLOT
    accepted_value: Any = None


@dataclass
class Accepted:
    """Phase-2b response."""

    ok: bool
    ballot: Ballot


class Acceptor:
    """One Paxos acceptor for a replicated log (per-slot state).

    Besides per-slot prepare/accept, it supports *ranged* promises
    (``on_prepare_range``) — the Multi-Paxos leader-election optimization
    a stable leader (ZippyDB's SM-elected primary) uses to skip phase 1
    on subsequent appends.
    """

    def __init__(self, acceptor_id: str) -> None:
        self.acceptor_id = acceptor_id
        self._promised: Dict[int, Ballot] = {}
        self._range_promised: Ballot = ZERO_BALLOT  # floor for all slots
        self._accepted: Dict[int, Tuple[Ballot, Any]] = {}

    def _promised_for(self, slot: int) -> Ballot:
        per_slot = self._promised.get(slot, ZERO_BALLOT)
        return max(per_slot, self._range_promised)

    def on_prepare(self, slot: int, ballot: Ballot) -> Promise:
        promised = self._promised_for(slot)
        if ballot <= promised:
            return Promise(ok=False, ballot=promised)
        self._promised[slot] = ballot
        accepted = self._accepted.get(slot)
        if accepted is None:
            return Promise(ok=True, ballot=ballot)
        return Promise(ok=True, ballot=ballot,
                       accepted_ballot=accepted[0], accepted_value=accepted[1])

    def on_prepare_range(self, from_slot: int, ballot: Ballot
                         ) -> Tuple[bool, Ballot, List[Tuple[int, Ballot, Any]]]:
        """Promise every slot >= from_slot at once.

        Returns (ok, promised_ballot, accepted entries at or beyond
        ``from_slot``) — the new leader must re-propose those entries to
        preserve safety.
        """
        current = max(self._range_promised,
                      max((b for s, b in self._promised.items()
                           if s >= from_slot), default=ZERO_BALLOT))
        if ballot <= current:
            return False, current, []
        self._range_promised = ballot
        accepted = [(slot, acc_ballot, value)
                    for slot, (acc_ballot, value) in self._accepted.items()
                    if slot >= from_slot]
        accepted.sort(key=lambda entry: entry[0])
        return True, ballot, accepted

    def on_accept(self, slot: int, ballot: Ballot, value: Any) -> Accepted:
        promised = self._promised_for(slot)
        if ballot < promised:
            return Accepted(ok=False, ballot=promised)
        self._promised[slot] = ballot
        self._accepted[slot] = (ballot, value)
        return Accepted(ok=True, ballot=ballot)

    def accepted_value(self, slot: int) -> Optional[Tuple[Ballot, Any]]:
        return self._accepted.get(slot)


class Learner:
    """Learns chosen values from acceptor acknowledgements."""

    def __init__(self, quorum_size: int) -> None:
        if quorum_size < 1:
            raise ValueError("quorum must be >= 1")
        self.quorum_size = quorum_size
        self._acks: Dict[Tuple[int, Ballot], set] = {}
        self.chosen: Dict[int, Any] = {}

    def on_accepted(self, slot: int, ballot: Ballot, value: Any,
                    acceptor_id: str) -> Optional[Any]:
        """Record an accepted ack; returns the value if now chosen."""
        if slot in self.chosen:
            return self.chosen[slot]
        key = (slot, ballot)
        acks = self._acks.setdefault(key, set())
        acks.add(acceptor_id)
        if len(acks) >= self.quorum_size:
            self.chosen[slot] = value
            return value
        return None


# Transport: (acceptor_id, method, payload) -> response or None (loss).
Transport = Callable[[str, str, Any], Any]


class Proposer:
    """Drives consensus for one replicated log.

    The owning server supplies a synchronous transport; in the simulation
    the ZippyDB server runs proposals inside a generator process and
    provides a transport that blocks on simulated RPCs.
    """

    def __init__(self, proposer_id: str, acceptor_ids: List[str],
                 transport: Transport) -> None:
        if not acceptor_ids:
            raise ValueError("need at least one acceptor")
        self.proposer_id = proposer_id
        self.acceptor_ids = list(acceptor_ids)
        self.transport = transport
        self.quorum_size = len(acceptor_ids) // 2 + 1
        self._round = 0
        self.learner = Learner(self.quorum_size)

    def next_ballot(self) -> Ballot:
        self._round += 1
        return Ballot(round=self._round, proposer=self.proposer_id)

    def observe_ballot(self, ballot: Ballot) -> None:
        """Bump our round past a competitor's (after a rejection)."""
        self._round = max(self._round, ballot.round)

    def propose(self, slot: int, value: Any,
                max_attempts: int = 5) -> Optional[Any]:
        """Run full Paxos for ``slot``; returns the *chosen* value (which
        may differ from ``value`` if another proposal won earlier)."""
        for _attempt in range(max_attempts):
            ballot = self.next_ballot()
            chosen = self._attempt(slot, ballot, value)
            if chosen is not None:
                return chosen
        return None

    def _attempt(self, slot: int, ballot: Ballot, value: Any) -> Optional[Any]:
        # Phase 1: prepare / promise.
        promises: List[Promise] = []
        for acceptor_id in self.acceptor_ids:
            response = self.transport(acceptor_id, "prepare",
                                      {"slot": slot, "ballot": ballot})
            if isinstance(response, Promise):
                if response.ok:
                    promises.append(response)
                else:
                    self.observe_ballot(response.ballot)
        if len(promises) < self.quorum_size:
            return None
        # Adopt the highest previously accepted value, if any.
        best = max(promises, key=lambda p: p.accepted_ballot)
        proposal_value = (best.accepted_value
                          if best.accepted_ballot != ZERO_BALLOT else value)
        # Phase 2: accept / accepted.
        acks = 0
        for acceptor_id in self.acceptor_ids:
            response = self.transport(acceptor_id, "accept",
                                      {"slot": slot, "ballot": ballot,
                                       "value": proposal_value})
            if isinstance(response, Accepted):
                if response.ok:
                    acks += 1
                    self.learner.on_accepted(slot, ballot, proposal_value,
                                             acceptor_id)
                else:
                    self.observe_ballot(response.ballot)
        if acks >= self.quorum_size:
            return proposal_value
        return None


class ReplicatedLog:
    """Convenience wrapper: a leader appending commands to a Paxos log.

    This is the "multi-decree" layer ZippyDB uses: the primary replica is
    the distinguished proposer; appends go to the next free slot, retrying
    on conflicts (a competing command that wins a slot pushes ours to the
    next one).
    """

    def __init__(self, proposer: Proposer) -> None:
        self.proposer = proposer
        self._next_slot = 0

    def append(self, command: Any, max_slot_probes: int = 16) -> Optional[int]:
        """Append ``command``; returns its slot, or None if no quorum."""
        for _probe in range(max_slot_probes):
            slot = self._next_slot
            chosen = self.proposer.propose(slot, command)
            if chosen is None:
                return None  # no quorum reachable
            self._next_slot = slot + 1
            if chosen == command:
                return slot
            # Another command owned this slot; try the next one.
        return None

    def chosen_prefix(self) -> List[Any]:
        """The contiguous chosen prefix of the log."""
        chosen = self.proposer.learner.chosen
        prefix = []
        slot = 0
        while slot in chosen:
            prefix.append(chosen[slot])
            slot += 1
        return prefix
