"""The acceptor half of Multi-Paxos (the §2.4 "option 5" substrate).

"Our colleagues initially developed a Paxos library, hoping it would be
used along with SM to build many applications.  However, it eventually
had only one use case, i.e., ZippyDB."  Faithful to that history, this
module holds exactly what its one user imports: :class:`Ballot`,
:class:`Accepted` and an :class:`Acceptor` with ranged promises
(``on_prepare_range``) and ``on_accept``.  The proposer — the SM-elected
primary acting as the stable Multi-Paxos leader, driving both phases over
simulated RPCs — lives in ``repro.apps.zippydb``; there is no second,
transport-abstracted proposer here.

Safety (an accepted value is never displaced by a lower ballot) holds
under message loss, duplication and reordering; liveness requires a
majority of acceptors reachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple


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
class Accepted:
    """Phase-2b response."""

    ok: bool
    ballot: Ballot


class Acceptor:
    """One Paxos acceptor for a replicated log (per-slot state).

    Phase 1 is the *ranged* promise (``on_prepare_range``) — the
    Multi-Paxos leader election a stable leader (ZippyDB's SM-elected
    primary) runs once, so that every later append is a single
    ``on_accept`` round.
    """

    def __init__(self, acceptor_id: str) -> None:
        self.acceptor_id = acceptor_id
        self._promised: Dict[int, Ballot] = {}
        self._range_promised: Ballot = ZERO_BALLOT  # floor for all slots
        self._accepted: Dict[int, Tuple[Ballot, Any]] = {}

    def _promised_for(self, slot: int) -> Ballot:
        per_slot = self._promised.get(slot, ZERO_BALLOT)
        return max(per_slot, self._range_promised)

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
