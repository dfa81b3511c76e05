"""Unit tests for the Paxos acceptor (safety is the whole point).

The proposer is ZippyDB's Multi-Paxos leader (``repro.apps.zippydb``);
``tests/integration/test_end_to_end.py`` drives it over the simulated
network (quorum loss, primary crash).
"""

from repro.replication.paxos import Acceptor, Ballot, ZERO_BALLOT


class TestBallot:
    def test_ordering(self):
        assert Ballot(1, "a") < Ballot(2, "a")
        assert Ballot(1, "a") < Ballot(1, "b")
        assert ZERO_BALLOT < Ballot(0, "a")

    def test_le(self):
        assert Ballot(1, "a") <= Ballot(1, "a")


class TestAcceptor:
    def test_promise_and_accept(self):
        acceptor = Acceptor("a")
        ballot = Ballot(1, "p")
        ok, promised, accepted = acceptor.on_prepare_range(0, ballot)
        assert ok and promised == ballot and accepted == []
        assert acceptor.on_accept(0, ballot, "v").ok
        assert acceptor.on_prepare_range(0, Ballot(2, "p"))[2] == [
            (0, ballot, "v")]

    def test_lower_prepare_rejected(self):
        acceptor = Acceptor("a")
        acceptor.on_prepare_range(0, Ballot(5, "p"))
        ok, promised, accepted = acceptor.on_prepare_range(0, Ballot(3, "q"))
        assert not ok
        assert promised == Ballot(5, "p")
        assert accepted == []

    def test_equal_prepare_rejected(self):
        acceptor = Acceptor("a")
        acceptor.on_prepare_range(0, Ballot(5, "p"))
        assert not acceptor.on_prepare_range(0, Ballot(5, "p"))[0]

    def test_lower_accept_rejected(self):
        acceptor = Acceptor("a")
        acceptor.on_prepare_range(0, Ballot(5, "p"))
        accepted = acceptor.on_accept(0, Ballot(3, "q"), "v")
        assert not accepted.ok
        assert accepted.ballot == Ballot(5, "p")

    def test_promise_reports_prior_accept(self):
        """A per-slot accept at a higher ballot than the range floor is
        what a later, narrower ranged prepare must beat and report."""
        acceptor = Acceptor("a")
        acceptor.on_prepare_range(0, Ballot(1, "p"))
        acceptor.on_accept(4, Ballot(3, "q"), "old")
        assert not acceptor.on_prepare_range(2, Ballot(2, "r"))[0]
        ok, _promised, accepted = acceptor.on_prepare_range(5, Ballot(2, "r"))
        assert ok and accepted == []      # slot 4 is below from_slot
        ok, _promised, accepted = acceptor.on_prepare_range(2, Ballot(4, "r"))
        assert ok and accepted == [(4, Ballot(3, "q"), "old")]

    def test_range_promise_blocks_lower_per_slot(self):
        acceptor = Acceptor("a")
        ok, _promised, _accepted = acceptor.on_prepare_range(0, Ballot(5, "l"))
        assert ok
        assert not acceptor.on_accept(7, Ballot(4, "q"), "v").ok
        assert acceptor.on_accept(7, Ballot(5, "l"), "v").ok

    def test_range_promise_returns_accepted_entries(self):
        acceptor = Acceptor("a")
        ballot = Ballot(1, "p")
        acceptor.on_accept(0, ballot, "v0")
        acceptor.on_accept(2, ballot, "v2")
        ok, _promised, accepted = acceptor.on_prepare_range(0, Ballot(2, "l"))
        assert ok
        assert accepted == [(0, ballot, "v0"), (2, ballot, "v2")]

    def test_range_promise_rejected_by_higher(self):
        acceptor = Acceptor("a")
        acceptor.on_prepare_range(0, Ballot(9, "l1"))
        ok, promised, _ = acceptor.on_prepare_range(0, Ballot(5, "l2"))
        assert not ok
        assert promised == Ballot(9, "l1")
