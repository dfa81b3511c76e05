"""Replication substrates (the Paxos acceptor, for the ZippyDB example)."""

from .paxos import Accepted, Acceptor, Ballot

__all__ = ["Accepted", "Acceptor", "Ballot"]
