"""Consistent hashing: the second legacy scheme of §2.2.1.

A classic virtual-node hash ring.  Despite its "theoretical advantage"
(only ~1/n of keys move when a node joins/leaves), it is 3x *less*
popular than static sharding at Facebook.  A ring is built for one
membership set and only looked up: ``baselines.pinned.ring_placement``
builds a new ring when membership changes, so there is no removal.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence


#: Points each node puts on the ring.
VIRTUAL_NODES = 64


def _hash64(data: str) -> int:
    return int.from_bytes(hashlib.sha256(data.encode()).digest()[:8], "big")


class ConsistentHashRing:
    """Virtual-node consistent hash ring over string node names."""

    def __init__(self, nodes: Sequence[str]) -> None:
        self._ring: List[int] = []            # sorted virtual-node hashes
        self._owner: Dict[int, str] = {}      # hash -> node
        self._nodes: set = set()
        for node in nodes:
            self.add_node(node)

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for index in range(VIRTUAL_NODES):
            point = _hash64(f"{node}#{index}")
            if point in self._owner:
                continue  # astronomically unlikely collision; skip the vnode
            bisect.insort(self._ring, point)
            self._owner[point] = node

    def node_for_key(self, key: int) -> str:
        if not self._ring:
            raise RuntimeError("ring is empty")
        point = _hash64(str(key))
        index = bisect.bisect_right(self._ring, point)
        if index == len(self._ring):
            index = 0
        return self._owner[self._ring[index]]
