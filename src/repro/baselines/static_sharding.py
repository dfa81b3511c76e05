"""Static sharding: the taskID-modulo scheme SM displaces (§2.2.1).

"The task with taskID = key mod total_tasks is responsible for the key."
Static sharding is ≈3x more popular than consistent hashing at Facebook
despite resharding costs — we implement it (and its resharding cost
accounting) as the baseline legacy scheme for comparisons and examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence


@dataclass(frozen=True)
class ReshardingImpact:
    """What a change of task count does to key ownership."""

    moved_fraction: float
    total_sampled: int


class StaticSharding:
    """Fixed key → taskID binding by modulo."""

    def __init__(self, total_tasks: int) -> None:
        if total_tasks < 1:
            raise ValueError("total_tasks must be >= 1")
        self.total_tasks = total_tasks

    def task_for_key(self, key: int) -> int:
        return key % self.total_tasks

    def reshard(self, new_total_tasks: int,
                sample_keys: Sequence[int]) -> ReshardingImpact:
        """Resize and measure how many sampled keys changed owner.

        For co-prime sizes nearly every key moves — the well-known cost
        that makes "resharding ... rare" (§2.2.1) but tolerable because
        most apps "rebuild soft state from an external persistent store".
        """
        if new_total_tasks < 1:
            raise ValueError("new_total_tasks must be >= 1")
        if not sample_keys:
            raise ValueError("need at least one sample key")
        moved = sum(1 for key in sample_keys
                    if key % self.total_tasks != key % new_total_tasks)
        self.total_tasks = new_total_tasks
        return ReshardingImpact(moved_fraction=moved / len(sample_keys),
                                total_sampled=len(sample_keys))

    def load_distribution(self, keys: Sequence[int]) -> Dict[int, int]:
        """Keys per task, for imbalance comparisons against SM's LB."""
        counts: Dict[int, int] = {task: 0 for task in range(self.total_tasks)}
        for key in keys:
            counts[self.task_for_key(key)] += 1
        return counts
