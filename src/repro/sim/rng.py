"""Seeded randomness helpers shared across the simulation.

Every experiment takes a ``seed`` so results are reproducible; components
derive independent sub-streams with :func:`substream` instead of sharing
one ``Random`` (sharing makes results depend on call interleaving).
"""

from __future__ import annotations

import hashlib
import random


def substream(seed: int, *labels: object) -> random.Random:
    """Derive an independent generator from ``seed`` and a label path.

    Hashing the labels keeps sub-streams stable even when components are
    created in different orders across runs.
    """
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


#: Figure 21's workload: "the largest shard's load is 20 times higher
#: than that of the smallest shard".
LOAD_SKEW = 20.0


def skewed_loads(rng: random.Random, count: int,
                 mean: float = 1.0) -> list[float]:
    """Per-shard loads whose max/min ratio is ≈ ``LOAD_SKEW``: sampled
    log-uniformly over that range, then rescaled to the requested mean.
    """
    if count <= 0:
        return []
    low = 1.0
    high = LOAD_SKEW
    raw = [low * (high / low) ** rng.random() for _ in range(count)]
    scale = mean * count / sum(raw)
    return [value * scale for value in raw]
