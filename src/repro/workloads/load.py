"""Load shapes: diurnal curves and skewed per-shard load assignment.

Figures 18 and 23 are driven by Facebook's real diurnal traffic ("the
client request rate ... follows a diurnal pattern", "the ever-changing
load driven by billions of Facebook product users' realtime activities").
:class:`DiurnalCurve` reproduces that shape: a day-period sinusoid with
optional noise, normalized so ``base`` is the trough and ``peak`` the
crest.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Callable, List

DAY = 86_400.0


@dataclass(frozen=True)
class DiurnalCurve:
    """rate(t): trough-to-crest sinusoid with period one (simulated) day."""

    base: float
    peak: float
    period: float = DAY
    phase: float = 0.0  # seconds after t=0 when the curve crosses its mean

    def __post_init__(self) -> None:
        if self.base < 0 or self.peak < self.base:
            raise ValueError("need 0 <= base <= peak")
        if self.period <= 0:
            raise ValueError("period must be positive")

    def __call__(self, t: float) -> float:
        mean = (self.base + self.peak) / 2.0
        amplitude = (self.peak - self.base) / 2.0
        return mean + amplitude * math.sin(
            2.0 * math.pi * (t - self.phase) / self.period)

    def integral(self, t0: float, t1: float) -> float:
        """Exact integral of the rate over ``[t0, t1]`` (requests)."""
        if t1 < t0:
            raise ValueError("need t0 <= t1")
        mean = (self.base + self.peak) / 2.0
        amplitude = (self.peak - self.base) / 2.0
        omega = 2.0 * math.pi / self.period
        area = mean * (t1 - t0)
        area -= (amplitude / omega) * (math.cos(omega * (t1 - self.phase))
                                       - math.cos(omega * (t0 - self.phase)))
        return area


@dataclass(frozen=True)
class ConstantCurve:
    """rate(t) = rate.  The shared form of fig17/fig19's fixed-rate arms,
    usable by both the per-request driver and the fluid integrator."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be >= 0")

    def __call__(self, t: float) -> float:
        return self.rate

    def integral(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ValueError("need t0 <= t1")
        return self.rate * (t1 - t0)


#: Simpson intervals :func:`mean_rate` spends on a curve without an exact
#: integral (even, as Simpson's rule needs).
SIMPSON_SAMPLES = 8


def mean_rate(curve: Callable[[float], float], t0: float, t1: float) -> float:
    """Average rate of any curve over ``[t0, t1]``.

    Uses the curve's exact ``integral`` when it has one (the curves in
    this module all do); otherwise a composite-Simpson fallback, which is
    exact for polynomials up to cubic and deterministic for everything.
    This is the single quantity the fluid epoch integrator needs from a
    rate curve — both traffic modes therefore share curve definitions.
    """
    if t1 < t0:
        raise ValueError("need t0 <= t1")
    if t1 == t0:
        return max(0.0, curve(t0))
    integral = getattr(curve, "integral", None)
    if integral is not None:
        return max(0.0, integral(t0, t1) / (t1 - t0))
    width = (t1 - t0) / SIMPSON_SAMPLES
    total = curve(t0) + curve(t1)
    for i in range(1, SIMPSON_SAMPLES):
        total += curve(t0 + i * width) * (4.0 if i % 2 else 2.0)
    return max(0.0, total * width / 3.0 / (t1 - t0))


class ZipfKeySampler:
    """True bounded Zipf(s) key sampler.

    Rank ``i`` (0-based) carries probability ``(i + 1) ** -s`` normalized
    over ``key_space`` ranks — the standard bounded Zipf law.  Sampling is
    one ``rng.random()`` draw binary-searched against the precomputed
    cumulative harmonic sums, so it is O(log n) per key and fully
    deterministic under a seeded RNG.

    Ranks map to keys through an affine bijection
    ``key = (offset + rank * stride) % key_space`` (``stride`` must be
    coprime with ``key_space``; ``offset`` starts at 0).  ``stride=1`` keeps the hottest keys at
    the low end of the key space (adjacent, i.e. concentrated on few
    shards under range sharding); a larger stride scatters the hot ranks
    across the key space so many shards carry a hot key.  ``rotate()``
    moves the mapping mid-run — the hook the skew experiment uses to
    shift the hot set while the clock runs.
    """

    __slots__ = ("key_space", "skew", "stride", "offset", "_cdf", "_total")

    def __init__(self, key_space: int, skew: float = 1.1,
                 stride: int = 1) -> None:
        if key_space < 1:
            raise ValueError("key_space must be >= 1")
        if skew < 0:
            raise ValueError("skew must be >= 0")
        if stride < 1 or math.gcd(stride, key_space) != 1:
            raise ValueError("stride must be >= 1 and coprime with key_space")
        self.key_space = key_space
        self.skew = skew
        self.stride = stride
        self.offset = 0
        # Left-to-right running sums of ``rank ** -skew`` in one C-level
        # pass; ``-float(skew)`` keeps every term and sum a float when
        # ``skew`` is an int.
        self._cdf: List[float] = list(accumulate(
            map(pow, range(1, key_space + 1), repeat(-float(skew)))))
        self._total = self._cdf[-1]

    def rotate(self, offset: int) -> None:
        """Move the hot set: rank ``i`` now maps to a new key window."""
        self.offset = offset % self.key_space

    def probability(self, rank: int) -> float:
        """Exact probability mass of the 0-based ``rank`` (what a test
        holds the sampled frequencies against)."""
        if not 0 <= rank < self.key_space:
            raise ValueError("rank out of range")
        return (rank + 1) ** -self.skew / self._total

    def __call__(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self._cdf, rng.random() * self._total)
        if rank >= self.key_space:  # guard the u == total edge
            rank = self.key_space - 1
        return (self.offset + rank * self.stride) % self.key_space
