"""The spec's bulk build and validation against the per-shard loops.

``AppSpec.__post_init__`` validates in bulk passes (a set for duplicate
ids, two stable sorts of the key ranges for their order) and
``uniform_shards`` builds positionally.  The loops they replaced are kept
here as oracles: every bad spec must raise the same ``ValueError`` text,
and ``uniform_shards`` must return equal shards, on hand-written and
hypothesis-generated inputs.
"""

from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.spec import (AppSpec, KeyRange, ReplicationStrategy,
                             ShardSpec, uniform_shards)


def oracle_error(name: str, shards: List[ShardSpec],
                 replication: ReplicationStrategy,
                 cap: int) -> Optional[str]:
    """The per-shard validation loops, returning the first error's text."""
    if not shards:
        return f"app {name}: needs at least one shard"
    seen_ids = set()
    for shard in shards:
        if shard.shard_id in seen_ids:
            return f"app {name}: duplicate shard {shard.shard_id}"
        seen_ids.add(shard.shard_id)
    if replication is ReplicationStrategy.PRIMARY_ONLY:
        for shard in shards:
            if shard.replica_count != 1:
                return (f"app {name}: primary-only shards must have "
                        f"exactly one replica (shard {shard.shard_id} has "
                        f"{shard.replica_count})")
    ranges = sorted((s.key_range.low, s.key_range.high) for s in shards)
    for (lo1, hi1), (lo2, _hi2) in zip(ranges, ranges[1:]):
        if lo2 < hi1:
            return (f"app {name}: overlapping key ranges "
                    f"[{lo1},{hi1}) and starting at {lo2}")
    if cap < 1:
        return "global concurrent-op cap must be >= 1"
    return None


def oracle_uniform(count: int, key_space: int, replica_count: int,
                   preferred_regions) -> List[ShardSpec]:
    """``uniform_shards`` as the keyword-built loop."""
    shards = []
    step = key_space // count
    for index in range(count):
        low = index * step
        high = key_space if index == count - 1 else (index + 1) * step
        preferred = (preferred_regions or {}).get(index)
        shards.append(ShardSpec(
            shard_id=f"shard{index}",
            key_range=KeyRange(low, high),
            replica_count=replica_count,
            preferred_region=preferred,
        ))
    return shards


def raised(shards: List[ShardSpec], replication: ReplicationStrategy,
           cap: int = 6) -> Optional[str]:
    try:
        AppSpec(name="app", shards=shards, replication=replication,
                max_concurrent_container_ops=cap)
    except ValueError as exc:
        return str(exc)
    return None


def shard(shard_id: str, low: int, high: int, replicas: int = 1) -> ShardSpec:
    return ShardSpec(shard_id, KeyRange(low, high), replicas)


PO = ReplicationStrategy.PRIMARY_ONLY
PS = ReplicationStrategy.PRIMARY_SECONDARY

HAND_WRITTEN = [
    ("empty", [], PO),
    ("duplicate id", [shard("a", 0, 1), shard("b", 1, 2), shard("a", 2, 3)],
     PO),
    ("second duplicate reported first-seen",
     [shard("b", 0, 1), shard("a", 1, 2), shard("a", 2, 3),
      shard("b", 3, 4)], PO),
    ("primary-only with two replicas",
     [shard("a", 0, 1), shard("b", 1, 2, replicas=2)], PO),
    ("primary-secondary allows two", [shard("a", 0, 1, replicas=2)], PS),
    ("overlap", [shard("a", 0, 10), shard("b", 5, 15)], PO),
    ("overlap out of order", [shard("b", 5, 15), shard("a", 0, 10)], PO),
    ("same low: the shorter range is named",
     [shard("a", 0, 9), shard("b", 0, 3)], PO),
    ("nested", [shard("a", 0, 100), shard("b", 10, 20), shard("c", 30, 40)],
     PO),
    ("touching ranges are fine",
     [shard("c", 20, 30), shard("a", 0, 10), shard("b", 10, 20)], PO),
    ("gaps are fine", [shard("a", 0, 5), shard("b", 50, 60)], PO),
    ("identical ranges", [shard("a", 3, 7), shard("b", 3, 7)], PO),
    ("duplicate before overlap", [shard("a", 0, 10), shard("a", 5, 15)], PO),
    ("replica count before overlap",
     [shard("a", 0, 10, replicas=3), shard("b", 5, 15)], PO),
]


@pytest.mark.parametrize("label,shards,replication", HAND_WRITTEN,
                         ids=[case[0] for case in HAND_WRITTEN])
def test_hand_written_specs_raise_the_loop_text(label, shards, replication):
    assert raised(shards, replication) == oracle_error(
        "app", shards, replication, 6)


def test_cap_checked_last():
    shards = [shard("a", 0, 1)]
    assert raised(shards, PO, cap=0) == oracle_error("app", shards, PO, 0)
    assert raised([], PO, cap=0) == oracle_error("app", [], PO, 0)


#: Up to 8 shards drawn from 8 ids over a 52-key space: duplicates,
#: overlaps, shared lows and touching ranges all come up often.
shard_specs = st.lists(
    st.tuples(st.sampled_from("abcdefgh"), st.integers(0, 40),
              st.integers(1, 12), st.integers(1, 3)).map(
        lambda t: shard(t[0], t[1], t[1] + t[2], t[3])),
    max_size=8)


@settings(max_examples=400, deadline=None)
@given(shards=shard_specs, replication=st.sampled_from(list(
    ReplicationStrategy)), cap=st.integers(0, 2))
def test_generated_specs_raise_the_loop_text(shards, replication, cap):
    assert raised(shards, replication, cap) == oracle_error(
        "app", shards, replication, cap)


@settings(max_examples=200, deadline=None)
@given(ids=st.permutations([f"s{i}" for i in range(8)]),
       cuts=st.lists(st.integers(1, 6), min_size=8, max_size=8),
       data=st.data())
def test_generated_tilings_validate_like_the_loop(ids, cuts, data):
    """Touching ranges in a shuffled order, with at most one bent to
    overlap its neighbour: valid unless bent, same text either way."""
    bounds = [0]
    for width in cuts:
        bounds.append(bounds[-1] + width)
    shards = [shard(shard_id, bounds[i], bounds[i + 1])
              for i, shard_id in enumerate(ids)]
    bend = data.draw(st.integers(-1, 6))
    if bend >= 0:
        victim = shards[bend]
        shards[bend] = shard(victim.shard_id, victim.key_range.low,
                             victim.key_range.high + 1)
    order = data.draw(st.permutations(range(8)))
    shards = [shards[i] for i in order]
    expected = oracle_error("app", shards, PO, 6)
    assert (expected is None) == (bend < 0)
    assert raised(shards, PO) == expected


@pytest.mark.parametrize("count,key_space,replicas,regions", [
    (1, 1, 1, None),
    (1, 1 << 32, 2, {0: "FRC"}),
    (3, 10, 1, None),
    (7, 7, 3, {}),
    (1000, 1 << 32, 1, {5: "PRN", 999: "FRC", 4000: "ODN"}),
    (400, 6400, 1, {i: "FRC" for i in range(0, 400, 3)}),
])
def test_uniform_shards_match_the_loop(count, key_space, replicas, regions):
    assert uniform_shards(count, key_space, replicas, regions) == (
        oracle_uniform(count, key_space, replicas, regions))


@settings(max_examples=200, deadline=None)
@given(count=st.integers(1, 60), extra=st.integers(0, 1000),
       replicas=st.integers(1, 3),
       regions=st.none() | st.dictionaries(st.integers(0, 70),
                                           st.sampled_from(["FRC", "PRN"]),
                                           max_size=5))
def test_generated_uniform_shards_match_the_loop(count, extra, replicas,
                                                 regions):
    key_space = count + extra
    assert uniform_shards(count, key_space, replicas, regions) == (
        oracle_uniform(count, key_space, replicas, regions))
