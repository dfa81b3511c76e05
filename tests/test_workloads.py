"""Unit tests for workload generators."""

import json
import math
import random
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, repeat
from pathlib import Path

import pytest

from repro.workloads.load import (
    DAY,
    DiurnalCurve,
    ZipfKeySampler,
)
from repro.workloads import snapshots
from repro.workloads.snapshots import (
    PAPER_SCALES,
    SnapshotScale,
    attach_zippydb_goals,
    scaled,
    zippydb_snapshot,
)


class TestDiurnal:
    def test_bounds(self):
        curve = DiurnalCurve(base=10.0, peak=50.0, period=DAY)
        samples = [curve(t) for t in range(0, int(DAY), 3600)]
        assert min(samples) >= 10.0 - 1e-9
        assert max(samples) <= 50.0 + 1e-9

    def test_periodicity(self):
        curve = DiurnalCurve(base=1.0, peak=3.0, period=100.0)
        assert curve(10.0) == pytest.approx(curve(110.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalCurve(base=5.0, peak=1.0)
        with pytest.raises(ValueError):
            DiurnalCurve(base=1.0, peak=2.0, period=0.0)

    def test_zipfian_sampler_has_hot_set(self):
        sampler = ZipfKeySampler(10_000, skew=2.0)
        rng = random.Random(5)
        hits = sum(1 for _ in range(2000) if sampler(rng) < 100)
        assert hits > 600  # far above the uniform expectation of ~20


class TestZipf:
    """Statistical checks on the bounded Zipf sampler: the satellite
    bugfix replacing the old flat hot/cold two-tier mix."""

    def test_rank_frequency_slope_matches_skew(self):
        # On a log-log plot a Zipf(s) rank-frequency line has slope -s.
        skew = 1.2
        sampler = ZipfKeySampler(1000, skew=skew)
        rng = random.Random(11)
        counts = [0] * sampler.key_space
        for _ in range(120_000):
            counts[sampler(rng)] += 1
        # Fit over the top ranks, where counts are large enough that
        # sampling noise cannot swamp the slope.
        xs, ys = [], []
        for rank in range(40):
            assert counts[rank] > 0
            xs.append(math.log(rank + 1))
            ys.append(math.log(counts[rank]))
        n = len(xs)
        mean_x, mean_y = sum(xs) / n, sum(ys) / n
        slope = (sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
                 / sum((x - mean_x) ** 2 for x in xs))
        assert slope == pytest.approx(-skew, abs=0.1)

    def test_empirical_mass_matches_exact_pmf(self):
        sampler = ZipfKeySampler(1000, skew=1.5)
        rng = random.Random(3)
        draws = 50_000
        counts = [0] * 10
        for _ in range(draws):
            key = sampler(rng)
            if key < 10:
                counts[key] += 1
        for rank in range(10):
            expected = sampler.probability(rank) * draws
            assert counts[rank] == pytest.approx(expected, rel=0.1)

    def test_deterministic_under_fixed_seed(self):
        a = ZipfKeySampler(4096, skew=1.3)
        b = ZipfKeySampler(4096, skew=1.3)
        rng_a, rng_b = random.Random(42), random.Random(42)
        assert [a(rng_a) for _ in range(500)] == [b(rng_b) for _ in range(500)]

    def test_single_draw_per_sample(self):
        # One rng.random() per key: the draw-count contract seeded
        # experiment traces rely on.
        class CountingRandom(random.Random):
            calls = 0

            def random(self):
                self.calls += 1
                return super().random()

        rng = CountingRandom(7)
        sampler = ZipfKeySampler(100, skew=2.0)
        for _ in range(50):
            sampler(rng)
        assert rng.calls == 50

    def test_stride_scatters_hot_ranks(self):
        sampler = ZipfKeySampler(1000, skew=1.4, stride=373)
        rng = random.Random(4)
        counts = Counter(sampler(rng) for _ in range(20_000))
        # Rank r is key (r * 373) % 1000: the hottest keys sit far apart.
        assert [key for key, _ in counts.most_common(4)] == [
            0, 373, 746, (3 * 373) % 1000]

    def test_rotate_moves_hot_set(self):
        sampler = ZipfKeySampler(1000, skew=2.5)
        rng = random.Random(1)
        sampler.rotate(500)
        hits = sum(1 for _ in range(2000) if 500 <= sampler(rng) < 600)
        assert hits > 1500  # the mass followed the rotation

    @pytest.mark.parametrize("skew", [0, 0.0, 1.1, 1.4, 2])
    def test_cdf_is_the_loops_running_sum(self, skew):
        """The one-pass CDF holds, bit for bit, the ``total += rank **
        -skew`` loop's partial sums (float ones, an int skew included)."""
        key_space = 50_000
        cdf, total = [], 0.0
        for rank in range(1, key_space + 1):
            total += rank ** -skew
            cdf.append(total)
        sampler = ZipfKeySampler(key_space, skew=skew)
        assert [value.hex() for value in sampler._cdf] == [
            value.hex() for value in cdf]
        assert sampler._total.hex() == total.hex()

    def test_samples_equal_bisect_over_a_list_cdf(self):
        """The CDF is an ``array('d')`` of the same doubles a list of
        floats would hold, so every draw lands on the rank a
        ``bisect_left`` over that list picks."""
        key_space, skew, stride = 10_000, 1.1, 17
        sampler = ZipfKeySampler(key_space, skew=skew, stride=stride)
        assert isinstance(sampler._cdf, array)
        assert sampler._cdf.typecode == "d"
        cdf = list(accumulate(map(pow, range(1, key_space + 1),
                                  repeat(-skew))))
        oracle_rng, rng = random.Random(9), random.Random(9)
        expected = []
        for _ in range(1_000):
            rank = min(bisect_left(cdf, oracle_rng.random() * cdf[-1]),
                       key_space - 1)
            expected.append(rank * stride % key_space)
        assert [sampler(rng) for _ in range(1_000)] == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfKeySampler(0)
        with pytest.raises(ValueError):
            ZipfKeySampler(100, skew=-1.0)
        with pytest.raises(ValueError):
            ZipfKeySampler(100, stride=10)  # gcd(10, 100) != 1


class TestSnapshots:
    def test_scaled_preserves_ratios(self):
        scales = scaled(PAPER_SCALES, factor=10)
        assert scales[0].servers == 100
        assert scales[2].shards // scales[0].shards == 5

    def test_snapshot_matches_scale(self):
        scale = SnapshotScale(servers=50, shards=500)
        problem = zippydb_snapshot(scale, seed=1)
        assert len(problem.servers) == 50
        assert len(problem.loads) == 500
        assert problem.metrics == ["cpu", "storage", "shard_count"]

    def test_capacity_heterogeneity(self):
        problem = zippydb_snapshot(SnapshotScale(100, 1000), seed=1)
        cpu_caps = [c[0] for c in problem.capacity]
        assert max(cpu_caps) / min(cpu_caps) > 1.1

    def test_load_skew(self):
        problem = zippydb_snapshot(SnapshotScale(50, 2000), seed=1)
        cpu_loads = [l[0] for l in problem.loads]
        assert max(cpu_loads) / min(cpu_loads) == pytest.approx(20.0, rel=0.3)

    def test_random_assignment_has_violations(self):
        problem = zippydb_snapshot(SnapshotScale(100, 5000), seed=0)
        rebalancer = attach_zippydb_goals(problem)
        assert rebalancer.violations() > 0

    def test_deterministic(self):
        a = zippydb_snapshot(SnapshotScale(20, 100), seed=7)
        b = zippydb_snapshot(SnapshotScale(20, 100), seed=7)
        assert a.assignment == b.assignment
        assert a.loads == b.loads

    def test_one_name_string_per_shard(self, monkeypatch):
        """One replica a shard: the replica is named after its shard by
        the same string object, not an equal second one."""
        rows = []
        build = snapshots.PlacementProblem
        monkeypatch.setattr(
            snapshots, "PlacementProblem",
            lambda metrics, servers, replicas:
                rows.extend(replicas) or build(metrics, servers, replicas))
        zippydb_snapshot(SnapshotScale(4, 30), seed=2)
        assert len(rows) == 30
        assert all(r.name is r.shard for r in rows)

    @pytest.mark.parametrize("pin", json.loads(
        (Path(__file__).parent / "fixtures" / "zippydb_snapshot_pins.json")
        .read_text()), ids=lambda pin: f"{pin['servers']}x{pin['shards']}")
    def test_same_draws_as_the_pinned_snapshots(self, pin):
        """Bit-equal to snapshots recorded before the build was rewritten
        (``uniform`` written out, draws hoisted out of the fill): every
        Fig 21/22 number and ``solver_place`` fingerprint rests on them."""
        problem = zippydb_snapshot(
            SnapshotScale(pin["servers"], pin["shards"]), seed=pin["seed"])
        assert [list(c) for c in problem.capacity] == pin["capacity"]
        assert problem.assignment == pin["assignment"]
        assert [list(load) for load in problem.loads] == pin["loads"]
        assert problem.usage == pin["usage"]
