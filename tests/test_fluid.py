"""Unit tests for the hybrid fluid traffic engine.

Covers the mode-agnostic substrate (M/G/k math, epoch driver, rate
curves), the clamped-rate edge behaviour (property-based), the
FluidClient's serving-truth resolution against real ApplicationServers,
and the determinism contract (same seed + spec -> identical fluid
journal digest).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.client import _MAX_RATE, _MIN_RATE, WorkloadRecorder, clamped_rate
from repro.app.server import DROP_GRACE, HostedState
from repro.core.shard_map import ShardMap, ShardMapDelta, ShardMapEntry
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.harness import SimCluster, deploy_app
from repro.obs import Observability, use
from repro.obs.checker import TraceChecker
from repro.sim.engine import Engine, SimulationError
from repro.sim.fluid import EpochDriver, mgk_utilization, mgk_wait
from repro.sim.network import LatencyModel
from repro.workloads.load import ConstantCurve, DiurnalCurve, mean_rate

# -- M/G/k approximation -----------------------------------------------------


def test_mgk_utilization_basic():
    assert mgk_utilization(10.0, 0.05, 1) == pytest.approx(0.5)
    assert mgk_utilization(10.0, 0.05, 2) == pytest.approx(0.25)
    assert mgk_utilization(0.0, 0.05, 4) == 0.0
    assert mgk_utilization(10.0, 0.0, 4) == 0.0
    # Offered load may exceed 1 (callers shed the excess).
    assert mgk_utilization(100.0, 0.05, 1) == pytest.approx(5.0)


def test_mgk_wait_matches_mm1():
    """Sakasegawa with k=1, Ca2=Cs2=1 is exactly M/M/1: Wq = rho*S/(1-rho)."""
    lam, service = 8.0, 0.1
    rho = lam * service
    expected = rho * service / (1.0 - rho)
    assert mgk_wait(lam, service, 1) == pytest.approx(expected)


def test_mgk_wait_monotone_in_load_and_servers():
    waits = [mgk_wait(lam, 0.1, 4) for lam in (10.0, 20.0, 30.0, 39.0)]
    assert waits == sorted(waits)
    assert mgk_wait(20.0, 0.1, 8) < mgk_wait(20.0, 0.1, 4)


def test_mgk_wait_saturation_is_inf():
    assert mgk_wait(10.0, 0.1, 1) == math.inf
    assert mgk_wait(20.0, 0.1, 1) == math.inf


def test_mgk_input_validation():
    with pytest.raises(ValueError):
        mgk_utilization(1.0, 0.1, 0)
    with pytest.raises(ValueError):
        mgk_utilization(-1.0, 0.1, 1)


def test_jitter_factors_match_event_mode_sampling():
    """The analytic factors agree with the event path's empirical RTT:
    two one-way legs drawn from ``LatencyModel.sample`` itself."""
    import random
    rng = random.Random(7)
    model = LatencyModel({("A", "B"): 1.0})
    samples = sorted(model.sample("A", "B", rng) + model.sample("B", "A", rng)
                     for _ in range(200_000))
    mean = sum(samples) / len(samples)
    p99 = samples[int(0.99 * len(samples))]
    assert 2.0 * model.jitter_mean_factor() == pytest.approx(mean, rel=1e-3)
    assert 2.0 * model.jitter_p99_factor() == pytest.approx(p99, rel=1e-3)


# -- rate curves (shared by both traffic modes) ------------------------------


def test_diurnal_integral_matches_numeric():
    curve = DiurnalCurve(base=10.0, peak=40.0, period=3600.0, phase=900.0)
    t0, t1 = 100.0, 2900.0
    steps = 20_000
    width = (t1 - t0) / steps
    numeric = sum(curve(t0 + (i + 0.5) * width) for i in range(steps)) * width
    assert curve.integral(t0, t1) == pytest.approx(numeric, rel=1e-6)


def test_constant_curve():
    curve = ConstantCurve(12.5)
    assert curve(0.0) == 12.5
    assert curve.integral(10.0, 30.0) == pytest.approx(250.0)
    with pytest.raises(ValueError):
        ConstantCurve(-1.0)


def test_mean_rate_uses_integral_and_simpson_fallback():
    curve = DiurnalCurve(base=10.0, peak=40.0, period=3600.0)
    exact = mean_rate(curve, 0.0, 1800.0)
    # A bare callable (no .integral) goes through composite Simpson.
    fallback = mean_rate(lambda t: curve(t), 0.0, 1800.0)
    assert fallback == pytest.approx(exact, rel=1e-3)
    assert mean_rate(curve, 50.0, 50.0) == pytest.approx(curve(50.0))


# -- clamped_rate edge behaviour (satellite: property test) ------------------


@settings(max_examples=200, deadline=None)
@given(value=st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, math.inf, -math.inf,
                     math.nan, _MIN_RATE, _MAX_RATE])))
def test_clamped_rate_always_finite_positive(value):
    """Any float in -> a finite rate in [_MIN_RATE, _MAX_RATE] out, and
    the reciprocal (the expected inter-arrival delay) is finite too."""
    rate = clamped_rate(value)
    assert _MIN_RATE <= rate <= _MAX_RATE
    assert rate == rate  # not NaN
    assert math.isfinite(rate)
    assert math.isfinite(1.0 / rate)


@settings(max_examples=100, deadline=None)
@given(value=st.floats(min_value=_MIN_RATE, max_value=_MAX_RATE,
                       allow_nan=False, allow_infinity=False))
def test_clamped_rate_passes_normal_values_through(value):
    """In-range rates are untouched — seeded event traces depend on it."""
    assert clamped_rate(value) == value


# -- WorkloadRecorder.record_bulk --------------------------------------------


def test_record_bulk_folds_into_same_sinks():
    recorder = WorkloadRecorder.with_bucket(10.0)
    recorder.record_bulk(5.0, ok=90.5, failed=9.5, mean_latency=0.05)
    recorder.record_bulk(15.0, ok=50.0, failed=0.0)
    ok, failed = recorder.success.totals(0)
    assert ok == pytest.approx(90.5)
    assert failed == pytest.approx(9.5)
    assert recorder.sent == pytest.approx(150.0)
    assert recorder.succeeded == pytest.approx(140.5)
    assert recorder.failed == pytest.approx(9.5)
    assert recorder.latency.mean() == pytest.approx(0.05)


# -- EpochDriver -------------------------------------------------------------


class _IntervalLog:
    def __init__(self):
        self.intervals = []

    def advance(self, t0, t1):
        self.intervals.append((t0, t1))


def test_epoch_driver_tiles_the_window_exactly():
    engine = Engine()
    driver = EpochDriver(engine, epoch=5.0)
    process = _IntervalLog()
    driver.add(process)
    driver.start(until=engine.now + 17.0)
    engine.run(until=100.0)
    assert driver.finished
    assert driver.epochs_run == 4
    # Intervals tile [0, 17] with no gap or overlap; last tick aligned.
    assert process.intervals[0][0] == pytest.approx(0.0)
    assert process.intervals[-1][1] == pytest.approx(17.0)
    for (a0, a1), (b0, b1) in zip(process.intervals, process.intervals[1:]):
        assert a1 == pytest.approx(b0)


def test_epoch_driver_rejects_bad_start():
    engine = Engine()
    driver = EpochDriver(engine, epoch=5.0)
    with pytest.raises(SimulationError):
        driver.start(until=engine.now)
    with pytest.raises(SimulationError):
        EpochDriver(engine, epoch=0.0)


def test_epoch_driver_stop_cancels_future_ticks():
    engine = Engine()
    driver = EpochDriver(engine, epoch=5.0)
    process = _IntervalLog()
    driver.add(process)
    driver.start(until=engine.now + 50.0)
    engine.run(until=12.0)
    driver.stop()
    engine.run(until=100.0)
    assert len(process.intervals) == 2


def test_stopped_driver_pending_tick_integrates_nothing():
    engine = Engine()
    driver = EpochDriver(engine, epoch=5.0)
    process = _IntervalLog()
    driver.add(process)
    driver.start(until=engine.now + 50.0)
    engine.run(until=7.0)
    driver.stop()                          # the t=10 tick is still queued
    assert engine.pending_events == 1
    engine.run(until=100.0)
    assert engine.processed_events == 2    # it ran, as a no-op
    assert process.intervals == [(0.0, 5.0)]
    assert driver.epochs_run == 1 and driver.finished


# -- FluidClient serving-truth resolution ------------------------------------


def _small_app(seed=0, shards=40, servers=4):
    cluster = SimCluster.build(regions=("FRC",), machines_per_region=servers + 2,
                               seed=seed)
    spec = AppSpec(name="fluid-test",
                   shards=uniform_shards(shards, key_space=shards * 16),
                   replication=ReplicationStrategy.PRIMARY_ONLY)
    app = deploy_app(cluster, spec, {"FRC": servers}, settle=60.0)
    return cluster, app


def test_fluid_client_tracks_full_health():
    cluster, app = _small_app()
    fluid = app.fluid_client(cluster, "FRC")
    recorder = WorkloadRecorder.with_bucket(10.0)
    fluid.run_workload(duration=60.0, rate=ConstantCurve(100.0),
                       recorder=recorder, epoch=5.0)
    cluster.run(until=cluster.engine.now + 70.0)
    assert fluid.flow_count() == 40
    assert recorder.succeeded == pytest.approx(6000.0, rel=1e-6)
    assert recorder.failed == pytest.approx(0.0, abs=1e-9)
    # Latency mirrors the event path's analytic RTT (zero queueing).
    assert recorder.latency.mean() > 0.0


def test_fluid_client_sees_server_shutdown_via_fingerprints():
    cluster, app = _small_app()
    fluid = app.fluid_client(cluster, "FRC")
    recorder = WorkloadRecorder.with_bucket(10.0)
    fluid.run_workload(duration=200.0, rate=ConstantCurve(100.0),
                       recorder=recorder, epoch=5.0)
    cluster.run(until=cluster.engine.now + 20.0)
    assert recorder.failed == pytest.approx(0.0, abs=1e-9)
    # Kill one server's container abruptly: its flows must go unhealthy
    # at the next epoch, without any map publish.
    victim = app.containers[0]
    assert app.runtime.server_at(victim.address)._shards
    victim.mark_stopped()  # crash: no "stopping" notification first
    cluster.run(until=cluster.engine.now + 10.0)
    assert recorder.failed > 0.0


def test_fluid_client_follows_forwarding_chains():
    cluster, app = _small_app()
    fluid = app.fluid_client(cluster, "FRC")
    recorder = WorkloadRecorder.with_bucket(10.0)
    fluid.run_workload(duration=400.0, rate=ConstantCurve(50.0),
                       recorder=recorder, epoch=5.0)
    cluster.run(until=cluster.engine.now + 20.0)

    # Hand-build a §4.3 mid-migration state: old owner FORWARDING to a
    # PREPARING new owner.  The flow must stay healthy (served via the
    # chain), exactly like the event path.
    source = app.containers[0].address
    target = app.containers[1].address
    server = app.runtime.server_at(source)
    shard_id = next(iter(server._shards))
    target_server = app.runtime.server_at(target)
    target_server._rpc_prepare_add_shard(
        {"shard_id": shard_id, "role": "primary"})
    server._rpc_prepare_drop_shard(
        {"shard_id": shard_id, "new_owner": target})
    cluster.run(until=cluster.engine.now + 10.0)
    assert recorder.failed == pytest.approx(0.0, abs=1e-9)
    flow = fluid._flows[shard_id]
    assert flow.routed == source
    assert flow.serving == target

    # A PREPARING replica reached *directly* does not serve.
    server._rpc_drop_shard({"shard_id": shard_id})
    # Simulate the map still pointing at the old owner after the grace
    # drop: the chain breaks and the flow goes unhealthy.
    cluster.run(until=cluster.engine.now + DROP_GRACE + 10.0)
    assert not fluid._flows[shard_id].healthy


def test_fluid_overload_sheds_excess():
    cluster, app = _small_app(shards=16, servers=2)
    fluid = app.fluid_client(cluster, "FRC", capacity=1, service_time=0.1)
    recorder = WorkloadRecorder.with_bucket(10.0)
    # 2 servers x capacity 1 x 10/s service = 20/s fleet capacity; offer 60/s.
    fluid.run_workload(duration=100.0, rate=ConstantCurve(60.0),
                       recorder=recorder, epoch=5.0)
    cluster.run(until=cluster.engine.now + 110.0)
    assert fluid.overload_onsets >= 1
    assert recorder.failed > 0.0
    served_rate = recorder.succeeded / 100.0
    assert served_rate <= 21.0  # can't serve past capacity


def test_fluid_overload_onset_and_recovery_are_journaled():
    """Offered load above, then below, ``OVERLOAD_THRESHOLD``: one onset
    and one recovery per server, counted and journaled at the tick that
    saw the change."""
    obs = Observability()
    with use(obs):
        cluster, app = _small_app(shards=16, servers=2)
        fluid = app.fluid_client(cluster, "FRC", capacity=1,
                                 service_time=0.1)
        start = cluster.engine.now
        # 2 servers x 10/s: 60/s overloads both, 4/s is 20 % utilization.
        fluid.run_workload(
            duration=100.0, recorder=WorkloadRecorder.with_bucket(10.0),
            rate=lambda t: 60.0 if t < start + 50.0 else 4.0, epoch=5.0)
        cluster.run(until=start + 110.0)
    assert (fluid.overload_onsets, fluid.overload_recoveries) == (2, 2)
    instants = [(record.name, record.time - start, record.args["address"])
                for record in obs.journal
                if record.track == "fluid" and record.name.startswith(
                    "overload_")]
    servers = sorted(c.address for c in app.containers)
    assert sorted(instants) == sorted(
        [("overload_onset", 5.0, address) for address in servers]
        + [("overload_recovery", 55.0, address) for address in servers])
    assert all(server.overloaded is False
               for server in fluid._servers.values())
    assert TraceChecker(obs.journal).check() == []


def _assert_books_balance(fluid):
    """The aggregates equal a from-scratch sum over the flows."""
    flows = list(fluid._flows.values())
    assert fluid._total_share == pytest.approx(sum(f.share for f in flows))
    assert fluid._healthy_share == pytest.approx(
        sum(f.share for f in flows if f.healthy))
    by_address = {}
    for flow in flows:
        if flow.healthy:
            by_address[flow.serving] = (by_address.get(flow.serving, 0.0)
                                        + flow.share)
    assert fluid._share_by_address == pytest.approx(by_address)
    indexed = {address: {f.shard_id for f in flows
                         if address in (f.routed, f.serving)}
               for address in fluid._flows_by_address}
    assert fluid._flows_by_address == indexed


def test_fluid_map_update_that_changes_the_shard_set():
    """Resyncs whose map splits, merges, adds and removes shards: flows
    follow the map and every aggregate stays a sum over them.  A delta
    cannot re-partition, so one cut from another layout is a resync."""
    cluster, app = _small_app(shards=8, servers=2)
    fluid = app.fluid_client(cluster, "FRC")
    cluster.run(until=cluster.engine.now + 5.0)
    current = fluid._map
    assert fluid.flow_count() == 8
    entries = [current.entry_at(i) for i in range(len(current))]
    a, b = sorted(c.address for c in app.containers)
    # shard0 is split in two, shard1 moves, shard7 disappears.
    first = entries[0]
    middle = (first.key_low + first.key_high) // 2
    resynced = [
        ShardMapEntry(first.shard_id, first.key_low, middle, first.primary,
                      ()),
        ShardMapEntry("shard0b", middle, first.key_high, first.primary, ()),
        ShardMapEntry(entries[1].shard_id, entries[1].key_low,
                      entries[1].key_high,
                      b if entries[1].primary == a else a, ()),
    ] + entries[2:7]
    fluid._on_map(ShardMap.from_entries(current.app, current.version + 1,
                                        resynced))
    assert fluid.full_reprices == 2
    assert set(fluid._flows) == {e.shard_id for e in resynced}
    assert fluid._flows["shard0"].share == float(middle - first.key_low)
    assert fluid._flows["shard1"].routed == resynced[2].primary
    assert fluid._total_share == pytest.approx(
        sum(e.key_high - e.key_low for e in resynced))
    _assert_books_balance(fluid)
    # A second re-partition that chains on by version: shard0b grows
    # back over shard0's half (a merge), and a shard the client has never
    # seen appears.  Its delta was cut from the new layout, not the one
    # the client holds, so the client resyncs from the full map.
    grown = ShardMapEntry("shard0b", first.key_low, first.key_high, b, ())
    fresh = ShardMapEntry("shard9", entries[7].key_low, entries[7].key_high,
                          a, ())
    repartitioned = [resynced[0], grown] + resynced[2:] + [fresh]
    merged = ShardMap.from_entries(current.app, current.version + 2,
                                   repartitioned)
    delta = ShardMapDelta(current.app, merged.version, current.version + 1,
                          merged.key_index, (1, len(repartitioned) - 1),
                          (b, a), ((), ()))
    fluid._on_map(merged, delta)
    assert fluid.full_reprices == 3
    assert fluid.delta_reprices == 0
    assert set(fluid._flows) == {e.shard_id for e in repartitioned}
    assert fluid._flows["shard0b"].share == float(
        first.key_high - first.key_low)
    assert fluid._flows["shard0b"].routed == b
    assert fluid._flows["shard9"].routed == a
    assert fluid._total_share == pytest.approx(
        sum(e.key_high - e.key_low for e in repartitioned))
    _assert_books_balance(fluid)
    # A delta cut from the layout the client holds reprices in place.
    moved = ShardMapDelta(current.app, merged.version + 1, merged.version,
                          merged.key_index, (len(repartitioned) - 1,),
                          (b,), ((),))
    fluid._on_map(merged.apply_delta(moved), moved)
    assert fluid.full_reprices == 3
    assert fluid.delta_reprices == 1
    assert fluid._flows["shard9"].routed == b
    _assert_books_balance(fluid)


# -- determinism: same seed + spec -> identical fluid journal digest ---------


def _digest_of_run(seed):
    obs = Observability(capacity=1 << 18)
    with use(obs):
        cluster, app = _small_app(seed=seed)
        fluid = app.fluid_client(cluster, "FRC")
        recorder = WorkloadRecorder.with_bucket(10.0)
        fluid.run_workload(duration=300.0, rate=ConstantCurve(80.0),
                           recorder=recorder, epoch=5.0)
        container = app.containers[0]
        cluster.engine.call_at(cluster.engine.now + 60.0,
                               container.mark_stopped)
        cluster.run(until=cluster.engine.now + 320.0)
        checker = TraceChecker(obs.journal)
        assert not checker.check_fluid()
    fluid_records = [r for r in obs.journal if r.track == "fluid"]
    assert fluid_records, "fluid epochs must be journaled"
    return obs.journal.digest()


def test_fluid_journal_digest_is_deterministic():
    assert _digest_of_run(11) == _digest_of_run(11)


def test_fluid_journal_digest_varies_with_seed():
    assert _digest_of_run(11) != _digest_of_run(12)
