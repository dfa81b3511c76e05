"""Golden-trace seed parity: the event sequence for a fixed seed is pinned.

A small Fig 17-style scenario (single region, rolling upgrade under an
open-loop workload) runs with RPC sends, RPC completions, and shard-map
publishes traced as ``(kind, time, detail)`` strings with exact float
reprs.  The full sequence is hashed and compared against a checked-in
fixture, so any change to event ordering, latency arithmetic, or RNG
draw order fails loudly — the determinism contract behind the engine's
fast paths (see DESIGN.md).

Regenerate the fixture after an *intentional* behaviour change with::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_golden_trace.py

and explain the change in the commit.
"""

import hashlib
import json
import os
import random
from pathlib import Path

from repro.app.client import WorkloadRecorder
from repro.cluster.twine import TwineConfig
from repro.core.orchestrator import OrchestratorConfig
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.core.task_controller import SMTaskControllerConfig
from repro.harness import SimCluster, deploy_app

FIXTURE = Path(__file__).parent / "fixtures" / "golden_trace_fig17.json"
PREFIX_LEN = 40  # entries stored verbatim for debuggability


def _run_scenario():
    cluster = SimCluster.build(
        regions=("FRC",),
        machines_per_region=10,
        seed=7,
        twine_config=TwineConfig(negotiation_interval=5.0),
        discovery_base_delay=2.0,
        discovery_jitter=3.0,
    )
    engine = cluster.engine
    trace = []

    network = cluster.network
    original_rpc = network.rpc

    def traced_rpc(src_address, dst_address, method, payload=None,
                   timeout=None, **kwargs):
        call = original_rpc(src_address, dst_address, method, payload,
                            timeout, **kwargs)
        trace.append(f"rpc {engine.now!r} {method} {dst_address}")

        def record(result, method=method):
            trace.append(f"done {engine.now!r} {method} {int(result.ok)}")

        call.on_done(record)
        return call

    network.rpc = traced_rpc

    discovery = cluster.discovery
    original_publish = discovery.publish

    def traced_publish(shard_map, delta=None):
        trace.append(f"publish {engine.now!r} v{shard_map.version} "
                     f"{len(shard_map)}")
        original_publish(shard_map, delta=delta)

    discovery.publish = traced_publish

    spec = AppSpec(
        name="golden",
        shards=uniform_shards(60, key_space=960),
        replication=ReplicationStrategy.PRIMARY_ONLY,
        max_concurrent_container_ops=1,
    )
    app = deploy_app(
        cluster, spec, {"FRC": 6},
        orchestrator_config=OrchestratorConfig(
            graceful_migration=True,
            failover_grace=20.0,
            rebalance_interval=60.0,
            drain_concurrency=2,
            drain_pacing=2.0,
        ),
        controller_config=SMTaskControllerConfig(
            restart_duration_hint=20.0),
        settle=30.0,
    )
    client = app.client(cluster, "FRC", attempts=1, rpc_timeout=0.5)
    recorder = WorkloadRecorder.with_bucket(10.0)
    client.run_workload(
        duration=150.0,
        rate=lambda t: 2.0,
        key_fn=lambda rng: rng.randrange(960),
        recorder=recorder,
        rng=random.Random(0),
    )
    upgrade = cluster.twines["FRC"].start_rolling_upgrade(
        spec.name, max_concurrent=1, restart_duration=10.0)
    cluster.run(until=engine.now + 250.0)

    total = recorder.succeeded + recorder.failed
    success_rate = recorder.succeeded / max(1, total)
    return {
        "events": len(trace),
        "sha256": hashlib.sha256(
            "\n".join(trace).encode()).hexdigest(),
        "prefix": trace[:PREFIX_LEN],
        "success_rate": success_rate,
        "requests": total,
        "upgrade_done": upgrade.done,
    }


def test_golden_trace_matches_fixture():
    observed = _run_scenario()
    if os.environ.get("GOLDEN_REGEN"):
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(json.dumps(observed, indent=1, sort_keys=True)
                           + "\n")
    expected = json.loads(FIXTURE.read_text())
    assert observed["prefix"] == expected["prefix"]
    assert observed["events"] == expected["events"]
    assert observed["sha256"] == expected["sha256"]
    assert observed["success_rate"] == expected["success_rate"]
    assert observed["requests"] == expected["requests"]
    assert observed["upgrade_done"] == expected["upgrade_done"]


def test_scenario_is_deterministic_in_process():
    # Two fresh runs in one process: bit-identical traces.
    assert _run_scenario() == _run_scenario()
