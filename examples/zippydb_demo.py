"""ZippyDB: a Paxos-replicated store on SM, surviving primary failure.

Each shard has one SM-elected primary (the Multi-Paxos leader) and two
secondaries (acceptors/learners) spread across three regions.  Writes
commit on a majority quorum over the simulated WAN.  We then crash the
machine hosting a primary: SM promotes a secondary, the new leader's
ranged prepare adopts everything the old leader committed, and reads
observe every acknowledged write — Paxos safety, end to end.

Run:  python examples/zippydb_demo.py
"""

from repro.apps.zippydb import ZippyDBApp
from repro.core.orchestrator import OrchestratorConfig
from repro.core.spec import AppSpec, ReplicationStrategy, Role, uniform_shards
from repro.harness import SimCluster, deploy_app


def main() -> None:
    cluster = SimCluster.build(regions=("FRC", "PRN", "ODN"),
                               machines_per_region=4, seed=1)
    spec = AppSpec(
        name="zippy",
        shards=uniform_shards(6, key_space=600, replica_count=3),
        replication=ReplicationStrategy.PRIMARY_SECONDARY,
    )
    zdb = ZippyDBApp(cluster.engine, cluster.network, cluster.discovery,
                     spec)
    app = deploy_app(
        cluster, spec, {"FRC": 3, "PRN": 3, "ODN": 3},
        handler_factory=zdb.handler_factory,
        on_server_created=zdb.on_server_created,
        orchestrator_config=OrchestratorConfig(failover_grace=15.0),
        settle=60.0)
    print(f"deployed: {app.ready_fraction():.0%} ready, "
          f"replicas span regions for every shard")

    client = app.client(cluster, "PRN", rpc_timeout=5.0)
    writes = {index: f"value-{index}" for index in range(20)}
    puts = {key: client.request(key, {"op": "put", "key": key,
                                      "value": value})
            for key, value in writes.items()}
    cluster.run(until=cluster.engine.now + 10.0)
    acked = {key: writes[key] for key, put in puts.items()
             if put.outcome is not None and put.outcome.ok}
    print(f"writes acknowledged by quorum: {len(acked)}/20 "
          f"(paxos commits: {zdb.commits})")

    # Crash the machine hosting shard0's primary.
    primary = app.orchestrator.table.primary_of("shard0")
    victim_record = app.orchestrator.servers[primary.address]
    region = victim_record.machine.region
    print(f"\ncrashing shard0's primary ({primary.address} in {region})...")
    cluster.twines[region].fail_machine(victim_record.machine.machine_id)
    cluster.run(until=cluster.engine.now + 60.0)

    new_primary = app.orchestrator.table.primary_of("shard0")
    print(f"SM promoted a new primary: {new_primary.address} "
          f"(role={new_primary.role.value})")

    # Every acknowledged write must still be readable.
    gets = {key: client.request(key, {"op": "get", "key": key},
                                prefer_primary=False)
            for key in acked}
    cluster.run(until=cluster.engine.now + 10.0)

    lost = [key for key, expected in acked.items()
            if not gets[key].outcome.ok
            or gets[key].outcome.value["value"] != expected]
    print(f"acknowledged writes surviving failover: "
          f"{len(acked) - len(lost)}/{len(acked)}")
    assert not lost, f"lost writes: {lost}"
    print("no acknowledged write was lost — quorum replication held.")


if __name__ == "__main__":
    main()
