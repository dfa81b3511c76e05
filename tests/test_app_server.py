"""Unit tests for the application server + SM library (Figure 11 APIs)."""

import random

import pytest

from repro.app.runtime import AppRuntime
from repro.app.server import DROP_GRACE, HostedState
from repro.cluster.topology import build_topology
from repro.cluster.twine import Twine
from repro.coordination.zookeeper import ZooKeeper
from repro.core.shard_map import Role
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.sim.engine import Engine
from repro.sim.network import Network


class Fixture:
    def __init__(self, shards=4, servers=3, replication=None):
        self.engine = Engine()
        self.network = Network(self.engine, rng=random.Random(1))
        self.zookeeper = ZooKeeper(self.engine, default_session_timeout=10.0)
        topology = build_topology(["FRC"], machines_per_region=servers + 1)
        self.twine = Twine(self.engine, "FRC", topology.machines)
        self.spec = AppSpec(
            name="app",
            shards=uniform_shards(shards, key_space=shards * 10,
                                  replica_count=1 if replication is None else 2),
            replication=replication or ReplicationStrategy.PRIMARY_ONLY,
        )
        self.handled = []

        def handler_factory(container):
            def handler(shard_id, request):
                self.handled.append((container.address, shard_id, request))
                return {"ok": True, "by": container.address}
            return handler

        self.runtime = AppRuntime(self.engine, self.network, self.zookeeper,
                                  self.spec, handler_factory)
        self.containers = self.twine.create_job("app", servers)
        self.runtime.attach(self.containers)
        self.network.register("ctrl", "FRC")
        self.engine.run(until=30.0)

    def server(self, index=0):
        return self.runtime.servers[self.containers[index].address]

    def rpc(self, address, method, payload, timeout=5.0):
        call = self.network.rpc("ctrl", address, method, payload,
                                timeout=timeout)
        self.engine.run(until=self.engine.now + 2.0)
        return call.result


class TestLifecycleApis:
    def test_add_shard_hosts_it(self):
        fx = Fixture()
        server = fx.server()
        result = fx.rpc(server.address, "sm.add_shard",
                        {"shard_id": "shard0", "role": "primary"})
        assert result.ok
        hosted = server.hosted("shard0")
        assert hosted.state is HostedState.ACTIVE
        assert hosted.role is Role.PRIMARY

    def test_drop_shard(self):
        fx = Fixture()
        server = fx.server()
        fx.rpc(server.address, "sm.add_shard",
               {"shard_id": "shard0", "role": "primary"})
        fx.rpc(server.address, "sm.drop_shard", {"shard_id": "shard0"})
        assert server.hosted("shard0") is None

    def test_drop_unknown_shard_is_idempotent(self):
        fx = Fixture()
        result = fx.rpc(fx.server().address, "sm.drop_shard",
                        {"shard_id": "ghost"})
        assert result.ok

    def test_change_role(self):
        fx = Fixture(replication=ReplicationStrategy.PRIMARY_SECONDARY)
        server = fx.server()
        fx.rpc(server.address, "sm.add_shard",
               {"shard_id": "shard0", "role": "secondary"})
        fx.rpc(server.address, "sm.change_role",
               {"shard_id": "shard0", "current_role": "secondary",
                "new_role": "primary"})
        assert server.hosted("shard0").role is Role.PRIMARY

    def test_change_role_unknown_shard_errors(self):
        fx = Fixture()
        result = fx.rpc(fx.server().address, "sm.change_role",
                        {"shard_id": "ghost", "current_role": "primary",
                         "new_role": "secondary"})
        assert not result.ok

    def test_prepare_add_accepts_only_forwarded(self):
        fx = Fixture()
        server = fx.server()
        fx.rpc(server.address, "sm.prepare_add_shard",
               {"shard_id": "shard0", "current_owner": "x",
                "role": "primary"})
        assert server.hosted("shard0").state is HostedState.PREPARING
        direct = fx.rpc(server.address, "app.request",
                        {"key": 1, "shard_id": "shard0", "payload": {},
                         "forwarded": False})
        assert not direct.ok
        forwarded = fx.rpc(server.address, "app.request",
                           {"key": 1, "shard_id": "shard0", "payload": {},
                            "forwarded": True})
        assert forwarded.ok

    def test_prepare_drop_forwards_requests(self):
        fx = Fixture()
        old, new = fx.server(0), fx.server(1)
        fx.rpc(old.address, "sm.add_shard",
               {"shard_id": "shard0", "role": "primary"})
        fx.rpc(new.address, "sm.prepare_add_shard",
               {"shard_id": "shard0", "current_owner": old.address,
                "role": "primary"})
        fx.rpc(old.address, "sm.prepare_drop_shard",
               {"shard_id": "shard0", "new_owner": new.address,
                "role": "primary"})
        result = fx.rpc(old.address, "app.request",
                        {"key": 1, "shard_id": "shard0", "payload": {},
                         "forwarded": False})
        assert result.ok
        assert result.value["by"] == new.address
        assert old.hosted("shard0").requests_forwarded == 1

    def test_dropped_forwarding_shard_lingers_then_goes(self):
        fx = Fixture()
        old, new = fx.server(0), fx.server(1)
        fx.rpc(old.address, "sm.add_shard",
               {"shard_id": "shard0", "role": "primary"})
        fx.rpc(new.address, "sm.add_shard",
               {"shard_id": "shard0", "role": "primary"})
        fx.rpc(old.address, "sm.prepare_drop_shard",
               {"shard_id": "shard0", "new_owner": new.address,
                "role": "primary"})
        fx.rpc(old.address, "sm.drop_shard", {"shard_id": "shard0"})
        assert old.hosted("shard0") is not None  # still forwarding
        fx.engine.run(until=fx.engine.now + DROP_GRACE + 1.0)
        assert old.hosted("shard0") is None


class TestRequests:
    def test_not_owner_error(self):
        fx = Fixture()
        result = fx.rpc(fx.server().address, "app.request",
                        {"key": 1, "shard_id": "shard0", "payload": {},
                         "forwarded": False})
        assert not result.ok
        assert "NotOwnerError" in result.error

    def test_request_counts_for_load_report(self):
        fx = Fixture()
        server = fx.server()
        fx.rpc(server.address, "sm.add_shard",
               {"shard_id": "shard0", "role": "primary"})
        for _ in range(3):
            fx.rpc(server.address, "app.request",
                   {"key": 1, "shard_id": "shard0", "payload": {},
                    "forwarded": False})
        report = fx.rpc(server.address, "sm.report_load", None)
        assert report.ok
        assert report.value["shard0"]["request_rate"] > 0
        assert report.value["shard0"]["shard_count"] == 1.0
        # Counters reset after a report.
        report2 = fx.rpc(server.address, "sm.report_load", None)
        assert report2.value["shard0"]["request_rate"] == 0.0

    def test_load_report_is_a_snapshot_read_like_a_mapping(self):
        fx = Fixture()
        server = fx.server()
        for shard_id in ("shard0", "shard1"):
            fx.rpc(server.address, "sm.add_shard",
                   {"shard_id": shard_id, "role": "primary"})
        fx.rpc(server.address, "app.request",
               {"key": 1, "shard_id": "shard0", "payload": {},
                "forwarded": False})
        report = fx.rpc(server.address, "sm.report_load", None).value
        assert "shard0" in report and "shard1" in report
        assert report["shard0"] == report.get("shard0")
        assert report["shard0"]["request_rate"] > 0
        # Hosted but idle: present, at rate zero.
        assert report["shard1"] == {"request_rate": 0.0, "shard_count": 1.0}
        # Not hosted: absent, whichever way it is asked.
        assert "shard2" not in report
        assert report.get("shard2") is None
        assert report.get("shard2", {}) == {}
        with pytest.raises(KeyError):
            report["shard2"]
        # What the server does afterwards does not reach the report.
        before = {shard_id: report[shard_id] for shard_id in ("shard0",
                                                              "shard1")}
        fx.rpc(server.address, "sm.add_shard",
               {"shard_id": "shard2", "role": "primary"})
        fx.rpc(server.address, "sm.drop_shard", {"shard_id": "shard1"})
        fx.rpc(server.address, "app.request",
               {"key": 1, "shard_id": "shard0", "payload": {},
                "forwarded": False})
        assert "shard2" not in report and "shard1" in report
        assert {shard_id: report[shard_id]
                for shard_id in ("shard0", "shard1")} == before

    def test_ping(self):
        fx = Fixture()
        assert fx.rpc(fx.server().address, "sm.ping", None).value == "pong"


class TestZooKeeperIntegration:
    def test_liveness_node_created(self):
        fx = Fixture()
        names = fx.zookeeper.children("/sm/app/servers")
        assert len(names) == 3

    def test_graceful_stop_removes_liveness_immediately(self):
        fx = Fixture()
        container = fx.containers[0]
        container.mark_stopping()
        container.mark_stopped()
        names = fx.zookeeper.children("/sm/app/servers")
        assert len(names) == 2

    def test_crash_leaves_session_to_expire(self):
        fx = Fixture()
        container = fx.containers[0]
        container.mark_stopped()  # crash: no stopping notification
        assert len(fx.zookeeper.children("/sm/app/servers")) == 3
        fx.engine.run(until=fx.engine.now + 15.0)
        assert len(fx.zookeeper.children("/sm/app/servers")) == 2

    def test_healthy_servers_cost_no_engine_events(self):
        """Liveness is a lease: heartbeats are not events."""
        fx = Fixture()
        before = fx.engine.processed_events
        fx.engine.run(until=fx.engine.now + 1000.0)
        assert fx.engine.processed_events == before
        assert fx.engine.pending_events == 0
        assert len(fx.zookeeper.children("/sm/app/servers")) == 3

    def test_crash_is_detected_a_timeout_after_the_last_heartbeat(self):
        fx = Fixture()                      # servers up at t=0, now t=30
        fx.engine.run(until=33.0)           # last heartbeat at t=32
        fx.containers[0].mark_stopped()
        fx.engine.run(until=41.9)
        assert len(fx.zookeeper.children("/sm/app/servers")) == 3
        fx.engine.run(until=42.0)
        assert len(fx.zookeeper.children("/sm/app/servers")) == 2

    def test_reconnect_after_session_loss_re_leases(self):
        fx = Fixture()
        server = fx.server()
        fx.zookeeper.expire_session(server.session.session_id)
        assert len(fx.zookeeper.children("/sm/app/servers")) == 2
        fx.engine.run(until=35.0)
        assert server.reconnect_zk()
        assert not server.reconnect_zk()    # already connected
        fx.engine.run(until=500.0)
        assert len(fx.zookeeper.children("/sm/app/servers")) == 3
        fx.containers[0].mark_stopped()     # crash at 500: beat at 498
        fx.engine.run(until=507.9)
        assert len(fx.zookeeper.children("/sm/app/servers")) == 3
        fx.engine.run(until=508.0)
        assert len(fx.zookeeper.children("/sm/app/servers")) == 2

    def test_bootstrap_from_assignments(self):
        fx = Fixture()
        container = fx.containers[0]
        address = container.address
        node = address.replace("/", ":")
        fx.zookeeper.create(f"/sm/app/assignments/{node}",
                            data=[{"shard_id": "shard1", "role": "primary"}])
        # Restart the container: the new server reads its assignment.
        container.mark_stopping()
        container.mark_stopped()
        container.mark_running()
        server = fx.runtime.servers[address]
        hosted = server.hosted("shard1")
        assert hosted is not None
        assert hosted.role is Role.PRIMARY

    def test_network_loss_hook(self):
        fx = Fixture()
        container = fx.containers[0]
        machine_id = container.machine.machine_id
        fx.runtime.set_machine_network(machine_id, False)
        assert not fx.network.endpoint(container.address).up
        fx.runtime.set_machine_network(machine_id, True)
        assert fx.network.endpoint(container.address).up
