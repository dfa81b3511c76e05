"""Unit tests for the migration executor's protocol sequences."""

import pytest

from repro.app.server import HostedState
from repro.core.orchestrator import OrchestratorConfig
from repro.core.shard_map import ReplicaState, Role
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.harness import SimCluster, deploy_app
from repro.obs import Observability
from repro.obs.checker import REQUIRED_PHASES, TraceChecker


def make_app(replication=ReplicationStrategy.PRIMARY_ONLY, shards=4,
             servers=4, replica_count=None, obs=None):
    cluster = SimCluster.build(regions=("FRC",),
                               machines_per_region=servers + 2, seed=19,
                               obs=obs)
    if replica_count is None:
        replica_count = (1 if replication is ReplicationStrategy.PRIMARY_ONLY
                         else 2)
    spec = AppSpec(
        name="app",
        shards=uniform_shards(shards, shards * 10,
                              replica_count=replica_count),
        replication=replication)
    app = deploy_app(cluster, spec, {"FRC": servers},
                     orchestrator_config=OrchestratorConfig(
                         rebalance_enabled=False, failover_grace=15.0),
                     settle=60.0)
    return cluster, app


def fresh_target(app, shard_id):
    taken = {r.address for r in app.orchestrator.table.replicas_of(shard_id)}
    return next(address for address in sorted(app.orchestrator.servers)
                if address not in taken)


class TestGracefulMigration:
    def test_five_step_handover(self):
        cluster, app = make_app()
        executor = app.orchestrator.executor
        old = app.orchestrator.table.primary_of("shard0")
        target = fresh_target(app, "shard0")
        process = cluster.engine.process(
            executor.graceful_primary_migration(old, target))
        cluster.run(until=cluster.engine.now + 10.0)
        assert process.result is True
        new = app.orchestrator.table.primary_of("shard0")
        assert new.address == target
        assert new.state is ReplicaState.READY
        # The old server keeps a forwarding entry through the grace window.
        old_server = app.runtime.server_at(old.address)
        hosted = old_server.hosted("shard0")
        assert hosted is None or hosted.state is HostedState.FORWARDING
        assert executor.stats.graceful_migrations == 1

    def test_refuses_sibling_colocation(self):
        cluster, app = make_app(
            replication=ReplicationStrategy.PRIMARY_SECONDARY)
        executor = app.orchestrator.executor
        primary = app.orchestrator.table.primary_of("shard0")
        sibling = next(r for r in app.orchestrator.table.replicas_of("shard0")
                       if r.role is Role.SECONDARY)
        process = cluster.engine.process(
            executor.graceful_primary_migration(primary, sibling.address))
        cluster.run(until=cluster.engine.now + 10.0)
        assert process.result is False
        assert app.orchestrator.table.primary_of(
            "shard0").address == primary.address

    def test_target_failure_reinstates_old_primary(self):
        cluster, app = make_app()
        executor = app.orchestrator.executor
        old = app.orchestrator.table.primary_of("shard0")
        target = fresh_target(app, "shard0")
        # Kill the target before the migration reaches it.
        cluster.network.set_endpoint_up(target, False)
        process = cluster.engine.process(
            executor.graceful_primary_migration(old, target))
        cluster.run(until=cluster.engine.now + 20.0)
        assert process.result is False
        current = app.orchestrator.table.primary_of("shard0")
        assert current.address == old.address
        assert current.state is ReplicaState.READY


class TestAbruptMigration:
    def test_handover_without_forwarding(self):
        cluster, app = make_app()
        executor = app.orchestrator.executor
        old = app.orchestrator.table.primary_of("shard0")
        target = fresh_target(app, "shard0")
        process = cluster.engine.process(
            executor.abrupt_primary_migration(old, target))
        cluster.run(until=cluster.engine.now + 10.0)
        assert process.result is True
        assert app.orchestrator.table.primary_of("shard0").address == target
        # No forwarding entry remains on the old server.
        old_server = app.runtime.server_at(old.address)
        assert old_server.hosted("shard0") is None
        assert executor.stats.abrupt_migrations == 1


class TestSecondaryMove:
    def test_make_before_break(self):
        cluster, app = make_app(
            replication=ReplicationStrategy.PRIMARY_SECONDARY)
        executor = app.orchestrator.executor
        secondary = next(r for r in app.orchestrator.table.replicas_of(
            "shard0") if r.role is Role.SECONDARY)
        target = fresh_target(app, "shard0")
        process = cluster.engine.process(
            executor.move_secondary(secondary, target))
        cluster.run(until=cluster.engine.now + 10.0)
        assert process.result is True
        addresses = {r.address for r in app.orchestrator.table.replicas_of(
            "shard0")}
        assert target in addresses
        assert secondary.address not in addresses


class TestRoleChanges:
    def test_promote_demotes_current_primary(self):
        cluster, app = make_app(
            replication=ReplicationStrategy.PRIMARY_SECONDARY)
        executor = app.orchestrator.executor
        table = app.orchestrator.table
        old_primary = table.primary_of("shard0")
        secondary = next(r for r in table.replicas_of("shard0")
                         if r.role is Role.SECONDARY)
        process = cluster.engine.process(executor.promote(secondary))
        cluster.run(until=cluster.engine.now + 10.0)
        assert process.result is True
        assert table.primary_of("shard0").replica_id == secondary.replica_id
        assert table.get(old_primary.replica_id).role is Role.SECONDARY
        # Server-side roles agree.
        server = app.runtime.server_at(secondary.address)
        assert server.hosted("shard0").role is Role.PRIMARY

    def test_create_and_drop_replica(self):
        cluster, app = make_app(
            replication=ReplicationStrategy.PRIMARY_SECONDARY)
        executor = app.orchestrator.executor
        target = fresh_target(app, "shard1")
        process = cluster.engine.process(
            executor.create_replica("shard1", target, Role.SECONDARY))
        cluster.run(until=cluster.engine.now + 5.0)
        assert process.result is True
        created = next(r for r in app.orchestrator.table.replicas_of("shard1")
                       if r.address == target)
        drop = cluster.engine.process(executor.drop_replica(created))
        cluster.run(until=cluster.engine.now + 5.0)
        assert drop.result is True
        assert all(r.address != target
                   for r in app.orchestrator.table.replicas_of("shard1"))


def migration_spans(journal):
    """``[(kind, phases, outcome), ...]`` per migration span, in begin order."""
    begins, phases, ends = {}, {}, {}
    for record in journal:
        if record.track == "migration":
            if record.kind == "B":
                begins[record.span] = record.name
                phases[record.span] = []
            elif record.kind == "E":
                ends[record.span] = (record.args or {}).get("outcome")
            elif record.name == "phase":
                phases[(record.args or {})["span"]].append(
                    record.args["phase"])
    return [(kind, tuple(phases[span]), ends.get(span))
            for span, kind in begins.items()]


class TestTracedMigrationFailures:
    """TraceChecker-backed failure injection: the journal must stay
    coherent no matter where inside the §4.3 protocol the target dies."""

    def test_graceful_trace_is_protocol_complete(self):
        obs = Observability()
        cluster, app = make_app(obs=obs)
        executor = app.orchestrator.executor
        old = app.orchestrator.table.primary_of("shard0")
        target = fresh_target(app, "shard0")
        process = cluster.engine.process(
            executor.graceful_primary_migration(old, target))
        cluster.run(until=cluster.engine.now + 10.0)
        assert process.result is True
        spans = migration_spans(obs.journal)
        assert ("graceful", REQUIRED_PHASES["graceful"], "ok") in spans
        TraceChecker(obs.journal).assert_clean()

    def test_abrupt_trace_is_protocol_complete(self):
        obs = Observability()
        cluster, app = make_app(obs=obs)
        executor = app.orchestrator.executor
        old = app.orchestrator.table.primary_of("shard0")
        target = fresh_target(app, "shard0")
        process = cluster.engine.process(
            executor.abrupt_primary_migration(old, target))
        cluster.run(until=cluster.engine.now + 10.0)
        assert process.result is True
        spans = migration_spans(obs.journal)
        assert ("abrupt", REQUIRED_PHASES["abrupt"], "ok") in spans
        TraceChecker(obs.journal).assert_clean()

    def test_target_failure_at_every_protocol_point(self):
        # Sweep the kill time across the whole migration window
        # (~0.01s of sim time): every interleaving must leave a clean
        # journal and at most one READY primary, whether the migration
        # aborted at prepare, forward, or handoff, or squeaked through.
        outcomes = set()
        for offset in [i * 0.0015 for i in range(8)]:
            obs = Observability()
            cluster, app = make_app(obs=obs)
            executor = app.orchestrator.executor
            old = app.orchestrator.table.primary_of("shard0")
            target = fresh_target(app, "shard0")
            cluster.engine.call_after(
                offset, lambda t=target: cluster.network.set_endpoint_up(
                    t, False))
            process = cluster.engine.process(
                executor.graceful_primary_migration(old, target))
            cluster.run(until=cluster.engine.now + 20.0)
            spans = [s for s in migration_spans(obs.journal)
                     if s[0] == "graceful"]
            assert len(spans) == 1
            outcome = spans[0][2]
            outcomes.add(outcome)
            assert outcome is not None, f"span never closed at {offset}"
            if process.result:
                assert outcome == "ok"
                assert app.orchestrator.table.primary_of(
                    "shard0").address == target
            else:
                assert outcome.startswith("abort_")
                current = app.orchestrator.table.primary_of("shard0")
                assert current is not None
                assert current.address == old.address
            ready_primaries = [
                r for r in app.orchestrator.table.replicas_of("shard0")
                if r.role is Role.PRIMARY
                and r.state is ReplicaState.READY]
            assert len(ready_primaries) == 1
            TraceChecker(obs.journal).assert_clean()
        # The sweep actually exercised both failure and success paths.
        assert any(o.startswith("abort_") for o in outcomes)
        assert "ok" in outcomes

    def test_old_primary_failure_mid_migration(self):
        obs = Observability()
        cluster, app = make_app(obs=obs)
        executor = app.orchestrator.executor
        old = app.orchestrator.table.primary_of("shard0")
        target = fresh_target(app, "shard0")
        # Kill the *source* right as forwarding would be requested.
        cluster.engine.call_after(
            0.0025, lambda: cluster.network.set_endpoint_up(
                old.address, False))
        process = cluster.engine.process(
            executor.graceful_primary_migration(old, target))
        cluster.run(until=cluster.engine.now + 20.0)
        spans = [s for s in migration_spans(obs.journal)
                 if s[0] == "graceful"]
        assert len(spans) == 1
        assert spans[0][2] is not None
        TraceChecker(obs.journal).assert_clean()
        if not process.result:
            assert spans[0][2].startswith("abort_")


def refuse(_payload):
    raise RuntimeError("refused")


class TestFailureBranches:
    """Fail the target at each step the happy-path tests walk past:
    the executor counts the failure, closes its span with the abort it
    took, and leaves the table in a state the orchestrator can repair."""

    @pytest.mark.parametrize("operation", ["create", "abrupt", "secondary"])
    def test_sibling_host_is_refused_before_any_rpc(self, operation):
        obs = Observability()
        cluster, app = make_app(
            replication=ReplicationStrategy.PRIMARY_SECONDARY, obs=obs)
        executor, table = app.orchestrator.executor, app.orchestrator.table
        primary = table.primary_of("shard0")
        secondary = next(r for r in table.replicas_of("shard0")
                         if r.role is Role.SECONDARY)
        before = [(r.replica_id, r.address, r.role, r.state)
                  for r in table.replicas_of("shard0")]
        sent = cluster.network.rpcs_sent
        records = obs.journal.appended
        steps = {
            "create": lambda: executor.create_replica(
                "shard0", primary.address, Role.SECONDARY),
            "abrupt": lambda: executor.abrupt_primary_migration(
                primary, secondary.address),
            "secondary": lambda: executor.move_secondary(
                secondary, primary.address),
        }[operation]()
        with pytest.raises(StopIteration) as stop:
            next(steps)                 # returns without yielding an RPC
        assert stop.value.value is False
        assert executor.stats.failures == 1
        assert cluster.network.rpcs_sent == sent
        assert obs.journal.appended == records      # no span was opened
        assert [(r.replica_id, r.address, r.role, r.state)
                for r in table.replicas_of("shard0")] == before

    def test_create_replica_add_shard_failure(self):
        cluster, app = make_app(
            replication=ReplicationStrategy.PRIMARY_SECONDARY)
        executor, table = app.orchestrator.executor, app.orchestrator.table
        target = fresh_target(app, "shard1")
        cluster.network.endpoint(target).on("sm.add_shard", refuse)
        before = len(table.replicas_of("shard1")), executor.stats.creates
        process = cluster.engine.process(
            executor.create_replica("shard1", target, Role.SECONDARY))
        cluster.run(until=cluster.engine.now + 5.0)
        assert process.result is False
        assert executor.stats.failures == 1
        assert (len(table.replicas_of("shard1")),
                executor.stats.creates) == before

    def test_change_role_failure_leaves_the_role(self):
        cluster, app = make_app(
            replication=ReplicationStrategy.PRIMARY_SECONDARY)
        executor, table = app.orchestrator.executor, app.orchestrator.table
        secondary = next(r for r in table.replicas_of("shard0")
                         if r.role is Role.SECONDARY)
        # The server lost the shard (a restart the orchestrator has not
        # seen yet): change_role answers NotOwner.
        del app.runtime.server_at(secondary.address)._shards["shard0"]
        process = cluster.engine.process(
            executor.change_role(secondary, Role.PRIMARY))
        cluster.run(until=cluster.engine.now + 5.0)
        assert process.result is False
        assert (executor.stats.failures, executor.stats.role_changes) == (1, 0)
        assert table.get(secondary.replica_id).role is Role.SECONDARY

    def test_promote_gives_up_when_the_demotion_fails(self):
        cluster, app = make_app(
            replication=ReplicationStrategy.PRIMARY_SECONDARY)
        executor, table = app.orchestrator.executor, app.orchestrator.table
        primary = table.primary_of("shard0")
        secondary = next(r for r in table.replicas_of("shard0")
                         if r.role is Role.SECONDARY)
        cluster.network.set_endpoint_up(primary.address, False)
        process = cluster.engine.process(executor.promote(secondary))
        cluster.run(until=cluster.engine.now + 5.0)
        assert process.result is False
        assert (executor.stats.failures, executor.stats.role_changes) == (1, 0)
        # Never two primaries: the promotion was not attempted.
        assert table.primary_of("shard0").replica_id == primary.replica_id
        assert table.get(secondary.replica_id).role is Role.SECONDARY
        server = app.runtime.server_at(secondary.address)
        assert server.hosted("shard0").role is Role.SECONDARY

    def test_abrupt_handoff_failure_leaves_the_shard_to_emergency_placement(
            self):
        obs = Observability()
        cluster, app = make_app(obs=obs)
        executor, table = app.orchestrator.executor, app.orchestrator.table
        old = table.primary_of("shard0")
        target = fresh_target(app, "shard0")
        # The target's container crashes; its ZooKeeper session has not
        # expired yet, so the orchestrator still believes in it.
        next(c for c in app.containers
             if c.address == target).mark_stopped()
        process = cluster.engine.process(
            executor.abrupt_primary_migration(old, target))
        cluster.run(until=cluster.engine.now + 3.0)
        assert process.result is False
        assert (executor.stats.failures,
                executor.stats.abrupt_migrations) == (1, 0)
        assert ("abrupt", ("drop_old",), "abort_handoff") in migration_spans(
            obs.journal)
        # The old primary was dropped and the reserved PENDING replica is
        # gone with it: the shard has no replica at all, which is what
        # the emergency path looks for...
        assert table.replicas_of("shard0") == []
        # ...and it is placed again, on a live server.
        cluster.run(until=cluster.engine.now + 60.0)
        placed = table.primary_of("shard0")
        assert placed is not None and placed.state is ReplicaState.READY
        assert placed.address != target
        assert app.runtime.server_at(placed.address).hosted(
            "shard0").role is Role.PRIMARY
        TraceChecker(obs.journal).assert_clean()

    def test_secondary_move_add_failure_keeps_the_old_replica(self):
        obs = Observability()
        cluster, app = make_app(
            replication=ReplicationStrategy.PRIMARY_SECONDARY, obs=obs)
        executor, table = app.orchestrator.executor, app.orchestrator.table
        secondary = next(r for r in table.replicas_of("shard0")
                         if r.role is Role.SECONDARY)
        target = fresh_target(app, "shard0")
        cluster.network.set_endpoint_up(target, False)
        process = cluster.engine.process(
            executor.move_secondary(secondary, target))
        cluster.run(until=cluster.engine.now + 5.0)
        assert process.result is False
        assert (executor.stats.failures,
                executor.stats.secondary_moves) == (1, 0)
        assert ("secondary", (), "abort_add") in migration_spans(obs.journal)
        addresses = {r.address for r in table.replicas_of("shard0")}
        assert secondary.address in addresses and target not in addresses
        TraceChecker(obs.journal).assert_clean()
