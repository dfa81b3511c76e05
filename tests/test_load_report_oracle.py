"""``LoadReport`` and ``Orchestrator.load_of`` against the eager pair
they replaced.

``sm.report_load`` used to answer with one ``{"request_rate": ...,
"shard_count": 1.0, **static}`` dict per hosted shard, built at report
time whether or not a rebalance would read it, and ``load_of`` walked the
LB metrics over that dict for every replica.  The server now snapshots
the counts (and the app's static metrics) into a ``LoadReport`` that
builds a shard's dict when it is looked up, and ``load_of`` returns one
constant when shard count is the only metric.  ``EagerServer`` and
``eager_load_of`` below are the old code, kept as the oracle: over random
add / prepare / drop / request / fractional-feed / advance / report
sequences, with ``base_loads`` absent, pure and stateful, both servers
must report the same dict per shard, give the same ``load_of`` tuple per
replica under three metric sets, call ``base_loads`` once per hosted
shard per report in hosted order, and an earlier report must not change
when the server does.  The new server's report is taken the way the
orchestrator takes it: a poll tick (``Orchestrator._poll_loads``) that
reads it through ``Network.read``.

Mutation check (each applied alone to ``repro/app/server.py``; each
fails ``test_same_reports_and_load_vectors`` within its budget and the
fixed case named after it):

* make ``static`` lazy (store ``base_loads`` in the report and call it in
  ``LoadReport.__getitem__``): the stateful ``base_loads`` is called at
  the wrong time and a different number of times
  (``test_static_metrics_are_evaluated_at_report_time``);
* skip the counter reset in ``_rpc_report_load``: the next report counts
  the same requests again (``test_counters_restart_after_a_report``).
"""

import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.app.interfaces import NotOwnerError
from repro.app.server import ApplicationServer
from repro.cluster.topology import build_topology
from repro.cluster.twine import Twine
from repro.coordination.zookeeper import ZooKeeper
from repro.core.allocator import ServerRecord
from repro.core.orchestrator import Orchestrator
from repro.core.spec import AppSpec, uniform_shards
from repro.discovery.service_discovery import ServiceDiscovery
from repro.sim.engine import Engine
from repro.sim.network import Network

SHARDS = [f"shard{i}" for i in range(5)]
METRIC_SETS = (("shard_count",),
               ("request_rate", "shard_count"),
               ("cpu", "storage", "shard_count"))


class EagerServer(ApplicationServer):
    """The server as it was: every load vector built at report time."""

    def _rpc_report_load(self, _payload):
        elapsed = max(1e-9, self.engine.now - self._last_report_time)
        self._last_report_time = self.engine.now
        report = {}
        for shard_id, hosted in self._shards.items():
            load = {"request_rate": hosted.requests_served / elapsed,
                    "shard_count": 1.0}
            if self.base_loads is not None:
                load.update(self.base_loads(shard_id))
            report[shard_id] = load
            hosted.requests_served = 0
        return report


def eager_load_of(lb_metrics, report, replica):
    """``Orchestrator.load_of`` as it was, over one server's report."""
    shard_report = report.get(replica.shard_id, {})
    values = []
    for metric in lb_metrics:
        if metric == "shard_count":
            values.append(1.0)
        else:
            values.append(float(shard_report.get(metric, 0.0)))
    return tuple(values)


def pure_base_loads(shard_id):
    index = int(shard_id[len("shard"):])
    return {"cpu": 1.5 * index + 0.25, "storage": 100.0 - index}


class StatefulBaseLoads:
    """Counter-backed static metrics (Fig 23's draw from a noise RNG and
    read the clock): the value depends on when and how often it is
    asked, and every call is logged."""

    def __init__(self, engine):
        self.engine = engine
        self.calls = []

    def __call__(self, shard_id):
        self.calls.append((self.engine.now, shard_id))
        # Overrides the measured rate too, as the shard-scaler tests do.
        return {"cpu": float(len(self.calls)), "storage": self.engine.now,
                "request_rate": 10.0 * len(self.calls)}


class World:
    """One engine with the new server and the eager one side by side,
    plus one un-started orchestrator per metric set to ask ``load_of``."""

    def __init__(self, base_loads_kind):
        self.engine = engine = Engine()
        network = Network(engine, rng=random.Random(1))
        zookeeper = ZooKeeper(engine)
        topology = build_topology(["FRC"], machines_per_region=3)
        twine = Twine(engine, "FRC", topology.machines)
        spec = AppSpec(name="app", shards=uniform_shards(len(SHARDS), 50))
        new_container, old_container = twine.create_job("app", 2)
        self.new_base = self._base_loads(base_loads_kind)
        self.old_base = self._base_loads(base_loads_kind)

        def handler(_shard_id, _request):
            return "ok"

        self.new = ApplicationServer(engine, network, zookeeper, spec,
                                     new_container, handler, self.new_base)
        self.old = EagerServer(engine, network, zookeeper, spec,
                               old_container, handler, self.old_base)
        discovery = ServiceDiscovery(engine)
        self.orchestrators = []
        for index, lb_metrics in enumerate(METRIC_SETS):
            metric_spec = AppSpec(name=f"app{index}", shards=spec.shards,
                                  lb_metrics=lb_metrics)
            orchestrator = Orchestrator(engine, network, zookeeper, discovery,
                                        metric_spec, topology)
            orchestrator.servers[self.new.address] = ServerRecord(
                address=self.new.address,
                machine=new_container.machine)
            self.orchestrators.append(orchestrator)
        self.reports = []  # (eager dict, LoadReport, hosted ids) per report

    def _base_loads(self, kind):
        if kind == "absent":
            return None
        if kind == "pure":
            return pure_base_loads
        return StatefulBaseLoads(self.engine)

    def apply(self, op):
        kind, shard_id, amount = op
        if kind == "advance":
            self.engine.run(until=self.engine.now + amount)
        elif kind == "report":
            self.report()
        else:
            for server in (self.new, self.old):
                self._apply_to(server, kind, shard_id, amount)

    @staticmethod
    def _apply_to(server, kind, shard_id, amount):
        if kind == "add":
            server._rpc_add_shard({"shard_id": shard_id, "role": "primary"})
        elif kind == "prepare":
            server._rpc_prepare_add_shard(
                {"shard_id": shard_id, "role": "primary"})
        elif kind == "drop":
            server._rpc_drop_shard({"shard_id": shard_id})
        elif kind == "request":
            try:
                server._handle_app_request(
                    {"shard_id": shard_id, "payload": {}})
            except NotOwnerError:
                pass
        elif kind == "feed":  # FluidClient._feed_load's fractional share
            hosted = server.hosted(shard_id)
            if hosted is not None:
                hosted.requests_served += amount

    def report(self):
        hosted = list(self.new._shards)
        assert hosted == list(self.old._shards)
        calls_before = (len(self.new_base.calls)
                        if isinstance(self.new_base, StatefulBaseLoads) else 0)
        eager = self.old._rpc_report_load(None)
        poller = self.orchestrators[1]
        poller._poll_loads()
        report = poller.servers[self.new.address].shard_loads
        if isinstance(self.new_base, StatefulBaseLoads):
            # Once per hosted shard, now, in hosted order — before any read.
            assert self.new_base.calls[calls_before:] == [
                (self.engine.now, shard_id) for shard_id in hosted]
            assert self.new_base.calls == self.old_base.calls
        self.reports.append((eager, report, hosted))
        self.check(eager, report, hosted)

    def check(self, eager, report, hosted):
        assert len(report.served) == len(eager) == len(hosted)
        for shard_id in SHARDS:
            assert (shard_id in report) == (shard_id in eager)
            assert report.get(shard_id) == eager.get(shard_id)
            assert report.get(shard_id, {}) == eager.get(shard_id, {})
            if shard_id in eager:
                assert report[shard_id] == eager[shard_id]
                # Same key order too: static metrics land on top.
                assert list(report[shard_id]) == list(eager[shard_id])
        address = self.new.address
        for orchestrator in self.orchestrators:
            # What a poll tick that reached the server stores.
            orchestrator.servers[address].shard_loads = report
            lb_metrics = orchestrator.spec.lb_metrics
            for shard_id in SHARDS:
                replica = SimpleNamespace(address=address, shard_id=shard_id)
                expected = eager_load_of(lb_metrics, eager, replica)
                actual = orchestrator.load_of(replica)
                assert actual == expected
                assert [type(v) for v in actual] == [float] * len(expected)
            # A replica on a server that never reported.
            stranger = SimpleNamespace(address="nowhere", shard_id=SHARDS[0])
            assert orchestrator.load_of(stranger) == eager_load_of(
                lb_metrics, {}, stranger)

    def recheck_all(self):
        """Earlier reports are snapshots: re-reading them after the server
        moved on gives what they gave then — and calls nothing."""
        calls = (list(self.new_base.calls)
                 if isinstance(self.new_base, StatefulBaseLoads) else None)
        for eager, report, hosted in self.reports:
            self.check(eager, report, hosted)
        if calls is not None:
            assert self.new_base.calls == calls


_shard = st.sampled_from(SHARDS)
_op = st.one_of(
    st.tuples(st.sampled_from(["add", "add", "prepare", "drop", "request",
                               "request"]), _shard, st.just(0.0)),
    st.tuples(st.just("feed"), _shard,
              st.floats(min_value=0.0, max_value=50.0, allow_nan=False)),
    st.tuples(st.just("advance"), st.none(),
              st.sampled_from([0.0, 0.125, 1.0, 10.0])),
    st.tuples(st.just("report"), st.none(), st.just(0.0)),
)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["absent", "pure", "stateful"]),
       ops=st.lists(_op, max_size=40))
def test_same_reports_and_load_vectors(kind, ops):
    world = World(kind)
    for op in ops:
        world.apply(op)
    world.report()
    world.recheck_all()


def test_static_metrics_are_evaluated_at_report_time():
    world = World("stateful")
    for op in [("add", "shard2", 0.0), ("add", "shard0", 0.0),
               ("advance", None, 10.0), ("report", None, 0.0),
               ("advance", None, 10.0)]:
        world.apply(op)
    _eager, report, _hosted = world.reports[0]
    assert world.new_base.calls == [(10.0, "shard2"), (10.0, "shard0")]
    assert report["shard0"]["cpu"] == 2.0
    assert report["shard0"]["storage"] == 10.0  # the clock then, not now
    assert report["shard0"]["request_rate"] == 20.0  # static on top
    assert len(world.new_base.calls) == 2  # reading called nothing
    world.recheck_all()


def test_counters_restart_after_a_report():
    world = World("absent")
    for op in [("add", "shard1", 0.0), ("advance", None, 10.0),
               ("request", "shard1", 0.0), ("feed", "shard1", 1.5),
               ("report", None, 0.0), ("advance", None, 10.0),
               ("report", None, 0.0)]:
        world.apply(op)
    (_, first, _), (_, second, _) = world.reports
    assert first["shard1"]["request_rate"] == 0.25
    assert second["shard1"]["request_rate"] == 0.0
    assert world.new.hosted("shard1").requests_served == 0
