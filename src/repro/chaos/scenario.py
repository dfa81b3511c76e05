"""The chaos scenario engine: declarative, seeded, trace-checked faults.

A :class:`ScenarioSpec` is a timeline of :class:`FaultAction`\\ s —
machine crashes, rack blackouts, region partitions, ZooKeeper session
kills, planned maintenance, rolling upgrades, control-plane failovers and
in-scenario probes — executed against the standard harness
(:class:`~repro.harness.SimCluster` + :func:`~repro.harness.deploy_app`).

Contract (see DESIGN.md, "Chaos scenarios"):

* **deterministic** — a scenario run is a pure function of
  ``(spec, arm, seed)``; two runs produce bit-identical journals
  (:meth:`~repro.obs.tracer.Journal.digest` is the fingerprint);
* **audited** — every injected fault lands on the ``chaos`` journal
  track with a unique fault id and must be matched by a recovery record
  (:meth:`~repro.obs.checker.TraceChecker.check_fault_recovery`);
* **checked** — after the run the full TraceChecker invariant set plus
  the scenario's :class:`Expectations` (availability bound,
  failover-detection bound, end-state health) is the pass/fail oracle.

Faults compose through the cluster layer's down-hold mechanism: chaos
crashes hold machines down under their fault id, planned maintenance
under its notice id, so overlapping events neither double-apply nor
cut each other short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..app.client import WorkloadRecorder
from ..cluster.container import Container
from ..cluster.taskcontrol import MaintenanceImpact
from ..cluster.topology import Machine
from ..core.orchestrator import OrchestratorConfig
from ..core.spec import AppSpec, ReplicationStrategy, uniform_shards
from ..core.task_controller import SMTaskControllerConfig
from ..harness import DeployedApp, SimCluster, deploy_app
from ..obs import Observability, use
from ..obs.checker import TraceChecker, Violation
from ..sim.failures import CrashInjector
from ..sim.rng import substream
from ..workloads.load import ZipfKeySampler

__all__ = ["FaultAction", "Expectations", "ScenarioSpec", "ScenarioResult",
           "ScenarioRun", "run_scenario", "ARMS", "ACTIONS", "Param",
           "param_of", "duration_of"]

#: Ablation arms every scenario runs under: SM's full machinery versus a
#: baseline with neither graceful migration nor a TaskController.
ARMS: Dict[str, Dict[str, bool]] = {
    "sm": {"graceful": True, "with_task_controller": True},
    "baseline": {"graceful": False, "with_task_controller": False},
}


@dataclass(frozen=True)
class Param:
    """One value a spec may write — a param of an action kind or a
    scenario-level scalar — and, for an action param, the value the
    executor gets when the spec writes nothing: ``default`` itself or,
    where it depends on the scenario's shape, ``default(spec)``.  ``None``
    means the executor treats "unset" as a case of its own."""

    type: type                          # int, float (an int will do) or str
    default: Any = None
    minimum: Optional[float] = None     # inclusive lower bound
    above: Optional[float] = None       # exclusive lower bound
    choices: Tuple[str, ...] = ()
    region: bool = False                # names one of the spec's regions

    def problem(self, value: Any, spec: "ScenarioSpec") -> str:
        """Why ``value`` cannot be scheduled; empty when it can."""
        accepted = (int, float) if self.type is float else self.type
        if not isinstance(value, accepted) or isinstance(value, bool):
            return f"must be {self.type.__name__}, got {value!r}"
        allowed = spec.regions if self.region else self.choices
        if allowed and value not in allowed:
            return f"must be one of {sorted(allowed)}, got {value!r}"
        if isinstance(value, float) and not math.isfinite(value):
            return f"must be finite, got {value!r}"
        if self.minimum is not None and not value >= self.minimum:
            return f"must be >= {self.minimum}, got {value!r}"
        if self.above is not None and not value > self.above:
            return f"must be > {self.above}, got {value!r}"
        return ""


#: The scenario-level scalar fields, in ``to_dict`` order: the type
#: ``from_dict`` converts each to and the range ``validate_spec`` holds
#: it to.  Their defaults are the dataclass's.
SCALAR_FIELDS: Dict[str, Param] = {
    "duration": Param(float, above=0.0),
    "machines_per_region": Param(int, minimum=1),
    "servers_per_region": Param(int, minimum=1),
    "shards": Param(int, minimum=1),
    "replica_count": Param(int, minimum=1),
    "request_rate": Param(float, minimum=0.0),   # 0: no client traffic
    "zipf_skew": Param(float, minimum=0.0),
    "settle": Param(float, minimum=0.0),
    "failover_grace": Param(float, minimum=0.0),
    "zk_session_timeout": Param(float, above=0.0),
    "restart_hint": Param(float, minimum=0.0),
}


@dataclass(frozen=True)
class FaultAction:
    """One timeline entry: at ``at`` seconds (relative to the scenario
    start, i.e. after deploy + settle), run the ``kind`` executor.

    ``duration`` is how long self-reverting faults last; ``params`` are
    kind-specific (region, machine index, impact, ...), stored as a
    tuple of pairs so specs stay hashable/frozen.
    """

    at: float
    kind: str
    duration: float = 0.0
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, key: str) -> Any:
        """What the spec wrote for ``key``, or ``None``; executors read
        params through :func:`param_of`, which knows the default."""
        for name, value in self.params:
            if name == key:
                return value
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON form; ``params`` flattens back to a plain mapping."""
        record: Dict[str, Any] = {"at": self.at, "kind": self.kind}
        if self.duration:
            record["duration"] = self.duration
        if self.params:
            record["params"] = dict(self.params)
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultAction":
        """Parse and validate one timeline entry.

        Unknown action kinds are rejected here (not at run time) so a
        spec loaded from disk fails fast with a clear error.
        """
        if not isinstance(data, dict):
            raise ValueError(f"fault action must be an object, "
                             f"got {type(data).__name__}")
        unknown = set(data) - {"at", "kind", "duration", "params"}
        if unknown:
            raise ValueError(f"unknown fault-action fields: "
                             f"{sorted(unknown)}")
        kind = data.get("kind")
        if kind not in ACTIONS:
            raise ValueError(f"unknown action kind {kind!r}; "
                             f"known: {sorted(ACTIONS)}")
        at = data.get("at")
        if not isinstance(at, (int, float)) or isinstance(at, bool):
            raise ValueError(f"action {kind!r}: 'at' must be a number, "
                             f"got {at!r}")
        duration = data.get("duration", 0.0)
        if not isinstance(duration, (int, float)) or isinstance(duration,
                                                                bool):
            raise ValueError(f"action {kind!r}: 'duration' must be a "
                             f"number, got {duration!r}")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"action {kind!r}: 'params' must be an "
                             f"object, got {type(params).__name__}")
        return cls(at=float(at), kind=kind, duration=float(duration),
                   params=tuple(sorted(params.items())))


@dataclass(frozen=True)
class Expectations:
    """Per-scenario invariant bounds (the oracle's tunable half).

    ``None`` disables a bound — e.g. a scenario whose planned-event
    suppression legitimately defers failover past any fixed bound.
    """

    #: Max seconds any shard may lack a READY primary (table-level).
    availability_bound: Optional[float] = None
    #: Max seconds between a server-killing fault and its recovery or
    #: orchestrator failover record.
    failover_bound: Optional[float] = None
    #: Fraction of desired replicas READY at scenario end.
    final_ready_min: float = 0.95

    def to_dict(self) -> Dict[str, Any]:
        return {"availability_bound": self.availability_bound,
                "failover_bound": self.failover_bound,
                "final_ready_min": self.final_ready_min}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Expectations":
        if not isinstance(data, dict):
            raise ValueError(f"expectations must be an object, "
                             f"got {type(data).__name__}")
        unknown = set(data) - {"availability_bound", "failover_bound",
                               "final_ready_min"}
        if unknown:
            raise ValueError(f"unknown expectation fields: "
                             f"{sorted(unknown)}")
        for key in ("availability_bound", "failover_bound"):
            value = data.get(key)
            if value is not None and (not isinstance(value, (int, float))
                                      or isinstance(value, bool)):
                raise ValueError(f"expectations: {key!r} must be a number "
                                 f"or null, got {value!r}")
        return cls(
            availability_bound=data.get("availability_bound"),
            failover_bound=data.get("failover_bound"),
            final_ready_min=float(data.get("final_ready_min", 0.95)),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, fully self-describing chaos scenario."""

    name: str
    title: str
    actions: Tuple[FaultAction, ...]
    duration: float = 480.0
    regions: Tuple[str, ...] = ("FRC", "PRN", "ODN")
    machines_per_region: int = 8
    servers_per_region: int = 4
    shards: int = 30
    replica_count: int = 1
    replication: ReplicationStrategy = ReplicationStrategy.PRIMARY_ONLY
    request_rate: float = 4.0
    #: Zipf exponent of the workload's key popularity; 0 selects the
    #: uniform sampler, whose seeded draw sequence the pinned digests of
    #: every uniform-traffic scenario depend on.
    zipf_skew: float = 0.0
    settle: float = 60.0
    failover_grace: float = 30.0
    zk_session_timeout: float = 10.0
    restart_hint: float = 60.0
    expectations: Expectations = field(default_factory=Expectations)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON form ``run_chaos.py --scenario @file.json`` loads."""
        record: Dict[str, Any] = {
            "name": self.name,
            "title": self.title,
            "actions": [action.to_dict() for action in self.actions],
            "regions": list(self.regions),
            "replication": self.replication.value,
            "expectations": self.expectations.to_dict(),
        }
        for field_name in SCALAR_FIELDS:
            record[field_name] = getattr(self, field_name)
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Parse a spec, validating shape, kinds and field names."""
        if not isinstance(data, dict):
            raise ValueError(f"scenario spec must be an object, "
                             f"got {type(data).__name__}")
        known = {"name", "title", "actions", "regions", "replication",
                 "expectations", *SCALAR_FIELDS}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        name = data.get("name")
        if not name or not isinstance(name, str):
            raise ValueError(f"scenario needs a non-empty string 'name', "
                             f"got {name!r}")
        actions = data.get("actions", [])
        if not isinstance(actions, list):
            raise ValueError("scenario 'actions' must be a list")
        regions = data.get("regions", ["FRC", "PRN", "ODN"])
        if (not isinstance(regions, list) or not regions
                or not all(isinstance(r, str) for r in regions)):
            raise ValueError(f"scenario 'regions' must be a non-empty "
                             f"list of strings, got {regions!r}")
        try:
            replication = ReplicationStrategy(
                data.get("replication", ReplicationStrategy.PRIMARY_ONLY))
        except ValueError:
            raise ValueError(
                f"unknown replication {data.get('replication')!r}; known: "
                f"{[s.value for s in ReplicationStrategy]}") from None
        kwargs: Dict[str, Any] = {}
        for field_name, param in SCALAR_FIELDS.items():
            if field_name in data:
                value = data[field_name]
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool):
                    raise ValueError(f"scenario {field_name!r} must be a "
                                     f"number, got {value!r}")
                if param.type is int and not float(value).is_integer():
                    raise ValueError(f"scenario {field_name!r} must be a "
                                     f"whole number, got {value!r}")
                kwargs[field_name] = param.type(value)
        return cls(
            name=name,
            title=data.get("title", name),
            actions=tuple(FaultAction.from_dict(a) for a in actions),
            regions=tuple(regions),
            replication=replication,
            expectations=Expectations.from_dict(
                data.get("expectations", {})),
            **kwargs,
        )


@dataclass
class ScenarioResult:
    """Outcome of one (scenario, arm, seed) run."""

    name: str
    arm: str
    seed: int
    sim_duration: float
    digest: str
    records: int
    #: Records the journal ring evicted.  Non-zero means every checker
    #: and the coverage fingerprint saw a truncated trace.
    dropped: int
    violations: List[Dict[str, Any]]
    faults: int
    recovers: int
    requests_sent: int
    requests_failed: int
    ready_fraction: float
    #: Sorted coverage fingerprint of the run's merged journal plus its
    #: violation signal (see :mod:`repro.obs.coverage`).
    coverage: Tuple[str, ...] = ()
    #: :meth:`~repro.obs.tracer.Journal.behaviour_digest` of the same
    #: journal: stable across simulator-substrate changes.
    behaviour_digest: str = ""

    def headline(self) -> Dict[str, Any]:
        return {"scenario": self.name, "arm": self.arm, "seed": self.seed,
                "digest": self.digest,
                "behaviour_digest": self.behaviour_digest,
                "records": self.records, "dropped": self.dropped,
                "violations": self.violations, "faults": self.faults,
                "recovers": self.recovers,
                "requests_sent": self.requests_sent,
                "requests_failed": self.requests_failed,
                "ready_fraction": self.ready_fraction,
                "coverage": list(self.coverage)}


# -- action executors ---------------------------------------------------------

ActionFn = Callable[["ScenarioRun", FaultAction], None]
ACTIONS: Dict[str, ActionFn] = {}


def action(kind: str, duration: float = 0.0, **params: Param
           ) -> Callable[[Callable[..., None]], Callable[..., None]]:
    """Register the executor of action ``kind`` with the one statement of
    what its timeline entries may say: ``duration`` is how long the fault
    lasts when an entry gives none, ``params`` the entry's params by name.
    ``ACTIONS[kind](run, act)`` calls the executor with every param
    resolved (:func:`param_of`) as a keyword; ``validate_spec`` and the
    fuzzer's horizon fitting read the same table."""
    def register(fn: Callable[..., None]) -> Callable[..., None]:
        def execute(run: "ScenarioRun", act: FaultAction) -> None:
            fn(run, act, **{name: param_of(run.spec, act, name)
                            for name in params})
        execute.duration = duration
        execute.params = params
        ACTIONS[kind] = execute
        return fn
    return register


def param_of(spec: "ScenarioSpec", act: FaultAction, name: str) -> Any:
    """``act``'s param ``name``: what the spec wrote, else the default
    its kind registered."""
    value = act.param(name)
    if value is None:
        value = ACTIONS[act.kind].params[name].default
        if callable(value):
            value = value(spec)
    return value


def duration_of(act: FaultAction) -> float:
    """How long ``act`` lasts: its own duration, else its kind's."""
    return act.duration or ACTIONS[act.kind].duration


def _seconds(default: float) -> Param:
    return Param(float, default, minimum=0.0)


_REGION = Param(str, lambda spec: spec.regions[0], region=True)
_MACHINE_INDEX = Param(int, 0, minimum=0)


@action("crash_machine", duration=30.0, region=_REGION, index=_MACHINE_INDEX)
def _crash_machine(run: "ScenarioRun", act: FaultAction, region: str,
                   index: int) -> None:
    machine = run.machine_at(region, index)
    run.crash_machines(region, [machine.machine_id], "crash_machine",
                       duration_of(act))


@action("crash_rack", duration=60.0, region=_REGION, index=_MACHINE_INDEX)
def _crash_rack(run: "ScenarioRun", act: FaultAction, region: str,
                index: int) -> None:
    anchor = run.machine_at(region, index)
    machine_ids = sorted({c.machine.machine_id
                          for c in run.app_containers(region)
                          if c.machine.rack == anchor.rack})
    run.crash_machines(region, machine_ids, "crash_rack", duration_of(act))


@action("crash_region", duration=120.0, region=_REGION)
def _crash_region(run: "ScenarioRun", act: FaultAction, region: str) -> None:
    machine_ids = sorted({c.machine.machine_id
                          for c in run.app_containers(region)})
    run.crash_machines(region, machine_ids, "crash_region",
                       duration_of(act))


@action("crash_hot_shard", duration=45.0, key=Param(int, 0))
def _crash_hot_shard(run: "ScenarioRun", act: FaultAction, key: int) -> None:
    """Kill the machine hosting the hottest shard's primary, mid-run.

    Under a Zipf workload (``zipf_skew`` > 0) rank 0 maps to key 0, so
    the hottest shard is the one covering ``key`` (default 0).  The
    target is resolved *at fire time* from the live assignment table —
    if the orchestrator already moved the hot shard, the fault follows
    it.  Falls back to the first app machine when no owner is resolvable
    (e.g. the shard is mid-failover), so the action is total.
    """
    from ..core.shard_map import ReplicaState, Role

    shard_id = next((s.shard_id for s in run.app.spec.shards
                     if key in s.key_range), None)
    address = None
    if shard_id is not None and run.app.orchestrator is not None:
        replicas = run.app.orchestrator.table.replicas_of(shard_id)
        live = [r for r in replicas if r.state is not ReplicaState.DROPPED]
        primary = next((r for r in live if r.role is Role.PRIMARY), None)
        chosen = primary or (live[0] if live else None)
        if chosen is not None:
            address = chosen.address
    machine = None
    if address is not None:
        machine = next((c.machine for c in run.app.containers
                        if c.address == address), None)
    if machine is None:
        machine = run.machine_at(run.spec.regions[0], 0)
    run.crash_machines(machine.region, [machine.machine_id],
                       "crash_hot_shard", duration_of(act))


@action("isolate_region", duration=90.0,
        region=Param(str, lambda spec: spec.regions[-1], region=True))
def _isolate_region(run: "ScenarioRun", act: FaultAction,
                    region: str) -> None:
    fault = run.new_fault("isolate_region", region)
    pairs = run.cluster.network.isolate_region(region)
    run.emit_fault(fault, "isolate_region", region)

    def heal() -> None:
        for a, b in pairs:
            run.cluster.network.heal_partition(a, b)
        run.emit_recover(fault, "isolate_region", region)

    run.engine.call_after(duration_of(act), heal)


@action("partition_pair", duration=90.0, a=_REGION,
        b=Param(str, lambda spec: spec.regions[1], region=True))
def _partition_pair(run: "ScenarioRun", act: FaultAction, a: str,
                    b: str) -> None:
    target = f"{a}|{b}"
    fault = run.new_fault("partition", target)
    run.cluster.network.partition(a, b)
    run.emit_fault(fault, "partition", target)

    def heal() -> None:
        run.cluster.network.heal_partition(a, b)
        run.emit_recover(fault, "partition", target)

    run.engine.call_after(duration_of(act), heal)


@action("zk_expire", region=Param(str, region=True),
        count=Param(int, minimum=0), reconnect_after=_seconds(5.0))
def _zk_expire(run: "ScenarioRun", act: FaultAction, region: Optional[str],
               count: Optional[int], reconnect_after: float) -> None:
    """Kill the ZooKeeper sessions of the targeted servers; they
    reconnect (new session + fresh ephemeral) after ``reconnect_after``.
    """
    servers = [run.app.runtime.servers[address]
               for address in run.app.runtime.running_addresses()]
    if region is not None:
        servers = [s for s in servers if s.region == region]
    if count is not None:
        servers = servers[:count]
    addresses = [s.address for s in servers]
    target = region or "all"
    fault = run.new_fault("zk_expire", target)
    run.emit_fault(fault, "zk_expire", target, addresses)
    for server in servers:
        run.cluster.zookeeper.expire_session(server.session.session_id)

    def reconnect() -> None:
        for address in addresses:
            server = run.app.runtime.server_at(address)
            if server is not None:
                server.reconnect_zk()
        run.emit_recover(fault, "zk_expire", target)

    run.engine.call_after(reconnect_after, reconnect)


@action("maintenance", duration=120.0, region=_REGION, index=_MACHINE_INDEX,
        impact=Param(str, "RUNTIME_STATE_LOSS",
                     choices=tuple(i.name for i in MaintenanceImpact)),
        notice=_seconds(60.0))
def _maintenance(run: "ScenarioRun", act: FaultAction, region: str,
                 index: int, impact: str, notice: float) -> None:
    machine = run.machine_at(region, index)
    impact = MaintenanceImpact[impact]
    window = duration_of(act)
    start = run.engine.now + notice
    run.cluster.twines[region].schedule_maintenance(
        [machine.machine_id], start, start + window, impact)
    run.emit_planned("maintenance", machine.machine_id,
                     {"impact": impact.value, "start": start,
                      "end": start + window})


@action("rolling_upgrade", region=_REGION,
        concurrency=Param(
            int, lambda spec: max(1, spec.servers_per_region // 2), minimum=1),
        restart_duration=_seconds(30.0))
def _rolling_upgrade(run: "ScenarioRun", act: FaultAction, region: str,
                     concurrency: int, restart_duration: float) -> None:
    try:
        run.cluster.twines[region].start_rolling_upgrade(
            run.app.spec.name, max_concurrent=concurrency,
            restart_duration=restart_duration)
    except RuntimeError:
        # No running containers (e.g. mid-outage): a legal no-op, but
        # leave an audit record so the journal explains the quiet.
        run.emit_planned("rolling_upgrade_skipped", region, {})
        return
    run.emit_planned("rolling_upgrade", region,
                     {"concurrency": concurrency,
                      "restart": restart_duration})


@action("crash_burst", duration=120.0, region=_REGION,
        mtbf=Param(float, 60.0, above=0.0), repair=_seconds(25.0))
def _crash_burst(run: "ScenarioRun", act: FaultAction, region: str,
                 mtbf: float, repair: float) -> None:
    """A Poisson crash storm over one region's app machines, stopped
    mid-flight — the regression bed for the injector's stop()/overlap
    semantics (deferred crashes, completed in-flight repairs)."""
    twine = run.cluster.twines[region]
    targets = sorted({c.machine.machine_id
                      for c in run.app_containers(region)})
    injector: CrashInjector[str] = CrashInjector(
        engine=run.engine,
        rng=substream(run.seed, "chaos", run.spec.name, "burst",
                      repr(act.at)),
        mtbf=mtbf,
        repair_time=repair,
        on_fail=lambda mid: twine.fail_machine(mid),
        on_repair=lambda mid: twine.repair_machine(mid),
        down_check=lambda mid: not twine.machine_up(mid),
        tracer=run.tracer,
    )
    injector.start(targets)
    run.engine.call_after(duration_of(act), injector.stop)


@action("orchestrator_failover")
def _orchestrator_failover(run: "ScenarioRun", act: FaultAction) -> None:
    """Kill the control plane and bring up its successor (§6.2): the new
    incarnation restores the assignment table from ZooKeeper."""
    fault = run.new_fault("orchestrator_failover", run.app.spec.name)
    run.emit_fault(fault, "orchestrator_failover", run.app.spec.name)
    old = run.app.orchestrator
    old.stop()
    successor = old.successor()
    successor.start()
    run.app.orchestrator = successor
    if run.app.controller is not None:
        run.app.controller.rebind(successor)
    run.emit_recover(fault, "orchestrator_failover", run.app.spec.name)


@action("probe", region=_REGION, index=_MACHINE_INDEX,
        check=Param(str, "ready_fraction",
                    choices=("machine_down", "machine_up", "ready_fraction",
                             "server_alive")),
        min=Param(float, 0.9, minimum=0.0),
        min_servers=Param(int, lambda spec: spec.servers_per_region,
                          minimum=0))
def _probe(run: "ScenarioRun", act: FaultAction, region: str, index: int,
           check: str, min: float, min_servers: int) -> None:
    """Assert world state mid-scenario; failures become journal records
    that :meth:`TraceChecker.check_fault_recovery` turns into violations.
    """
    ok = False
    detail = ""
    if check in ("machine_down", "machine_up"):
        machine = run.machine_at(region, index)
        up = run.cluster.twines[region].machine_up(machine.machine_id)
        ok = up if check == "machine_up" else not up
        detail = f"{machine.machine_id} up={up}"
    elif check == "ready_fraction":
        fraction = run.app.ready_fraction()
        ok = fraction >= min
        detail = f"ready={fraction:.3f} min={min}"
    elif check == "server_alive":
        alive = [a for a, r in run.app.orchestrator.servers.items()
                 if r.alive and r.machine.region == region]
        ok = len(alive) >= min_servers
        detail = f"alive={len(alive)} min={min_servers}"
    else:
        detail = f"unknown check {check!r}"
    run.emit_probe(ok, check, detail)


# -- the runner ---------------------------------------------------------------

class ScenarioRun:
    """One executing scenario: the harness plus chaos bookkeeping."""

    def __init__(self, spec: ScenarioSpec, arm: str, seed: int,
                 obs: Observability) -> None:
        if arm not in ARMS:
            raise KeyError(f"unknown arm {arm!r}; known: {sorted(ARMS)}")
        self.spec = spec
        self.arm = arm
        self.seed = seed
        self.obs = obs
        self.tracer = obs.tracer
        self._fault_counter = 0
        preset = ARMS[arm]

        self.cluster = SimCluster.build(
            regions=spec.regions,
            machines_per_region=spec.machines_per_region,
            seed=seed,
            zk_session_timeout=spec.zk_session_timeout,
            obs=obs,
        )
        self.engine = self.cluster.engine
        app_spec = AppSpec(
            name=f"chaos-{spec.name}",
            shards=uniform_shards(spec.shards, key_space=spec.shards * 16,
                                  replica_count=spec.replica_count),
            replication=spec.replication,
            max_concurrent_container_ops=max(
                1, spec.servers_per_region // 2),
        )
        self.app: DeployedApp = deploy_app(
            self.cluster, app_spec,
            {region: spec.servers_per_region for region in spec.regions},
            orchestrator_config=OrchestratorConfig(
                graceful_migration=preset["graceful"],
                failover_grace=spec.failover_grace,
            ),
            controller_config=SMTaskControllerConfig(
                restart_duration_hint=spec.restart_hint),
            with_task_controller=preset["with_task_controller"],
            settle=spec.settle,
        )
        # NETWORK_LOSS maintenance and machine transitions reach the app
        # servers' endpoints (the harness leaves this unwired because the
        # runtime does not exist when Twines are built).
        for region in spec.regions:
            self.cluster.twines[region].set_machine_network_hook(
                self.app.runtime.set_machine_network)
        self.t0 = self.engine.now
        self.recorder = WorkloadRecorder.with_bucket(30.0)

    # -- target resolution ---------------------------------------------------

    def app_containers(self, region: str) -> List[Container]:
        return sorted((c for c in self.app.containers
                       if c.machine.region == region),
                      key=lambda c: c.container_id)

    def machine_at(self, region: str, index: int) -> Machine:
        containers = self.app_containers(region)
        if not containers:
            raise RuntimeError(f"no app containers in {region}")
        return containers[index % len(containers)].machine

    def running_addresses_on(self, machine_ids: List[str]) -> List[str]:
        wanted = set(machine_ids)
        return sorted(c.address for c in self.app.containers
                      if c.machine.machine_id in wanted and c.running)

    # -- chaos journal records -----------------------------------------------

    def new_fault(self, kind: str, target: str) -> str:
        self._fault_counter += 1
        return f"{kind}:{target}:{self._fault_counter}"

    def emit_fault(self, fault: str, kind: str, target: str,
                   addresses: Optional[List[str]] = None) -> None:
        args: Dict[str, Any] = {"fault": fault, "kind": kind,
                                "target": target}
        if addresses:
            args["addresses"] = addresses
        self.tracer.instant("chaos", "fault", None, args)

    def emit_recover(self, fault: str, kind: str, target: str) -> None:
        self.tracer.instant("chaos", "recover", None,
                            {"fault": fault, "kind": kind, "target": target})

    def emit_planned(self, kind: str, target: str,
                     extra: Dict[str, Any]) -> None:
        args = {"kind": kind, "target": target}
        args.update(extra)
        self.tracer.instant("chaos", "planned", None, args)

    def emit_probe(self, ok: bool, check: str, detail: str) -> None:
        self.tracer.instant("chaos", "probe", None,
                            {"ok": ok, "check": check, "detail": detail})

    # -- composite helpers used by executors ---------------------------------

    def crash_machines(self, region: str, machine_ids: List[str],
                       kind: str, repair_after: float) -> None:
        """Crash a machine group under one fault id and repair it later.

        The fault id doubles as the Twine down-hold cause, so an
        overlapping maintenance window (or another fault) on the same
        machine keeps it down until *every* holder releases it.
        """
        twine = self.cluster.twines[region]
        target = ",".join(machine_ids)
        fault = self.new_fault(kind, target)
        addresses = self.running_addresses_on(machine_ids)
        self.emit_fault(fault, kind, target, addresses)
        for machine_id in machine_ids:
            twine.fail_machine(machine_id, cause=fault)

        def repair() -> None:
            for machine_id in machine_ids:
                twine.repair_machine(machine_id, cause=fault)
            self.emit_recover(fault, kind, target)

        self.engine.call_after(repair_after, repair)

    # -- execution -----------------------------------------------------------

    def execute(self) -> None:
        spec = self.spec
        span = self.tracer.begin("chaos", "scenario", None,
                                 {"scenario": spec.name, "arm": self.arm,
                                  "seed": self.seed})
        for act in spec.actions:
            if act.kind not in ACTIONS:
                raise KeyError(f"unknown fault action kind {act.kind!r}")
            self.engine.call_at(
                self.t0 + act.at,
                lambda a=act: ACTIONS[a.kind](self, a))
        if spec.request_rate > 0:
            client = self.app.client(self.cluster, spec.regions[0],
                                     attempts=1, rpc_timeout=0.5)
            if spec.zipf_skew > 0:
                # Hot-key traffic: rank 0 is key 0, so "the hottest
                # shard" is the one covering the lowest keys.
                key_fn = ZipfKeySampler(spec.shards * 16,
                                        skew=spec.zipf_skew)
            else:
                key_fn = lambda rng: rng.randrange(spec.shards * 16)
            client.run_workload(
                duration=spec.duration,
                rate=lambda t: spec.request_rate,
                key_fn=key_fn,
                recorder=self.recorder,
                rng=substream(self.seed, "chaos", spec.name, "workload"),
            )
        self.cluster.run(until=self.t0 + spec.duration)
        fraction = self.app.ready_fraction()
        self.emit_probe(fraction >= spec.expectations.final_ready_min,
                        "final_ready_fraction",
                        f"ready={fraction:.3f} "
                        f"min={spec.expectations.final_ready_min}")
        self.tracer.end(span, None, {"outcome": "done"},
                        track="chaos", name="scenario")


def run_scenario(spec: ScenarioSpec, arm: str = "sm", seed: int = 0,
                 capacity: int = 1 << 20,
                 journal_path: Optional[str] = None) -> ScenarioResult:
    """Execute one scenario under one arm and check every invariant.

    Builds a private :class:`Observability` context (scenario journals
    must not interleave with an ambient one), runs the timeline, then
    replays the journal through the TraceChecker plus the scenario's
    expectation bounds.  ``journal_path`` dumps the raw journal (JSONL)
    for post-mortems.
    """
    obs = Observability(capacity=capacity)
    with use(obs):
        run = ScenarioRun(spec, arm, seed, obs)
        run.execute()
    journal = obs.journal
    if journal_path:
        from ..obs.trace_export import write_jsonl
        write_jsonl(journal, journal_path)
    checker = TraceChecker(journal)
    violations: List[Violation] = checker.check()
    expectations = spec.expectations
    if expectations.availability_bound is not None:
        violations.extend(checker.check_availability(
            expectations.availability_bound, until=run.engine.now))
    if expectations.failover_bound is not None:
        violations.extend(checker.check_failover_detection(
            expectations.failover_bound))
    faults = sum(1 for r in journal
                 if r.track == "chaos" and r.name == "fault")
    recovers = sum(1 for r in journal
                   if r.track == "chaos" and r.name == "recover")
    from ..obs.coverage import coverage_keys
    coverage = tuple(sorted(coverage_keys(journal, violations)))
    return ScenarioResult(
        name=spec.name,
        arm=arm,
        seed=seed,
        sim_duration=run.engine.now - run.t0,
        digest=journal.digest(),
        records=journal.appended,
        dropped=journal.dropped,
        violations=[v.as_dict() for v in violations],
        faults=faults,
        recovers=recovers,
        requests_sent=run.recorder.sent,
        requests_failed=run.recorder.failed,
        ready_fraction=run.app.ready_fraction(),
        coverage=coverage,
        behaviour_digest=journal.behaviour_digest(),
    )
