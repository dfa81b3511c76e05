"""The chaos scenario engine: declarative, seeded, trace-checked faults.

A :class:`ScenarioSpec` is a timeline of :class:`FaultAction`\\ s —
machine crashes, rack blackouts, region partitions, ZooKeeper session
kills, planned maintenance, canary and rolling upgrades, control-plane
failovers, region preferences and in-scenario probes — executed against
the standard harness (:class:`~repro.harness.SimCluster` +
:func:`~repro.harness.deploy_app`).

Contract (see DESIGN.md, "Chaos scenarios"):

* **deterministic** — a scenario run is a pure function of
  ``(spec, arm, seed)``; two runs produce bit-identical journals
  (:meth:`~repro.obs.tracer.Journal.digest` is the fingerprint);
* **audited** — every injected fault lands on the ``chaos`` journal
  track with a unique fault id and must be matched by a recovery record
  (:meth:`~repro.obs.checker.TraceChecker.check_fault_recovery`);
* **checked** — the full TraceChecker invariant set, the final published
  map against the journal, every outage against :func:`outage_bound`
  and the end-state health of :class:`Expectations` are the oracle.

Faults compose through the cluster layer's down-hold mechanism: chaos
crashes hold machines down under their fault id, planned maintenance
under its notice id, so overlapping events neither double-apply nor
cut each other short.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..app.client import WorkloadRecorder
from ..cluster.container import Container
from ..cluster.taskcontrol import MaintenanceImpact, OpKind, OpReason
from ..cluster.topology import Machine
from ..cluster.twine import RollingUpgrade
from ..coordination.zookeeper import SESSION_TIMEOUT
from ..core.orchestrator import EMERGENCY_CHECK_INTERVAL, OrchestratorConfig
from ..core.spec import AppSpec, ReplicationStrategy, Role, uniform_shards
from ..core.task_controller import SMTaskControllerConfig
from ..harness import DeployedApp, SimCluster, deploy_app
from ..obs import Observability, use
from ..obs.checker import Outage, TraceChecker, Violation
from ..sim.failures import CrashInjector
from ..sim.network import DEFAULT_RPC_TIMEOUT
from ..sim.rng import substream
from ..workloads.load import ZipfKeySampler

__all__ = ["FaultAction", "Expectations", "ScenarioSpec", "ScenarioResult",
           "ScenarioRun", "run_scenario", "ARMS", "ACTIONS", "Param",
           "param_of", "duration_of", "outage_bound"]

#: Ablation arms every scenario runs under (Fig 17's three lines): SM's
#: full machinery, SM without graceful migration, and a baseline with
#: neither graceful migration nor a TaskController.
ARMS: Dict[str, Dict[str, bool]] = {
    "sm": {"graceful": True, "with_task_controller": True},
    "no_graceful": {"graceful": False, "with_task_controller": True},
    "baseline": {"graceful": False, "with_task_controller": False},
}

#: Fraction of a region's running app containers a canary restarts.
CANARY_FRACTION = 0.1


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
    maximum: Any = None                 # inclusive upper bound; may be f(spec)
    choices: Tuple[str, ...] = ()
    region: bool = False                # names one of the spec's regions
    nullable: bool = False              # ``None`` is a value of its own

    def problem(self, value: Any, spec: "ScenarioSpec") -> str:
        """Why ``value`` cannot be scheduled; empty when it can."""
        if value is None and self.nullable:
            return ""
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
        top = self.maximum(spec) if callable(self.maximum) else self.maximum
        if top is not None and not value <= top:
            return f"must be <= {top}, got {value!r}"
        return ""

    def from_json(self, value: Any, what: str) -> Any:
        """A JSON number (or null, where ``None`` is a value) as this
        type: an int must be whole, a float one that a double holds (not
        an integer with hundreds of digits).  Anything else is a
        ``ValueError`` naming ``what``; ``problem`` checks the range."""
        if value is None and self.nullable:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            null = " or null" if self.nullable else ""
            raise ValueError(f"{what} must be a number{null}, got {value!r}")
        if self.type is int:
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(f"{what} must be a whole number, "
                                 f"got {value!r}")
            return int(value)
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{what} must be finite, got {value!r}") from None


#: The scenario-level scalar fields, in ``to_dict`` order: the type
#: ``from_dict`` converts each to and the range ``validate_spec`` holds
#: it to.  Their defaults are the dataclass's.  From ``discovery_base_delay``
#: on, each forwards to the harness option of the same name.
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
    "restart_hint": Param(float, minimum=0.0),
    "discovery_base_delay": Param(float, minimum=0.0),
    "discovery_jitter": Param(float, minimum=0.0),
    "rebalance_interval": Param(float, above=0.0),
    "drain_concurrency": Param(int, minimum=1),
    "drain_pacing": Param(float, minimum=0.0),
    "max_moves_per_round": Param(int, minimum=1),
    "max_concurrent_container_ops": Param(int, minimum=1, nullable=True),
}

#: The ``expectations`` block's fields, held as ``SCALAR_FIELDS`` are:
#: ``Expectations.from_dict`` checks each type, ``validate_spec`` each
#: range.
EXPECTATION_FIELDS: Dict[str, Param] = {
    "final_ready_min": Param(float, minimum=0.0, maximum=1.0),
}


@dataclass(frozen=True)
class FaultAction:
    """One timeline entry: at ``at`` seconds (relative to the scenario
    start, i.e. after deploy + settle), run the ``kind`` executor.

    ``duration`` is how long the fault lasts (a ``zk_expire``: until its
    servers reconnect); a kind registered without one is instantaneous
    and takes none.  ``params`` are kind-specific (region, machine index,
    impact, ...), stored as a tuple of pairs so specs stay
    hashable/frozen.
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
        if not isinstance(kind, str) or kind not in ACTIONS:
            raise ValueError(f"unknown action kind {kind!r}; "
                             f"known: {sorted(ACTIONS)}")
        seconds = Param(float)
        at = seconds.from_json(data.get("at"), f"action {kind!r}: 'at'")
        duration = seconds.from_json(data.get("duration", 0.0),
                                     f"action {kind!r}: 'duration'")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"action {kind!r}: 'params' must be an "
                             f"object, got {type(params).__name__}")
        return cls(at=at, kind=kind, duration=duration,
                   params=tuple(sorted(params.items())))


@dataclass(frozen=True)
class Expectations:
    """The one hand-set bound of a scenario; how long a shard may go
    unserved is derived from the spec (:func:`outage_bound`)."""

    #: Fraction of desired replicas READY at scenario end.
    final_ready_min: float = 0.95

    def to_dict(self) -> Dict[str, Any]:
        return {"final_ready_min": self.final_ready_min}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Expectations":
        if not isinstance(data, dict):
            raise ValueError(f"expectations must be an object, "
                             f"got {type(data).__name__}")
        unknown = set(data) - set(EXPECTATION_FIELDS)
        if unknown:
            raise ValueError(f"unknown expectation fields: "
                             f"{sorted(unknown)}")
        return cls(**{key: param.from_json(data[key],
                                           f"expectations: {key!r}")
                      for key, param in EXPECTATION_FIELDS.items()
                      if key in data})


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
    restart_hint: float = 60.0
    discovery_base_delay: float = 1.0
    discovery_jitter: float = 1.0
    rebalance_interval: float = OrchestratorConfig.rebalance_interval
    drain_concurrency: int = OrchestratorConfig.drain_concurrency
    drain_pacing: float = OrchestratorConfig.drain_pacing
    max_moves_per_round: int = OrchestratorConfig.max_moves_per_round
    #: The app's restart cap; ``None`` is half a region.
    max_concurrent_container_ops: Optional[int] = None
    #: Shard *i* prefers ``preferred_regions[i]`` (none past its end).
    preferred_regions: Tuple[str, ...] = ()
    expectations: Expectations = field(default_factory=Expectations)

    @property
    def key_space(self) -> int:
        """How many keys the app's shards split: sixteen a shard."""
        return self.shards * 16

    def app_spec(self) -> AppSpec:
        """The app this scenario deploys (the one place its shards, key
        space and restart cap are spelt)."""
        return AppSpec(
            name=f"chaos-{self.name}",
            shards=uniform_shards(
                self.shards, key_space=self.key_space,
                replica_count=self.replica_count,
                preferred_regions=dict(enumerate(self.preferred_regions))),
            replication=self.replication,
            max_concurrent_container_ops=(
                self.max_concurrent_container_ops
                or max(1, self.servers_per_region // 2)),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON form ``run_chaos.py --scenario @file.json`` loads."""
        record: Dict[str, Any] = {
            "name": self.name,
            "title": self.title,
            "actions": [action.to_dict() for action in self.actions],
            "regions": list(self.regions),
            "preferred_regions": list(self.preferred_regions),
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
        known = {"name", "title", "actions", "regions", "preferred_regions",
                 "replication", "expectations", *SCALAR_FIELDS}
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
        preferred = data.get("preferred_regions", [])
        if (not isinstance(preferred, list)
                or not all(isinstance(r, str) for r in preferred)):
            raise ValueError(f"scenario 'preferred_regions' must be a list "
                             f"of strings, got {preferred!r}")
        try:
            replication = ReplicationStrategy(
                data.get("replication", ReplicationStrategy.PRIMARY_ONLY))
        except ValueError:
            raise ValueError(
                f"unknown replication {data.get('replication')!r}; known: "
                f"{[s.value for s in ReplicationStrategy]}") from None
        title = data.get("title", name)
        if not isinstance(title, str):
            raise ValueError(f"scenario 'title' must be a string, "
                             f"got {title!r}")
        kwargs = {field_name: param.from_json(data[field_name],
                                              f"scenario {field_name!r}")
                  for field_name, param in SCALAR_FIELDS.items()
                  if field_name in data}
        return cls(
            name=name,
            title=title,
            actions=tuple(FaultAction.from_dict(a) for a in actions),
            regions=tuple(regions),
            preferred_regions=tuple(preferred),
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
    #: saw a truncated trace.
    dropped: int
    violations: List[Dict[str, Any]]
    faults: int
    recovers: int
    requests_sent: int
    requests_failed: int
    ready_fraction: float
    #: :meth:`~repro.obs.tracer.Journal.track_digests` of the same
    #: journal: stable across simulator-substrate changes.
    tracks: Dict[str, str]
    #: Why the run passed: its longest outage, with the bound it met.
    longest_outage: Optional[Dict[str, Any]] = None

    def headline(self) -> Dict[str, Any]:
        record = asdict(self)
        record["scenario"] = record.pop("name")
        return record


# -- action executors ---------------------------------------------------------

ActionFn = Callable[["ScenarioRun", FaultAction], None]
ACTIONS: Dict[str, ActionFn] = {}


def action(kind: str, duration: float = 0.0, unplanned: bool = False,
           **params: Param
           ) -> Callable[[Callable[..., None]], Callable[..., None]]:
    """Register the executor of action ``kind`` with the one statement of
    what its timeline entries may say: ``duration`` is how long the fault
    lasts when an entry gives none (0: the kind is instantaneous and an
    entry may give none either), ``params`` the entry's params by name.
    ``unplanned``: it takes machines or links away unannounced.  The
    executor gets every param resolved (:func:`param_of`) as a keyword;
    ``validate_spec`` reads the same table."""
    def register(fn: Callable[..., None]) -> Callable[..., None]:
        def execute(run: "ScenarioRun", act: FaultAction) -> None:
            fn(run, act, **{name: param_of(run.spec, act, name)
                            for name in params})
        execute.duration = duration
        execute.unplanned = unplanned
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


def _planned(spec: "ScenarioSpec", arm: str) -> bool:
    """The ``sm`` arm, and no action of an ``unplanned`` kind."""
    return arm == "sm" and not any(ACTIONS[act.kind].unplanned
                                   for act in spec.actions)


def outage_bound(spec: "ScenarioSpec", arm: str,
                 outage: Optional[Outage] = None) -> float:
    """How long a shard may go without a READY primary on a live server
    in a run of ``spec`` under ``arm`` (``outage``: in that outage).

    A planned ``sm`` run hands each primary over: no gap, but a role swap
    demotes before it promotes (``MigrationExecutor.promote``), one RPC.
    Else a failover: the session expires, the grace passes, and a create,
    which may wait a tick behind a running emergency, takes one RPC.
    Chained loss: a create to a stopped server whose session lives times
    out, and each tick may pick that server again until it expires."""
    if _planned(spec, arm):
        swaps = spec.replication is ReplicationStrategy.PRIMARY_SECONDARY
        return DEFAULT_RPC_TIMEOUT if swaps else 0.0
    detected = SESSION_TIMEOUT + spec.failover_grace
    if outage is not None and outage.dead_target_stopped is not None:
        detected = max(detected, outage.dead_target_stopped
                       + SESSION_TIMEOUT - outage.start)
    return detected + EMERGENCY_CHECK_INTERVAL + DEFAULT_RPC_TIMEOUT


def _seconds(default: float) -> Param:
    return Param(float, default, minimum=0.0)


_REGION = Param(str, lambda spec: spec.regions[0], region=True)
_MACHINE_INDEX = Param(int, 0, minimum=0)


@action("crash_machine", duration=30.0, unplanned=True, region=_REGION,
        index=_MACHINE_INDEX)
def _crash_machine(run: "ScenarioRun", act: FaultAction, region: str,
                   index: int) -> None:
    machine = run.machine_at(region, index)
    run.crash_machines(region, [machine.machine_id], "crash_machine",
                       duration_of(act))


@action("crash_rack", duration=60.0, unplanned=True, region=_REGION,
        index=_MACHINE_INDEX)
def _crash_rack(run: "ScenarioRun", act: FaultAction, region: str,
                index: int) -> None:
    anchor = run.machine_at(region, index)
    machine_ids = sorted({c.machine.machine_id
                          for c in run.app_containers(region)
                          if c.machine.rack == anchor.rack})
    run.crash_machines(region, machine_ids, "crash_rack", duration_of(act))


@action("crash_region", duration=120.0, unplanned=True, region=_REGION)
def _crash_region(run: "ScenarioRun", act: FaultAction, region: str) -> None:
    machine_ids = sorted({c.machine.machine_id
                          for c in run.app_containers(region)})
    run.crash_machines(region, machine_ids, "crash_region",
                       duration_of(act))


@action("crash_hot_shard", duration=45.0, unplanned=True)
def _crash_hot_shard(run: "ScenarioRun", act: FaultAction) -> None:
    """Kill the machine hosting the hottest shard's primary, mid-run.

    Under a Zipf workload (``zipf_skew`` > 0) rank 0 maps to key 0, so
    the hottest shard is the one covering key 0.  The
    target is resolved *at fire time* from the live assignment table —
    if the orchestrator already moved the hot shard, the fault follows
    it.  Falls back to the first app machine when no owner is resolvable
    (e.g. the shard is mid-failover), so the action is total.
    """
    from ..core.shard_map import ReplicaState

    shard_id = next((s.shard_id for s in run.app.spec.shards
                     if 0 in s.key_range), None)
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


@action("isolate_region", duration=90.0, unplanned=True,
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


@action("partition_pair", duration=90.0, unplanned=True, a=_REGION,
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


@action("zk_expire", duration=5.0, region=Param(str, region=True))
def _zk_expire(run: "ScenarioRun", act: FaultAction,
               region: Optional[str]) -> None:
    """Kill the ZooKeeper sessions of the region's servers (every
    server's, without a region); they reconnect (new session + fresh
    ephemeral) after the action's duration.
    """
    servers = [run.app.runtime.servers[address]
               for address in run.app.runtime.running_addresses()]
    if region is not None:
        servers = [s for s in servers if s.region == region]
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

    run.engine.call_after(duration_of(act), reconnect)


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
        upgrade = run.cluster.twines[region].start_rolling_upgrade(
            run.app.spec.name, max_concurrent=concurrency,
            restart_duration=restart_duration)
    except RuntimeError:
        # No running containers (e.g. mid-outage): a legal no-op, but
        # leave an audit record so the journal explains the quiet.
        run.emit_planned("rolling_upgrade_skipped", region, {})
        return
    run.upgrades.append(upgrade)
    run.emit_planned("rolling_upgrade", region,
                     {"concurrency": concurrency,
                      "restart": restart_duration})


@action("canary_restart", region=_REGION)
def _canary_restart(run: "ScenarioRun", act: FaultAction,
                    region: str) -> None:
    """Restart the first ``CANARY_FRACTION`` (at least one) of the
    region's running app containers at once, each a negotiable upgrade
    op: the small restart a staged upgrade starts with."""
    twine = run.cluster.twines[region]
    running = [c for c in run.app_containers(region) if c.running]
    canaries = running[:max(1, int(len(running) * CANARY_FRACTION))]
    for container in canaries:
        twine.submit_op(OpKind.RESTART, container, OpReason.UPGRADE)
    run.emit_planned("canary_restart", region, {"count": len(canaries)})


@action("prefer_region", region=_REGION,
        shard=Param(int, 0, minimum=0, maximum=lambda spec: spec.shards - 1))
def _prefer_region(run: "ScenarioRun", act: FaultAction, shard: int,
                   region: str) -> None:
    """An operator moves one shard's region preference (Fig 20's admin);
    the affinity goal does the rest.  The spec gets a new shard list, so
    an index keyed to the old one (``AppSpec.shard``) rebuilds."""
    spec = run.app.spec
    shards = list(spec.shards)
    shards[shard] = replace(shards[shard], preferred_region=region)
    spec.shards = shards
    run.emit_planned("prefer_region", shards[shard].shard_id,
                     {"region": region})


@action("crash_burst", duration=120.0, unplanned=True, region=_REGION,
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
        min=Param(float, 0.9, minimum=0.0, maximum=1.0))
def _probe(run: "ScenarioRun", act: FaultAction, region: str, index: int,
           check: str, min: float) -> None:
    """Assert world state mid-scenario; failures become journal records
    that :meth:`TraceChecker.check_fault_recovery` turns into violations.
    ``server_alive`` wants every server of the region alive.
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
        wanted = run.spec.servers_per_region
        ok = len(alive) >= wanted
        detail = f"alive={len(alive)} min={wanted}"
    else:
        detail = f"unknown check {check!r}"
    run.emit_probe(ok, check, detail)


# -- the runner ---------------------------------------------------------------

class ScenarioRun:
    """One executing scenario: the harness plus chaos bookkeeping."""

    def __init__(self, spec: ScenarioSpec, arm: str, seed: int,
                 obs: Observability,
                 handler_factory: Optional[Callable] = None) -> None:
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
            discovery_base_delay=spec.discovery_base_delay,
            discovery_jitter=spec.discovery_jitter,
            obs=obs,
        )
        self.engine = self.cluster.engine
        self.app: DeployedApp = deploy_app(
            self.cluster, spec.app_spec(),
            {region: spec.servers_per_region for region in spec.regions},
            handler_factory=handler_factory,
            orchestrator_config=OrchestratorConfig(
                graceful_migration=preset["graceful"],
                failover_grace=spec.failover_grace,
                rebalance_interval=spec.rebalance_interval,
                drain_concurrency=spec.drain_concurrency,
                drain_pacing=spec.drain_pacing,
                max_moves_per_round=spec.max_moves_per_round,
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
        #: App server address -> the instants it came up and went down,
        #: from an up (0.0: since deploy); odd length: up now.  Unjournaled.
        self.uptime: Dict[str, List[float]] = {}
        for container in self.app.containers:
            container.on_started.append(self._server_changed)
            container.on_stopped.append(self._server_changed)
            self.uptime[container.address] = [0.0] if container.running else []
        self.t0 = self.engine.now
        self.recorder = WorkloadRecorder.with_bucket(30.0)
        #: Every rolling upgrade the timeline started, in start order.
        self.upgrades: List[RollingUpgrade] = []

    def _server_changed(self, container: Container) -> None:
        times = self.uptime[container.address]
        if container.running is not (len(times) % 2 == 1):
            times.append(self.engine.now)

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

    # -- chaos journal records -----------------------------------------------

    def new_fault(self, kind: str, target: str) -> str:
        self._fault_counter += 1
        return f"{kind}:{target}:{self._fault_counter}"

    def emit_fault(self, fault: str, kind: str, target: str,
                   addresses: Optional[List[str]] = None) -> None:
        if self.tracer.enabled:
            args: Dict[str, Any] = {"fault": fault, "kind": kind,
                                    "target": target}
            if addresses:
                args["addresses"] = addresses
            self.tracer.instant("chaos", "fault", None, args)

    def emit_recover(self, fault: str, kind: str, target: str) -> None:
        if self.tracer.enabled:
            self.tracer.instant("chaos", "recover", None, {
                "fault": fault, "kind": kind, "target": target})

    def emit_planned(self, kind: str, target: str,
                     extra: Dict[str, Any]) -> None:
        if self.tracer.enabled:
            self.tracer.instant("chaos", "planned", None,
                                {"kind": kind, "target": target, **extra})

    def emit_probe(self, ok: bool, check: str, detail: str) -> None:
        if self.tracer.enabled:
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
        addresses = sorted(c.address for c in self.app.containers
                           if c.machine.machine_id in machine_ids
                           and c.running)
        self.emit_fault(fault, kind, target, addresses)
        for machine_id in machine_ids:
            twine.fail_machine(machine_id, cause=fault)

        def repair() -> None:
            for machine_id in machine_ids:
                twine.repair_machine(machine_id, cause=fault)
            self.emit_recover(fault, kind, target)

        self.engine.call_after(repair_after, repair)

    # -- execution -----------------------------------------------------------

    def start(self) -> None:
        """Open the scenario span, schedule the timeline and start the
        built-in client; the caller runs the cluster (to ``t0 +
        spec.duration``, or in slices of its own), then :meth:`finish`."""
        spec = self.spec
        if self.tracer.enabled:
            self._span = self.tracer.begin(
                "chaos", "scenario", None,
                {"scenario": spec.name, "arm": self.arm, "seed": self.seed})
        for act in spec.actions:
            if act.kind not in ACTIONS:
                raise KeyError(f"unknown fault action kind {act.kind!r}")
            self.engine.call_at(
                self.t0 + act.at,
                lambda a=act: ACTIONS[a.kind](self, a))
        if spec.request_rate > 0:
            client = self.app.client(self.cluster, spec.regions[0],
                                     attempts=1, rpc_timeout=0.5)
            key_space = spec.key_space
            if spec.zipf_skew > 0:
                # Hot-key traffic: rank 0 is key 0, so "the hottest
                # shard" is the one covering the lowest keys.
                key_fn = ZipfKeySampler(key_space, skew=spec.zipf_skew)
            else:
                key_fn = lambda rng: rng.randrange(key_space)
            client.run_workload(
                duration=spec.duration,
                rate=lambda t: spec.request_rate,
                key_fn=key_fn,
                recorder=self.recorder,
                rng=substream(self.seed, "chaos", spec.name, "workload"),
            )

    def finish(self) -> None:
        """Journal the final readiness probe and close the span."""
        fraction = self.app.ready_fraction()
        minimum = self.spec.expectations.final_ready_min
        self.emit_probe(fraction >= minimum, "final_ready_fraction",
                        f"ready={fraction:.3f} min={minimum}")
        if self.tracer.enabled:
            self.tracer.end(self._span, None, {"outcome": "done"},
                            track="chaos", name="scenario")


def run_scenario(spec: ScenarioSpec, arm: str = "sm", seed: int = 0,
                 capacity: int = 1 << 20,
                 journal_path: Optional[str] = None) -> ScenarioResult:
    """Execute one scenario under one arm and check every invariant.

    Builds a private :class:`Observability` context (scenario journals
    must not interleave with an ambient one), runs the timeline, then
    replays the journal through the TraceChecker (the final published
    map included) and holds every outage to :func:`outage_bound`.
    ``journal_path`` dumps the raw journal (JSONL) for post-mortems.
    """
    obs = Observability(capacity=capacity)
    with use(obs):
        run = ScenarioRun(spec, arm, seed, obs)
        run.start()
        run.cluster.run(until=run.t0 + spec.duration)
        run.finish()
    journal = obs.journal
    if journal_path:
        from ..obs.trace_export import write_jsonl
        write_jsonl(journal, journal_path)
    checker = TraceChecker(journal)
    violations: List[Violation] = checker.check()
    violations.extend(checker.check_shard_map(
        run.cluster.discovery.latest(run.app.spec.name)))
    longest: Optional[Dict[str, Any]] = None
    for outage in checker.outages(run.uptime, run.engine.now):
        summary = {"shard": outage.shard, "start": outage.start - run.t0,
                   "length": outage.end - outage.start, "open": outage.open,
                   "bound": outage_bound(spec, arm, outage)}
        if summary["length"] > summary["bound"]:
            violations.append(Violation(
                "availability", f"no READY primary on a live server: "
                f"{summary}", outage.seq))
        if longest is None or summary["length"] > longest["length"]:
            longest = summary
    if _planned(spec, arm) and run.recorder.failed:
        violations.append(Violation(
            "planned-drops", f"{run.recorder.failed} of "
            f"{run.recorder.sent} client requests failed", -1))
    chaos = [record.name for record in checker.records("chaos")]
    return ScenarioResult(
        name=spec.name,
        arm=arm,
        seed=seed,
        sim_duration=run.engine.now - run.t0,
        digest=journal.digest(),
        records=journal.appended,
        dropped=journal.dropped,
        violations=[v.as_dict() for v in violations],
        faults=chaos.count("fault"),
        recovers=chaos.count("recover"),
        requests_sent=run.recorder.sent,
        requests_failed=run.recorder.failed,
        ready_fraction=run.app.ready_fraction(),
        tracks=journal.track_digests(),
        longest_outage=longest,
    )
