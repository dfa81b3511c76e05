"""End-to-end wiring: simulated fleet + SM control plane + applications.

Experiments, examples and integration tests all start from
:class:`SimCluster` (the physical world: engine, topology, Twines,
ZooKeeper, network, service discovery) and :func:`deploy_app` (one SM
application: containers, application servers, orchestrator,
TaskController).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .app.client import ApplicationClient
from .app.runtime import AppRuntime
from .cluster.container import Container
from .cluster.topology import Topology, build_topology
from .cluster.twine import Twine, TwineConfig
from .coordination.zookeeper import ZooKeeper
from .core.orchestrator import Orchestrator, OrchestratorConfig
from .core.spec import AppSpec
from .core.task_controller import SMTaskController, SMTaskControllerConfig
from .discovery.service_discovery import ServiceDiscovery
from .obs import NO_OBS, Observability, get_default
from .sim.engine import Engine
from .sim.network import LatencyModel, Network
from .sim.rng import substream


@dataclass
class SimCluster:
    """The simulated world shared by every application in a scenario."""

    engine: Engine
    topology: Topology
    network: Network
    zookeeper: ZooKeeper
    discovery: ServiceDiscovery
    twines: Dict[str, Twine]
    seed: int
    obs: Observability = field(default_factory=lambda: NO_OBS)

    @classmethod
    def build(cls, regions: Sequence[str] = ("FRC", "PRN", "ODN"),
              machines_per_region: int = 10,
              seed: int = 0,
              capacity: Optional[Dict[str, float]] = None,
              capacity_jitter: float = 0.0,
              twine_config: Optional[TwineConfig] = None,
              discovery_base_delay: float = 1.0,
              discovery_jitter: float = 1.0,
              obs: Optional[Observability] = None) -> "SimCluster":
        obs = obs if obs is not None else get_default()
        engine = Engine()
        topology = build_topology(
            regions=list(regions),
            machines_per_region=machines_per_region,
            capacity=capacity,
            capacity_jitter=capacity_jitter,
            rng=substream(seed, "topology"),
        )
        network = Network(engine, latency=_latency_for(regions),
                          rng=substream(seed, "network"),
                          control_rng=substream(seed, "network", "control"),
                          tracer=obs.tracer)
        if obs.enabled:
            engine.set_tracer(obs.tracer)
            obs.metrics.gauge("engine.processed_events",
                              lambda: engine.processed_events)
            obs.metrics.gauge("engine.pending_events",
                              lambda: engine.pending_events)
            obs.metrics.gauge("net.rpcs_sent", lambda: network.rpcs_sent)
            obs.metrics.gauge("net.rpcs_failed", lambda: network.rpcs_failed)
            obs.rpc_latency = network.rpc_latency_ms
            obs.metrics.gauge("net.rpc_latency_ms", obs.rpc_latency_ms)
        zookeeper = ZooKeeper(engine)
        discovery = ServiceDiscovery(engine, base_delay=discovery_base_delay,
                                     jitter=discovery_jitter,
                                     rng=substream(seed, "discovery"))
        twines = {}
        for region in regions:
            twines[region] = Twine(
                engine=engine,
                region=region,
                machines=topology.in_region(region),
                config=twine_config,
                rng=substream(seed, "twine", region),
            )
        return cls(engine=engine, topology=topology, network=network,
                   zookeeper=zookeeper, discovery=discovery, twines=twines,
                   seed=seed, obs=obs)

    def run(self, until: float) -> float:
        return self.engine.run(until=until)


def _latency_for(regions: Sequence[str]) -> LatencyModel:
    """A latency model covering any region set (defaults for unknown pairs)."""
    from .sim.network import DEFAULT_REGION_LATENCY

    matrix = dict(DEFAULT_REGION_LATENCY)
    known = {r for pair in matrix for r in pair}
    extra = [r for r in regions if r not in known]
    # Sorted, orientation-aware fill.  The fill order decides which of
    # (a, b) / (b, a) receives the default, so it must not follow set
    # iteration order (PYTHONHASHSEED): two processes with the same seed
    # have to agree on cross-region latency, and a default must never
    # overwrite a configured pair through LatencyModel's symmetric
    # expansion.  See DESIGN.md, "Determinism contract".
    all_regions = sorted(known) + extra
    for i, a in enumerate(all_regions):
        for b in all_regions[i + 1:]:
            if (a, b) not in matrix and (b, a) not in matrix:
                matrix[(a, b)] = 0.05
    return LatencyModel(region_latency=matrix)


def _echo_handler_factory(container: Container):
    """Default application logic: echo the request payload."""

    def handler(shard_id: str, request: object) -> object:
        return {"shard": shard_id, "echo": request,
                "served_by": container.address}

    return handler


@dataclass
class DeployedApp:
    """One application wired into the cluster."""

    spec: AppSpec
    runtime: AppRuntime
    orchestrator: Orchestrator
    controller: Optional[SMTaskController]
    containers: List[Container] = field(default_factory=list)

    def client(self, cluster: SimCluster, region: str,
               name: Optional[str] = None,
               **router_options) -> ApplicationClient:
        address = name or f"client/{self.spec.name}/{region}"
        return ApplicationClient(
            cluster.engine, cluster.network, cluster.discovery,
            self.spec.name, address, region, **router_options)

    def fluid_client(self, cluster: SimCluster, region: str,
                     **fluid_options) -> "FluidClient":
        """The fluid-traffic counterpart of :meth:`client`: one analytic
        flow table modelling all of this app's users in ``region``."""
        from .app.fluid import FluidClient
        return FluidClient(
            cluster.engine, cluster.network, cluster.discovery,
            self.runtime, self.spec.name, region,
            tracer=cluster.obs.tracer, **fluid_options)

    def ready_fraction(self) -> float:
        """Fraction of desired replicas that are READY (deploy health)."""
        desired = self.spec.total_replicas()
        ready = sum(1 for r in self.orchestrator.table.all_replicas()
                    if r.available)
        return ready / desired if desired else 1.0


def deploy_app(cluster: SimCluster, spec: AppSpec,
               servers_per_region: Dict[str, int],
               handler_factory: Optional[Callable] = None,
               base_loads: Optional[Callable[[str], Dict[str, float]]] = None,
               orchestrator_config: Optional[OrchestratorConfig] = None,
               controller_config: Optional[SMTaskControllerConfig] = None,
               with_task_controller: bool = True,
               on_server_created: Optional[Callable] = None,
               settle: float = 0.0) -> DeployedApp:
    """Deploy one application end to end.

    Creates the job's containers in each region's Twine, attaches the
    application runtime (servers come up with the containers), starts the
    orchestrator, and (unless disabled — the Fig 17 ablation) registers an
    SM TaskController with every involved Twine.  If ``settle`` > 0 the
    engine runs that long so initial placement completes.
    """
    for region in servers_per_region:
        if region not in cluster.twines:
            raise ValueError(f"unknown region {region!r}")
    runtime = AppRuntime(
        engine=cluster.engine,
        network=cluster.network,
        zookeeper=cluster.zookeeper,
        spec=spec,
        handler_factory=handler_factory or _echo_handler_factory,
        base_loads=base_loads,
        on_server_created=on_server_created,
    )
    containers: List[Container] = []
    for region, count in servers_per_region.items():
        if count <= 0:
            continue
        twine = cluster.twines[region]
        region_containers = twine.create_job(spec.name, count)
        runtime.attach(region_containers)
        containers.extend(region_containers)

    orchestrator = Orchestrator(
        engine=cluster.engine,
        network=cluster.network,
        zookeeper=cluster.zookeeper,
        discovery=cluster.discovery,
        spec=spec,
        topology=cluster.topology,
        config=orchestrator_config,
        rng=substream(cluster.seed, "orchestrator", spec.name),
        obs=cluster.obs,
    )
    orchestrator.start()

    controller: Optional[SMTaskController] = None
    if with_task_controller:
        controller = SMTaskController(cluster.engine, orchestrator,
                                      controller_config)
        for region in servers_per_region:
            cluster.twines[region].register_task_controller(controller)

    deployed = DeployedApp(spec=spec, runtime=runtime,
                           orchestrator=orchestrator, controller=controller,
                           containers=containers)
    if settle > 0:
        cluster.run(until=cluster.engine.now + settle)
    return deployed
