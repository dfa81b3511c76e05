"""Glue between containers and application servers.

The :class:`AppRuntime` wires container lifecycle hooks so that a fresh
:class:`~repro.app.server.ApplicationServer` comes up whenever a container
(re)starts and tears down when it stops — gracefully on planned stops,
abruptly on crashes (which leaves the ZooKeeper session to expire, i.e.
realistic failure-detection latency).

It also maintains the machine → addresses directory used to apply
NETWORK_LOSS maintenance (§4.2) without stopping containers.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from ..cluster.container import Container
from ..coordination.zookeeper import ZooKeeper
from ..core.spec import AppSpec
from ..sim.engine import Engine
from ..sim.network import Network
from .interfaces import RequestHandler
from .server import ApplicationServer

HandlerFactory = Callable[[Container], RequestHandler]


class AppRuntime:
    """Runs one application's servers across any number of containers."""

    def __init__(self, engine: Engine, network: Network, zookeeper: ZooKeeper,
                 spec: AppSpec, handler_factory: HandlerFactory,
                 base_loads: Optional[Callable[[str], Dict[str, float]]] = None,
                 on_server_created: Optional[
                     Callable[[ApplicationServer], None]] = None) -> None:
        self.engine = engine
        self.network = network
        self.zookeeper = zookeeper
        self.spec = spec
        self.handler_factory = handler_factory
        self.base_loads = base_loads
        self.on_server_created = on_server_created
        self.servers: Dict[str, ApplicationServer] = {}
        self._graceful_stop: Set[str] = set()
        self._machine_addresses: Dict[str, Set[str]] = {}

    # -- container wiring ---------------------------------------------------------

    def attach(self, containers: Iterable[Container]) -> None:
        """Register lifecycle hooks; bring up servers for running containers."""
        for container in containers:
            container.on_started.append(self._on_started)
            container.on_stopping.append(self._on_stopping)
            container.on_stopped.append(self._on_stopped)
            if container.running:
                self._on_started(container)

    def _on_started(self, container: Container) -> None:
        if container.address in self.servers:
            return
        server = ApplicationServer(
            engine=self.engine,
            network=self.network,
            zookeeper=self.zookeeper,
            spec=self.spec,
            container=container,
            handler=self.handler_factory(container),
            base_loads=self.base_loads,
        )
        self.servers[container.address] = server
        machine_id = container.machine.machine_id
        self._machine_addresses.setdefault(machine_id, set()).add(
            container.address)
        if self.on_server_created is not None:
            self.on_server_created(server)

    def _on_stopping(self, container: Container) -> None:
        # A "stopping" notification means the stop is planned.
        self._graceful_stop.add(container.address)

    def _on_stopped(self, container: Container) -> None:
        server = self.servers.pop(container.address, None)
        if server is None:
            return
        graceful = container.address in self._graceful_stop
        self._graceful_stop.discard(container.address)
        server.shutdown(graceful=graceful)
        bucket = self._machine_addresses.get(container.machine.machine_id)
        if bucket is not None:
            bucket.discard(container.address)

    # -- network-level maintenance (§4.2 NETWORK_LOSS) -------------------------------

    def set_machine_network(self, machine_id: str, up: bool) -> None:
        """Make a machine's servers unreachable without stopping them."""
        for address in self._machine_addresses.get(machine_id, set()):
            if self.network.has_endpoint(address):
                self.network.set_endpoint_up(address, up)

    # -- queries ------------------------------------------------------------------

    def server_at(self, address: str) -> Optional[ApplicationServer]:
        return self.servers.get(address)

    def running_addresses(self) -> List[str]:
        return sorted(self.servers)
