"""The application server with the embedded SM library.

One :class:`ApplicationServer` runs inside each container.  It implements
the Figure 11 shard-lifecycle API (driven by the orchestrator over RPC),
the §4.3 forwarding behaviour that makes graceful primary migration drop
zero requests, the §3.2 ZooKeeper integration (ephemeral liveness node +
assignment bootstrap), and per-shard load accounting for the §5
load-balancing loop.

Application authors supply only a :class:`~repro.app.interfaces.RequestHandler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Optional

from ..cluster.container import Container
from ..coordination import layout
from ..coordination.zookeeper import NodeExistsError, Session, ZooKeeper
from ..core.spec import AppSpec, Role
from ..sim.engine import Engine
from ..sim.network import AsyncReply, Network, NetworkError
from .interfaces import NotOwnerError, RequestHandler

#: §4.3 step 5: how long a FORWARDING shard keeps relaying after the
#: orchestrator drops it, standing in for "until requests stop arriving".
DROP_GRACE = 5.0

#: Period of the SM library's ZooKeeper heartbeat.
ZK_HEARTBEAT_INTERVAL = 2.0


class HostedState(str, Enum):
    PREPARING = "preparing"    # §4.3 step 1: only forwarded requests
    ACTIVE = "active"
    FORWARDING = "forwarding"  # §4.3 step 2: everything goes to new owner


@dataclass(slots=True)
class HostedShard:
    """One shard replica currently hosted by this server.

    Slotted: the per-request served counter is bumped on every client
    request, so the instance must not carry a ``__dict__``.  The counter
    is batch accounting — it only accumulates here, is flushed into a
    :class:`LoadReport` by ``sm.report_load`` and becomes a rate when the
    report is read.
    """

    shard_id: str
    role: Role
    state: HostedState
    forward_to: Optional[str] = None
    requests_served: int = 0
    requests_forwarded: int = 0


class LoadReport:
    """One server's answer to ``sm.report_load``, read by the orchestrator
    at a poll tick: the requests each hosted shard served over ``elapsed``
    seconds, plus the application's static metrics per shard (``None``
    when the app supplies none).

    A snapshot, read like the mapping ``shard_id -> load vector``: the
    vector (``request_rate``, ``shard_count``, then the static metrics on
    top) is built when a shard is looked up, so a report nobody reads
    costs one dict of counts.
    """

    __slots__ = ("elapsed", "served", "static")

    def __init__(self, elapsed: float, served: Dict[str, float],
                 static: Optional[Dict[str, Dict[str, float]]]) -> None:
        self.elapsed = elapsed
        self.served = served
        self.static = static

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self.served

    def __getitem__(self, shard_id: str) -> Dict[str, float]:
        load = {"request_rate": self.served[shard_id] / self.elapsed,
                "shard_count": 1.0}
        if self.static is not None:
            load.update(self.static[shard_id])
        return load

    def get(self, shard_id: str, default=None):
        return self[shard_id] if shard_id in self else default


Admission = Enum("Admission", "SERVE FORWARD REJECT")

# Members bound once for the per-request path: on 3.11 each
# ``Admission.SERVE`` goes through ``EnumType.__getattr__``.
_SERVE = Admission.SERVE
_FORWARD = Admission.FORWARD
_REJECT = Admission.REJECT
_ACTIVE = HostedState.ACTIVE
_PREPARING = HostedState.PREPARING


def admission(hosted: Optional[HostedShard], forwarded: bool) -> Admission:
    """§4.3's rule for a request that reaches a server, stated once for
    the per-request path and the fluid path: an ACTIVE replica serves; a
    PREPARING one serves only forwarded traffic ("Pnew processes a
    primary-related request only if the request is forwarded from Pold");
    a FORWARDING one relays to ``forward_to``; a shard not hosted here is
    rejected."""
    if hosted is None:
        return _REJECT
    if hosted.state is _ACTIVE:
        return _SERVE
    if hosted.state is _PREPARING:
        return _SERVE if forwarded else _REJECT
    return _FORWARD


class ApplicationServer:
    """Server-side of one container: SM library + application handler."""

    def __init__(self, engine: Engine, network: Network, zookeeper: ZooKeeper,
                 spec: AppSpec, container: Container, handler: RequestHandler,
                 base_loads: Optional[Callable[[str], Dict[str, float]]] = None
                 ) -> None:
        self.engine = engine
        self.network = network
        self.zookeeper = zookeeper
        self.spec = spec
        self.container = container
        self.handler = handler
        self.base_loads = base_loads
        self.address = container.address
        self.region = container.machine.region
        self._shards: Dict[str, HostedShard] = {}
        self._stopped = False
        self._last_report_time = engine.now
        # Monotone hosting-mutation counter: bumped whenever the set of
        # hosted shards (or any hosted shard's state) changes.  The fluid
        # traffic engine polls it per epoch to reprice only the flows of
        # servers that actually changed — the event path never reads it.
        self.mutations = 0

        self.endpoint = network.register(self.address, self.region)
        self.endpoint.on("app.request", self._handle_app_request)
        self.endpoint.on("sm.add_shard", self._rpc_add_shard)
        self.endpoint.on("sm.drop_shard", self._rpc_drop_shard)
        self.endpoint.on("sm.change_role", self._rpc_change_role)
        self.endpoint.on("sm.prepare_add_shard", self._rpc_prepare_add_shard)
        self.endpoint.on("sm.prepare_drop_shard", self._rpc_prepare_drop_shard)
        self.endpoint.on("sm.report_load", self._rpc_report_load)
        self.endpoint.on("sm.ping", lambda _payload: "pong")

        # §3.2: SM-library-created ephemeral node for failure detection.
        # The library heartbeats every ``ZK_HEARTBEAT_INTERVAL`` from now
        # on; the session is leased on that grid instead of ticking.
        self._heartbeats = zookeeper.heartbeat_grid(ZK_HEARTBEAT_INTERVAL)
        self._zk_name = layout.node_name(self.address)
        self._liveness_path = (
            f"{layout.servers_root(spec.name)}/{self._zk_name}")
        self._open_session()
        self._bootstrap_from_zookeeper()

    def _open_session(self) -> None:
        """Open a leased session and (re-)create the liveness node under
        it, taking over from a stale node whose old session — a fast
        restart, or an expiry not yet reaped — still holds the path."""
        zookeeper = self.zookeeper
        self.session: Session = zookeeper.create_session(
            heartbeats=self._heartbeats)
        data = {"address": self.address, "region": self.region,
                "machine": self.container.machine.machine_id}
        try:
            zookeeper.create(self._liveness_path, data=data, ephemeral=True,
                             session=self.session)
        except NodeExistsError:
            zookeeper.delete(self._liveness_path)
            zookeeper.create(self._liveness_path, data=data, ephemeral=True,
                             session=self.session)

    # -- lifecycle ----------------------------------------------------------------

    def reconnect_zk(self) -> bool:
        """Re-establish the ZooKeeper session after an expiry.

        A real SM library reconnects when its session is lost (GC pause,
        ZK leader election, chaos-injected session kill): it opens a new
        session and re-creates its ephemeral liveness node, taking over
        from a stale node if the old one has not been reaped yet.  Returns
        True when a new session was established.
        """
        if self._stopped or not self.session.expired:
            return False
        self._open_session()
        return True

    def _bootstrap_from_zookeeper(self) -> None:
        """§3.2: read the shard assignment written by the orchestrator,
        'without dependency on the SM control plane'."""
        path = f"{layout.assignments_root(self.spec.name)}/{self._zk_name}"
        if not self.zookeeper.exists(path):
            return
        assigned = self.zookeeper.get(path) or []
        for entry in assigned:
            shard_id = entry["shard_id"]
            role = Role(entry["role"])
            self._shards[shard_id] = HostedShard(
                shard_id=shard_id, role=role, state=HostedState.ACTIVE)
            self.mutations += 1

    def shutdown(self, graceful: bool) -> None:
        """Tear down when the container stops.

        Graceful stops close the ZooKeeper session so the orchestrator
        learns instantly; crashes leave the session to expire (failure
        detection takes the session timeout).
        """
        if self._stopped:
            return
        self._stopped = True
        self._shards.clear()
        self.mutations += 1
        if self.network.has_endpoint(self.address):
            self.network.unregister(self.address)
        if graceful:
            self.session.close()
        else:
            self.session.stop_heartbeats()

    # -- hosting state (used by tests and the orchestrator RPCs) --------------------

    def hosted(self, shard_id: str) -> Optional[HostedShard]:
        return self._shards.get(shard_id)

    # -- Figure 11 API over RPC -------------------------------------------------------

    def _rpc_add_shard(self, payload: Dict[str, Any]) -> str:
        shard_id = payload["shard_id"]
        role = Role(payload["role"])
        hosted = self._shards.get(shard_id)
        if hosted is not None and hosted.state is HostedState.PREPARING:
            # §4.3 step 3: the prepared target officially takes over.
            hosted.state = HostedState.ACTIVE
            hosted.role = role
        else:
            self._shards[shard_id] = HostedShard(
                shard_id=shard_id, role=role, state=HostedState.ACTIVE)
        self.mutations += 1
        return "ok"

    def _rpc_drop_shard(self, payload: Dict[str, Any]) -> str:
        shard_id = payload["shard_id"]
        hosted = self._shards.get(shard_id)
        if hosted is None:
            return "ok"  # idempotent
        if hosted.state is HostedState.FORWARDING:
            # §4.3 step 5: keep forwarding until requests stop arriving,
            # modelled as a fixed grace period, then drop.
            self.engine.call_after(DROP_GRACE, self._deferred_drop,
                                   shard_id)
        else:
            del self._shards[shard_id]
            self.mutations += 1
        return "ok"

    def _deferred_drop(self, shard_id: str) -> None:
        if self._shards.pop(shard_id, None) is not None:
            self.mutations += 1

    def _rpc_change_role(self, payload: Dict[str, Any]) -> str:
        shard_id = payload["shard_id"]
        new_role = Role(payload["new_role"])
        hosted = self._shards.get(shard_id)
        if hosted is None:
            raise NotOwnerError(f"{self.address} does not host {shard_id}")
        hosted.role = new_role
        self.mutations += 1
        return "ok"

    def _rpc_prepare_add_shard(self, payload: Dict[str, Any]) -> str:
        shard_id = payload["shard_id"]
        role = Role(payload["role"])
        self._shards[shard_id] = HostedShard(
            shard_id=shard_id, role=role, state=HostedState.PREPARING)
        self.mutations += 1
        return "ok"

    def _rpc_prepare_drop_shard(self, payload: Dict[str, Any]) -> str:
        shard_id = payload["shard_id"]
        new_owner = payload["new_owner"]
        hosted = self._shards.get(shard_id)
        if hosted is None:
            raise NotOwnerError(f"{self.address} does not host {shard_id}")
        hosted.state = HostedState.FORWARDING
        hosted.forward_to = new_owner
        self.mutations += 1
        return "ok"

    def _rpc_report_load(self, _payload: Any) -> LoadReport:
        """Snapshot the per-shard served counts (and any application-
        supplied static metrics, evaluated now, once per hosted shard, in
        hosted order) into a :class:`LoadReport`, and zero the counters.

        The one place a report is built.  The orchestrator's poll tick
        runs it synchronously through ``Network.read``; a tick that cannot
        reach this server does not run it, so the counts carry over."""
        now = self.engine.now
        elapsed = max(1e-9, now - self._last_report_time)
        self._last_report_time = now
        shards = self._shards
        served = {shard_id: hosted.requests_served
                  for shard_id, hosted in shards.items()}
        for hosted in shards.values():
            hosted.requests_served = 0
        base_loads = self.base_loads
        static = (None if base_loads is None
                  else {shard_id: base_loads(shard_id) for shard_id in shards})
        return LoadReport(elapsed, served, static)

    # -- client requests -----------------------------------------------------------------

    def _handle_app_request(self, message: Dict[str, Any]) -> Any:
        # Hot path first: one dict probe into the shard table, one state
        # check, one slotted counter bump, then straight into the handler.
        shard_id = message["shard_id"]
        hosted = self._shards.get(shard_id)
        if hosted is not None and hosted.state is _ACTIVE:
            hosted.requests_served += 1
            return self.handler(shard_id, message["payload"])
        verdict = admission(hosted, message.get("forwarded", False))
        if verdict is _SERVE:
            hosted.requests_served += 1
            return self.handler(shard_id, message["payload"])
        if verdict is _FORWARD:
            return self._forward(hosted, message)
        if hosted is None:
            raise NotOwnerError(f"{self.address} does not own {shard_id}")
        raise NotOwnerError(
            f"{self.address} is preparing {shard_id}, not yet owner")

    def _forward(self, hosted: HostedShard, message: Dict[str, Any]) -> AsyncReply:
        """§4.3 step 2: relay the request to the new owner, then relay the
        response back — the client never sees the migration."""
        if hosted.forward_to is None:
            raise NetworkError(f"{self.address}: forwarding without a target")
        hosted.requests_forwarded += 1
        reply = AsyncReply()
        forwarded = dict(message)
        forwarded["forwarded"] = True
        self.network.rpc(self.address, hosted.forward_to, "app.request",
                         forwarded, on_complete=reply.relay)
        return reply
