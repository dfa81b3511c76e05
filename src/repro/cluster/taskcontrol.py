"""The TaskControl protocol between cluster managers and controllers.

"Periodically, Twine notifies SM's TaskController of a set of pending
container operations (start/stop/restart/move) and SM's TaskController
responds with a subset of approved operations that will not endanger the
availability of any shard.  Twine delays the execution of unapproved
operations, but executes the approved operations immediately.  When those
operations finish, Twine notifies SM's TaskController" (§4.1).

This module defines the protocol's vocabulary (operations, maintenance
notices with impact levels) and the controller interface.  SM's actual
TaskController lives in ``repro.core.task_controller``; trivial
controllers for baselines live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Protocol, Sequence

from .container import Container


class OpKind(str, Enum):
    """The paper's protocol names start / stop / restart / move; every
    figure and scenario here negotiates restarts only."""

    RESTART = "restart"


class OpReason(str, Enum):
    """Why the cluster manager wants to perform the operation.

    UPGRADE/AUTOSCALE are negotiable (§4.1); MAINTENANCE/KERNEL are
    non-negotiable — they come with advance notice instead (§4.2).
    """

    UPGRADE = "upgrade"
    AUTOSCALE = "autoscale"
    MAINTENANCE = "maintenance"
    KERNEL_UPDATE = "kernel_update"
    MANUAL = "manual"


@dataclass(frozen=True, eq=False)
class ContainerOp:
    """One pending lifecycle operation on a container.

    Identity semantics (``eq=False``): ops are tracked by object identity
    and by ``op_id``, never by field comparison.
    """

    op_id: str
    kind: OpKind
    container: Container
    reason: OpReason
    region: str

    def __repr__(self) -> str:  # compact logs
        return f"<{self.kind.value} {self.container.container_id} ({self.reason.value})>"


class MaintenanceImpact(str, Enum):
    """Impact levels Twine attaches to a maintenance notice (§4.2)."""

    NETWORK_LOSS = "network_loss"
    RUNTIME_STATE_LOSS = "runtime_state_loss"
    FULL_STATE_LOSS = "full_state_loss"
    MACHINE_LOSS = "machine_loss"


@dataclass(frozen=True)
class MaintenanceNotice:
    """Advance notice of a non-negotiable event on a set of machines."""

    notice_id: str
    machine_ids: tuple[str, ...]
    start_time: float
    end_time: float
    impact: MaintenanceImpact
    region: str


class TaskController(Protocol):
    """What a cluster manager needs from a controller.

    ``review_ops`` is called on every negotiation tick with the full set of
    still-pending ops; it returns the subset safe to execute *now*.  A
    controller may start preparatory work (draining shards) for ops it is
    not yet approving.  ``on_op_finished`` closes the loop so the
    controller can approve the next batch, and ``on_maintenance_notice``
    delivers §4.2 advance notices.
    """

    def review_ops(self, ops: Sequence[ContainerOp]) -> List[ContainerOp]:
        ...

    def on_op_finished(self, op: ContainerOp) -> None:
        ...

    def on_maintenance_notice(self, notice: MaintenanceNotice) -> None:
        ...


@dataclass
class ApproveAllController:
    """Baseline controller: every operation is immediately safe.

    This is the "no TaskController" arm of Figure 17 — the cluster manager
    restarts containers as fast as its own concurrency limit allows,
    with no regard for shard availability.
    """

    approved: int = 0

    def review_ops(self, ops: Sequence[ContainerOp]) -> List[ContainerOp]:
        self.approved += len(ops)
        return list(ops)

    def on_op_finished(self, op: ContainerOp) -> None:
        return None

    def on_maintenance_notice(self, notice: MaintenanceNotice) -> None:
        return None


@dataclass
class DenyAllController:
    """Holds every negotiable op forever; useful in tests."""

    denied: int = 0

    def review_ops(self, ops: Sequence[ContainerOp]) -> List[ContainerOp]:
        self.denied += len(ops)
        return []

    def on_op_finished(self, op: ContainerOp) -> None:
        return None

    def on_maintenance_notice(self, notice: MaintenanceNotice) -> None:
        return None
