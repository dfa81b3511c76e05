"""Cluster substrate: topology, containers, Twine, TaskControl protocol."""

from .container import Container, ContainerState
from .taskcontrol import (
    ApproveAllController,
    ContainerOp,
    DenyAllController,
    MaintenanceImpact,
    MaintenanceNotice,
    OpKind,
    OpReason,
    TaskController,
)
from .topology import (
    DEFAULT_CAPACITY,
    FaultDomainLevel,
    Machine,
    Topology,
    build_topology,
)
from .twine import RollingUpgrade, Twine, TwineConfig

__all__ = [
    "Container",
    "ContainerState",
    "ApproveAllController",
    "ContainerOp",
    "DenyAllController",
    "MaintenanceImpact",
    "MaintenanceNotice",
    "OpKind",
    "OpReason",
    "TaskController",
    "DEFAULT_CAPACITY",
    "FaultDomainLevel",
    "Machine",
    "Topology",
    "build_topology",
    "RollingUpgrade",
    "Twine",
    "TwineConfig",
]
