"""SM control plane: the paper's primary contribution."""

from .allocator import (
    AllocationPlan,
    Allocator,
    CreateReplica,
    MoveReplica,
    PromoteReplica,
    ServerRecord,
)
from .migration import MigrationExecutor, MigrationStats
from .mini_sm import (
    ApplicationManager,
    ApplicationRegistry,
    Frontend,
    MiniSM,
    Partition,
    PartitionRegistry,
)
from .orchestrator import Orchestrator, OrchestratorConfig
from .shard_map import (
    AssignmentTable,
    ReplicaAssignment,
    ReplicaState,
    ShardMap,
    ShardMapEntry,
)
from .spec import (
    AppSpec,
    DrainPolicy,
    KeyRange,
    LoadBalancePolicy,
    ReplicationStrategy,
    Role,
    ShardSpec,
    uniform_shards,
)
from .task_controller import SMTaskController, SMTaskControllerConfig

__all__ = [
    "AllocationPlan",
    "Allocator",
    "CreateReplica",
    "MoveReplica",
    "PromoteReplica",
    "ServerRecord",
    "MigrationExecutor",
    "MigrationStats",
    "ApplicationManager",
    "ApplicationRegistry",
    "Frontend",
    "MiniSM",
    "Partition",
    "PartitionRegistry",
    "Orchestrator",
    "OrchestratorConfig",
    "AssignmentTable",
    "ReplicaAssignment",
    "ReplicaState",
    "Role",
    "ShardMap",
    "ShardMapEntry",
    "AppSpec",
    "DrainPolicy",
    "KeyRange",
    "LoadBalancePolicy",
    "ReplicationStrategy",
    "ShardSpec",
    "uniform_shards",
    "SMTaskController",
    "SMTaskControllerConfig",
]
