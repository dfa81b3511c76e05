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
    PartitionFootprint,
    PartitionRegistry,
    plan_partition_footprints,
)
from .orchestrator import Orchestrator, OrchestratorConfig
from .shard_map import (
    AssignmentTable,
    ReplicaAssignment,
    ReplicaState,
    Role,
    ShardMap,
    ShardMapEntry,
)
from .spec import (
    AppSpec,
    DeploymentMode,
    DrainPolicy,
    KeyRange,
    LoadBalancePolicy,
    ReplicationStrategy,
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
    "PartitionFootprint",
    "PartitionRegistry",
    "plan_partition_footprints",
    "Orchestrator",
    "OrchestratorConfig",
    "AssignmentTable",
    "ReplicaAssignment",
    "ReplicaState",
    "Role",
    "ShardMap",
    "ShardMapEntry",
    "AppSpec",
    "DeploymentMode",
    "DrainPolicy",
    "KeyRange",
    "LoadBalancePolicy",
    "ReplicationStrategy",
    "ShardSpec",
    "uniform_shards",
    "SMTaskController",
    "SMTaskControllerConfig",
]
