"""Discrete-event simulation substrate (engine, network, failures, RNG)."""

from .engine import (
    Delay,
    Engine,
    EventHandle,
    Process,
    SimulationError,
    every,
)
from .failures import CrashInjector, FailureRecord
from .fluid import (
    EpochDriver,
    mgk_utilization,
    mgk_wait,
)
from .network import (
    DEFAULT_REGION_LATENCY,
    AsyncReply,
    Endpoint,
    LatencyModel,
    Network,
    NetworkError,
    RpcCall,
    RpcResult,
)
from .rng import skewed_loads, substream

__all__ = [
    "Delay",
    "Engine",
    "EventHandle",
    "Process",
    "SimulationError",
    "every",
    "CrashInjector",
    "FailureRecord",
    "EpochDriver",
    "mgk_utilization",
    "mgk_wait",
    "DEFAULT_REGION_LATENCY",
    "AsyncReply",
    "Endpoint",
    "LatencyModel",
    "Network",
    "NetworkError",
    "RpcCall",
    "RpcResult",
    "skewed_loads",
    "substream",
]
