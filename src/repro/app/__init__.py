"""Application-side pieces: SM library, servers, clients, runtime glue."""

from .client import ApplicationClient, WorkloadRecorder
from .fluid import FluidClient, FluidServer
from .interfaces import NotOwnerError, RequestHandler, ShardHost
from .runtime import AppRuntime
from .scatter import (QueuedServiceHandler, ScatterGatherClient,
                      queued_handler_factory)
from .server import ApplicationServer, HostedShard, HostedState

__all__ = [
    "ApplicationClient",
    "WorkloadRecorder",
    "FluidClient",
    "FluidServer",
    "NotOwnerError",
    "RequestHandler",
    "ShardHost",
    "AppRuntime",
    "ApplicationServer",
    "HostedShard",
    "HostedState",
    "QueuedServiceHandler",
    "ScatterGatherClient",
    "queued_handler_factory",
]
