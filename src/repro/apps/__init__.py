"""Example applications built on the SM programming model (§2.5)."""

from .kvstore import ExternalStore, KVStoreApp
from .queue_service import QueueServiceApp
from .zippydb import ZippyDBApp

__all__ = [
    "ExternalStore",
    "KVStoreApp",
    "QueueServiceApp",
    "ZippyDBApp",
]
