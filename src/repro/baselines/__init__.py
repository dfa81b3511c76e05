"""Legacy sharding schemes used as baselines (§2.2.1)."""

from .pinned import PinnedAllocator, modulo_placement, ring_placement

__all__ = ["PinnedAllocator", "modulo_placement", "ring_placement"]
