"""Where SM keeps one application's state in ZooKeeper (§3.2).

The SM library inside every application server and the orchestrator meet
only through these znodes — the server registers its liveness node and
reads its assignment, the orchestrator watches the former and writes the
latter — so both sides take the paths and the address ↔ znode-name
encoding from here.
"""

from __future__ import annotations


def servers_root(app: str) -> str:
    """Parent of the ephemeral liveness nodes, one per running server."""
    return f"/sm/{app}/servers"


def assignments_root(app: str) -> str:
    """Parent of the per-server assignment nodes servers bootstrap from."""
    return f"/sm/{app}/assignments"


def state_path(app: str) -> str:
    """The orchestrator's persisted assignment table."""
    return f"/sm/{app}/state"


def node_name(address: str) -> str:
    """Znode name of a network address (``/`` separates path segments)."""
    return address.replace("/", ":")


def node_address(name: str) -> str:
    """Inverse of :func:`node_name`."""
    return name.replace(":", "/")
