"""The SM programming model (paper Figure 11).

An application server implements:

    add_shard(shardID, role)
    drop_shard(shardID)
    change_role(shardID, current_role, new_role)
    prepare_add_shard(shardID, current_owner, role)
    prepare_drop_shard(shardID, new_owner, role)

and application clients call plain RPC functions on a client object (the
paper's ``get_client(app_name, key)``; here
:class:`~repro.app.client.ApplicationClient`, built by
``DeployedApp.client``).  ``repro.app.server`` provides a
full implementation driven by the orchestrator; applications plug in a
:class:`RequestHandler` for their business logic only — the intentionally
tiny surface that made SM easy to adopt.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol

from ..core.shard_map import Role


class ShardHost(Protocol):
    """Server-side shard lifecycle API (Figure 11), invoked by the
    orchestrator over RPC."""

    def add_shard(self, shard_id: str, role: Role) -> None:
        """Officially take ownership of a shard replica."""

    def drop_shard(self, shard_id: str) -> None:
        """Give up a shard replica (after forwarding drains, if migrating)."""

    def change_role(self, shard_id: str, current_role: Role,
                    new_role: Role) -> None:
        """Promote/demote between primary and secondary."""

    def prepare_add_shard(self, shard_id: str, current_owner: Optional[str],
                          role: Role) -> None:
        """Migration step 1: get ready to take over; serve only forwarded
        requests until add_shard arrives."""

    def prepare_drop_shard(self, shard_id: str, new_owner: str,
                           role: Role) -> None:
        """Migration step 2: start forwarding every request to the new
        owner."""


class RequestHandler(Protocol):
    """Application business logic, invoked for each request a server owns."""

    def __call__(self, shard_id: str, request: Any) -> Any:
        ...


class NotOwnerError(RuntimeError):
    """The server does not (or not yet / no longer) own the shard."""
