"""Containers (Twine "tasks"): the unit of deployment and lifecycle ops.

Twine "deploys an application as a group of containers called tasks.  The
taskIDs are indexed sequentially from zero" (§2.2.1) — we keep sequential
task IDs because the static-sharding baseline depends on them.

A container hosts one application server; the application layer registers
``on_started``/``on_stopping``/``on_stopped`` hooks to bring its server
process up and down with the container.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List

from .topology import Machine


class ContainerState(str, Enum):
    STARTING = "starting"
    RUNNING = "running"
    STOPPING = "stopping"
    STOPPED = "stopped"


HookList = List[Callable[["Container"], None]]


@dataclass(eq=False)
class Container:
    """One task of a job, pinned to a machine until moved.

    ``eq=False``: containers are identity objects — two containers are the
    same container only if they are the same object.
    """

    container_id: str
    job: str
    task_id: int
    machine: Machine
    state: ContainerState = ContainerState.STOPPED
    # Lifecycle hooks, wired by the application runtime.
    on_started: HookList = field(default_factory=list)
    on_stopping: HookList = field(default_factory=list)
    on_stopped: HookList = field(default_factory=list)
    restarts: int = 0
    moves: int = 0

    @property
    def address(self) -> str:
        """Stable, globally unique network address (region-qualified:
        multiple regional Twines run the same job with task IDs that each
        start at zero).  Survives restarts and moves; the endpoint's
        *region* is re-derived from the machine on every start."""
        return self.container_id

    @property
    def running(self) -> bool:
        return self.state is ContainerState.RUNNING

    def _fire(self, hooks: HookList) -> None:
        for hook in list(hooks):
            hook(self)

    def mark_running(self) -> None:
        self.state = ContainerState.RUNNING
        self._fire(self.on_started)

    def mark_stopping(self) -> None:
        self.state = ContainerState.STOPPING
        self._fire(self.on_stopping)

    def mark_stopped(self) -> None:
        self.state = ContainerState.STOPPED
        self._fire(self.on_stopped)

    def relocate(self, machine: Machine) -> None:
        if self.state is not ContainerState.STOPPED:
            raise RuntimeError(
                f"container {self.container_id} must be stopped to move "
                f"(state={self.state.value})"
            )
        self.machine = machine
        self.moves += 1
