"""Fleet-wide planned-event generation.

Figure 1 contrasts container stops from planned maintenance/software
updates with unplanned failures (≈1000x apart).  This module generates
planned events at production cadences so the Fig 1 experiment can count
both kinds over simulated time:

* software upgrades: every job is upgraded every ``UPGRADE_INTERVAL``
  seconds (Facebook pushes most services daily, §8.2);
* hardware/kernel maintenance: each machine receives maintenance every
  ``MAINTENANCE_INTERVAL`` seconds ("SM gracefully handles millions of
  machine and network maintenance events per month", §8.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from ..sim.engine import Engine, every
from .taskcontrol import MaintenanceImpact
from .twine import Twine

UPGRADE_INTERVAL = 86_400.0              # daily releases
MAINTENANCE_INTERVAL = 30 * 86_400.0     # monthly per machine
MAINTENANCE_DURATION = 1_800.0
#: Fraction of a job's containers one upgrade restarts at a time.
UPGRADE_CONCURRENCY_FRACTION = 0.1
RESTART_DURATION = 60.0


@dataclass
class PlannedEventStats:
    """Counts of planned container stops by cause."""

    upgrades: int = 0
    maintenance: int = 0


@dataclass
class MaintenanceSchedule:
    """Drives recurring planned events against a Twine instance."""

    engine: Engine
    twine: Twine
    rng: random.Random
    stats: PlannedEventStats = field(default_factory=PlannedEventStats)
    _stoppers: List = field(default_factory=list)

    def start(self, jobs: List[str]) -> None:
        for job in jobs:
            # Stagger each job's upgrade within the interval.
            offset = self.rng.uniform(0, UPGRADE_INTERVAL)
            stopper = every(self.engine, UPGRADE_INTERVAL,
                            lambda j=job: self._upgrade(j),
                            start_after=offset)
            self._stoppers.append(stopper)
        for machine in self.twine.machines:
            offset = self.rng.uniform(0, MAINTENANCE_INTERVAL)
            stopper = every(self.engine, MAINTENANCE_INTERVAL,
                            lambda mid=machine.machine_id: self._maintain(mid),
                            start_after=offset)
            self._stoppers.append(stopper)

    def stop(self) -> None:
        for stopper in self._stoppers:
            stopper()
        self._stoppers.clear()

    def _upgrade(self, job: str) -> None:
        containers = [c for c in self.twine.job_containers(job) if c.running]
        if not containers:
            return
        concurrency = max(1, int(len(containers)
                                 * UPGRADE_CONCURRENCY_FRACTION))
        try:
            self.twine.start_rolling_upgrade(job, concurrency, RESTART_DURATION)
        except RuntimeError:
            return  # an upgrade is already being negotiated; skip this round
        self.stats.upgrades += len(containers)

    def _maintain(self, machine_id: str) -> None:
        start = self.engine.now + 60.0  # one minute of advance notice
        end = start + MAINTENANCE_DURATION
        if not self.twine.machine_up(machine_id):
            return
        # Count stops when the window actually opens, not at notice time:
        # containers start/stop/move during the 60 s notice period, so a
        # count taken now would misstate Fig 1's planned-event totals.
        self.twine.schedule_maintenance(
            [machine_id], start, end, MaintenanceImpact.RUNTIME_STATE_LOSS,
            on_begin=lambda notice, stopped: self._count_maintenance(stopped))

    def _count_maintenance(self, stopped: int) -> None:
        self.stats.maintenance += stopped
