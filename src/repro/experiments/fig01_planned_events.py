"""Figure 1: planned container stops vs unplanned failures (≈1000x apart).

We run a fleet for N simulated days with production-calibrated cadences:

* every job is upgraded daily (a rolling restart of all its containers);
* every machine gets maintenance roughly monthly ("SM gracefully handles
  millions of machine and network maintenance events per month" over a
  few million machines, §8.1);
* unplanned crashes follow an exponential MTBF of a few machine-years.

With those rates, planned:unplanned lands at roughly three orders of
magnitude — the paper's headline observation falls out of the cadence
arithmetic, which this experiment makes explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..cluster.maintenance import MaintenanceSchedule
from ..cluster.topology import build_topology
from ..cluster.twine import Twine, TwineConfig
from ..sim.engine import Engine
from ..sim.failures import CrashInjector
from ..sim.rng import substream

DAY = 86_400.0


@dataclass
class Fig01Result:
    planned_stops: int
    unplanned_stops: int
    simulated_days: float

    @property
    def ratio(self) -> float:
        return self.planned_stops / max(1, self.unplanned_stops)


def run(machines: int = 120, jobs: int = 4, days: float = 60.0,
        machine_mtbf_days: float = 900.0, repair_minutes: float = 30.0,
        seed: int = 0) -> Fig01Result:
    engine = Engine()
    topology = build_topology(["prod"], machines_per_region=machines,
                              rng=substream(seed, "fig01-topology"))
    twine = Twine(engine, "prod", topology.machines,
                  config=TwineConfig(negotiation_interval=30.0),
                  rng=substream(seed, "fig01-twine"))
    per_job = machines // jobs
    job_names = []
    for index in range(jobs):
        job = f"job{index}"
        twine.create_job(job, per_job)
        job_names.append(job)
    engine.run(until=60.0)  # containers come up

    schedule = MaintenanceSchedule(
        engine=engine,
        twine=twine,
        rng=substream(seed, "fig01-schedule"),
        upgrade_interval=DAY,
        maintenance_interval=30 * DAY,
        restart_duration=60.0,
    )
    schedule.start(job_names)

    injector = CrashInjector(
        engine=engine,
        rng=substream(seed, "fig01-crashes"),
        mtbf=machine_mtbf_days * DAY,
        repair_time=repair_minutes * 60.0,
        on_fail=lambda machine_id: twine.fail_machine(machine_id),
        on_repair=lambda machine_id: twine.repair_machine(machine_id),
    )
    injector.start([m.machine_id for m in topology.machines])

    engine.run(until=60.0 + days * DAY)
    return Fig01Result(
        planned_stops=twine.container_stops_planned,
        unplanned_stops=twine.container_stops_unplanned,
        simulated_days=days,
    )


def headline(result: Fig01Result) -> Dict[str, int]:
    """The sweep report's numbers for this figure."""
    return {"planned_stops": result.planned_stops,
            "unplanned_stops": result.unplanned_stops}


def format_report(result: Fig01Result) -> str:
    lines = [
        "Figure 1 — planned vs unplanned container stops",
        f"  simulated days    : {result.simulated_days:.0f}",
        f"  planned stops     : {result.planned_stops}",
        f"  unplanned stops   : {result.unplanned_stops}",
        f"  planned/unplanned : {result.ratio:.0f}x   (paper: ~1000x)",
    ]
    return "\n".join(lines)
