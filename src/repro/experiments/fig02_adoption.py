"""Figure 2: machines used by SM applications, 2012–2021.

Production adoption data; we reproduce it as a logistic adoption model
calibrated to the paper's two anchors — deployment in 2012 and "over one
million machines" by 2021 — and cross-check against the synthetic fleet's
total SM server usage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..workloads.fleet import adoption_curve, generate_fleet

#: Synthetic application deployments in the fleet.
APP_COUNT = 500


@dataclass
class Fig02Result:
    curve: List[Tuple[int, float]]
    fleet_sm_machines: int

    @property
    def final_machines(self) -> float:
        return self.curve[-1][1]

    @property
    def crossed_100k_year(self) -> int:
        for year, machines in self.curve:
            if machines >= 100_000:
                return year
        return self.curve[-1][0]


def run(seed: int = 0) -> Fig02Result:
    years = list(range(2012, 2022))
    curve = adoption_curve(years)
    fleet = generate_fleet(app_count=APP_COUNT, seed=seed)
    sm_machines = sum(app.servers for app in fleet if app.is_sm)
    return Fig02Result(curve=curve, fleet_sm_machines=sm_machines)


def format_report(result: Fig02Result) -> str:
    lines = ["Figure 2 — machines used by SM applications",
             "  year  machines"]
    for year, machines in result.curve:
        lines.append(f"  {year}  {machines:12,.0f}")
    lines.append(f"  final: {result.final_machines:,.0f} "
                 "(paper: over one million)")
    lines.append(f"  synthetic fleet SM machines: "
                 f"{result.fleet_sm_machines:,}")
    return "\n".join(lines)
