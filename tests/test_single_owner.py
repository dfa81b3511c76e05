"""Fence: one owner per shared decision, and no option nothing sets.

A source scan in the style of ``test_host_clock.py``.  Each check names a
format, table or policy that once lived in two or more modules, or a
constructor value no caller ever varied, and fails when a second copy —
or the knob — comes back.  The values the removed options had are the
module constants listed in DESIGN.md, "One owner per shared decision;
constants, not options".
"""

import re
from pathlib import Path

import pytest

from repro.app.fluid import FluidClient, FluidServer
from repro.app.runtime import AppRuntime
from repro.app.scatter import ScatterGatherClient
from repro.app.server import ApplicationServer
from repro.apps.kvstore import KVStoreApp
from repro.chaos.fuzz import FuzzConfig
from repro.cluster.twine import TwineConfig
from repro.core.shard_scaler import ShardScalerConfig
from repro.experiments.skew_lb import SkewParams
from repro.metrics import Histogram, MetricsRegistry
from repro.obs import Observability
from repro.sim.engine import every
from repro.sim.network import LatencyModel, Network
from repro.solver.local_search import SearchConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SOURCES = {path.relative_to(SRC).as_posix(): path.read_text()
           for path in SRC.rglob("*.py")}


def modules_matching(pattern: str, under: str = "") -> list:
    regex = re.compile(pattern)
    return sorted(name for name, text in SOURCES.items()
                  if name.startswith(under) and regex.search(text))


def occurrences(pattern: str, under: str = "") -> int:
    regex = re.compile(pattern)
    return sum(len(regex.findall(text)) for name, text in SOURCES.items()
               if name.startswith(under))


def test_zookeeper_layout_is_spelled_in_one_module():
    assert modules_matching(r"/sm/\{app\}") == ["coordination/layout.py"]
    assert modules_matching(r'\.replace\("/", ":"\)') == [
        "coordination/layout.py"]


def test_one_metrics_package():
    assert occurrences(r"(?m)^class Counter\b") == 1
    assert modules_matching(
        r"(?m)^class (Counter|Gauge|Histogram|MetricsRegistry|TimeSeries"
        r"|RateWindow|Profiler)\b", under="obs/") == []


def test_one_open_loop_arrival_sampler():
    assert occurrences(r"expovariate\(", under="app/") == 1


def test_replaced_tables_and_tasks_are_gone():
    assert modules_matching(r"_REGION_PARAMS|fig17_arm_task") == []


def test_comments_state_conditions_not_history():
    assert modules_matching(r"PR \d+|ISSUE \d+|ROADMAP item") == []


REMOVED_OPTIONS = [
    (FuzzConfig, "crossover_rate"),
    (FuzzConfig, "extra_random_seeds"),
    (Observability, "engine_sample"),
    (FluidClient, "overload_threshold"),
    (FluidClient, "cv_service2"),
    (FluidServer, "cv_service2"),
    (AppRuntime, "drop_grace"),
    (AppRuntime, "zk_heartbeat_interval"),
    (ApplicationServer, "drop_grace"),
    (ApplicationServer, "zk_heartbeat_interval"),
    (LatencyModel, "intra_region"),
    (Network, "default_timeout"),
    (SearchConfig, "candidate_samples"),
    (SkewParams, "sample_interval"),
    (SkewParams, "shift_at"),
    (KVStoreApp, "external_store"),
    (ScatterGatherClient, "prefer_primary"),
    (TwineConfig, "container_stop_duration"),
    (TwineConfig, "container_start_duration"),
    (TwineConfig, "move_extra_duration"),
    (ShardScalerConfig, "high_watermark"),
    (ShardScalerConfig, "low_watermark"),
    (ShardScalerConfig, "max_changes_per_tick"),
    (every, "jitter"),
    (every, "rng"),
    (Histogram, "bounds"),
    (MetricsRegistry().histogram, "bounds"),
]


@pytest.mark.parametrize(
    "target, name", REMOVED_OPTIONS,
    ids=[f"{getattr(t, '__qualname__', t)}-{n}" for t, n in REMOVED_OPTIONS])
def test_removed_option_is_a_type_error(target, name):
    # An unexpected keyword is rejected while the call is bound, before
    # any missing positional argument is looked at.
    with pytest.raises(TypeError,
                       match=f"unexpected keyword argument '{name}'"):
        target(**{name: 1})
