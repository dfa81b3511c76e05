"""Fence: one owner per shared decision, and no option nothing sets.

A source scan in the style of ``test_host_clock.py``.  Each check names a
format, table or policy that once lived in two or more modules, a
constructor value no caller ever varied, or a second path that carried no
traffic, and fails when a second copy — or the knob, or the path — comes
back.  The values the removed options had are the module constants listed
in DESIGN.md, "One owner per shared decision; constants, not options".
"""

import ast
import os
import re
import subprocess
import sys
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


def test_one_event_queue_and_one_way_to_wait():
    """A process waits by yielding a Delay, a Process or an RpcCall, and
    a zero-delay event goes on the heap (DESIGN.md, "Simulation substrate
    fast path")."""
    assert modules_matching(
        r"\b(Signal|Wait|wait_rpc|done_signal|numpy)\b") == []
    assert "deque" not in SOURCES["sim/engine.py"]
    import repro.sim
    assert {"Delay", "Process", "every"} <= set(repro.sim.__all__)
    assert not {"Signal", "Wait", "wait_rpc"} & set(dir(repro.sim))
    from repro.sim import Process, RpcCall
    assert not hasattr(RpcCall, "done")
    assert not hasattr(Process, "done_signal")
    # Outside repro.sim both are subscribed to through on_done only.
    assert modules_matching(r"\._waiters\b") == ["sim/engine.py",
                                                 "sim/network.py"]


def test_nothing_outside_the_standard_library_is_imported():
    """``dependencies = []``: with nothing installed beside the package,
    an import of a third-party module would be the first failure a user
    sees.  Run in a fresh interpreter — this one holds pytest."""
    program = (
        "import sys\n"
        "before = set(sys.modules)  # site hooks may have loaded anything\n"
        "import repro.harness, repro.chaos, repro.experiments.runner\n"
        "top = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(top - set(sys.stdlib_module_names)"
        " - {'repro', '__mp_main__'}))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    loaded = subprocess.run([sys.executable, "-c", program], env=env,
                            capture_output=True, text=True, check=True)
    assert loaded.stdout.strip() == "[]"


def _unused_imports(text: str) -> list:
    """Names a module imports and never mentions again.  A mention is a
    ``Name`` node, also inside a string constant that parses as an
    expression (a quoted annotation, an ``__all__`` entry)."""
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).partition(".")[0]] = (
                    node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted)
                        if isinstance(n, ast.Name))
    return sorted(name for name in imported if name not in used)


def test_no_unused_imports():
    """``__init__.py`` files exist to re-export and are exempt."""
    unused = {name: _unused_imports(text) for name, text in SOURCES.items()
              if not name.endswith("__init__.py")}
    assert {name: names for name, names in unused.items() if names} == {}


def test_chaos_action_defaults_are_stated_once():
    """Each action's defaults live in its ``@action(...)`` registration
    (``chaos/scenario.py``); the fuzzer's horizon fitting reads them
    through ``param_of`` / ``duration_of`` and keeps no copy.  The
    duration *ranges* in ``chaos/fuzz/mutators.py`` are the generator's
    own and stay."""
    assert modules_matching(r"_DEFAULT_REVERTS") == []
    for name, text in SOURCES.items():
        if not name.startswith("chaos/fuzz/"):
            continue
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "param"):
                assert len(node.args) == 1 and not node.keywords, (
                    f"{name}:{node.lineno} passes its own default")


def test_rules_the_fluid_path_mirrors_have_one_source():
    # §4.3 admission: decided by app.server.admission for both paths.
    assert modules_matching(r"HostedState\.(PREPARING|FORWARDING)\b") == [
        "app/server.py"]
    assert "HostedState" not in SOURCES["app/fluid.py"]
    # The jitter distribution and its two moments: LatencyModel.
    assert modules_matching(r"def jitter_(mean|p99)_factor") == [
        "sim/network.py"]


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
    (SearchConfig, "grouped_sampling"),
    (SearchConfig, "large_first"),
    (SearchConfig, "equivalence_classes"),
    (SearchConfig, "priority_batches"),
    (SearchConfig, "allow_swaps"),
    (SearchConfig, "max_replicas_per_server"),
    (SearchConfig, "trace_interval"),
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
