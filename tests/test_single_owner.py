"""Fence: one owner per shared decision, and no option one value serves.

A source scan in the style of ``test_host_clock.py``.  Each check names a
format, table or policy that once lived in two or more modules, an
option no traffic ran with a second value, or a second path that carried
no traffic, and fails when a second copy — or the knob, or the path —
comes back.  The values the removed options had are module constants
(DESIGN.md, "One owner per shared decision; constants, not options";
``make traffic`` writes the table of every option and its values).
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.app.client import ApplicationClient
from repro.app.fluid import FluidClient, FluidServer
from repro.app.runtime import AppRuntime
from repro.app.scatter import ScatterGatherClient
from repro.app.server import ApplicationServer
from repro.apps.kvstore import KVStoreApp
from repro.apps.zippydb import ZippyDBApp
from repro.baselines import PinnedAllocator, ring_placement
from repro.baselines.consistent_hashing import ConsistentHashRing
from repro.chaos import ACTIONS, Expectations, ScenarioSpec
from repro.cluster.topology import build_topology
from repro.cluster.twine import Twine, TwineConfig
from repro.coordination.zookeeper import ZooKeeper
from repro.core.allocator import Allocator
from repro.core.migration import MigrationExecutor
from repro.core.orchestrator import OrchestratorConfig
from repro.core.spec import AppSpec, ShardSpec, uniform_shards
from repro.discovery.router import ServiceRouter
from repro.discovery.service_discovery import ServiceDiscovery
from repro.experiments import (
    fig17_availability,
    fig18_production_upgrades,
    fig19_geo_failover,
    fig20_appshard_dbshard,
    fig21_solver_scale,
    fig22_solver_opt,
    fig23_continuous_lb,
    fluid_scale,
    skew_lb,
)
from repro.experiments.common import series_rows
from repro.harness import SimCluster
from repro.metrics import Counter, Histogram
from repro.obs import Observability
from repro.sim.engine import Engine, every
from repro.sim.fluid import mgk_wait
from repro.sim.network import LatencyModel, Network
from repro.sim.rng import skewed_loads
from repro.solver.goals import UtilizationGoal
from repro.solver.local_search import SearchConfig
from repro.solver.specs import (
    AffinitySpec,
    CapacitySpec,
    DrainSpec,
    ExclusionSpec,
    UtilizationSpec,
)
from repro.workloads.load import ZipfKeySampler, mean_rate
from repro.workloads.snapshots import attach_zippydb_goals, zippydb_snapshot

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
        r"|RateWindow)\b", under="obs/") == []


def test_one_open_loop_arrival_sampler():
    assert occurrences(r"expovariate\(", under="app/") == 1


def test_replaced_tables_and_tasks_are_gone():
    assert modules_matching(r"_REGION_PARAMS|fig17_arm_task") == []
    # Figures that checked a generator against the paper numbers it was
    # tuned to (EXPERIMENTS.md, "Not reproduced").
    assert modules_matching(
        r"MaintenanceSchedule|adoption_curve|generate_fleet|DeploymentMode"
        r"|fig01_planned_events|fig02_adoption|adevents_capacity"
        r"|plan_partition_footprints|PartitionFootprint|experiments.scale"
    ) == []
    # The solver's in-loop stage timer and its violation trace: a solve
    # counts its steps in ``SolveResult`` and is timed from outside.
    assert modules_matching(
        r"metrics\.profiler|\bProfiler\b|UNJOURNALED_PROFILE_KEYS"
        r"|TRACE_INTERVAL") == []
    # The two-way swap no solve accepted, and what only it kept alive:
    # ``move_deltas`` is the one delta method a goal implements.
    assert modules_matching(
        r"_try_swap|swaps_tried|replica_total_load|\bmove_delta\b") == []
    from repro.solver.goals import Goal
    assert not hasattr(Goal, "move_delta")
    # The per-RPC span: a settled RPC is a latency sample, and only a
    # failed one a record.
    assert modules_matching(r"\btrace_span\b|RpcCall\._trace_end") == []
    from repro.sim.network import RpcCall
    assert not hasattr(RpcCall, "_trace_end")
    # The engine's dispatch samples and the solver's walk count: no
    # check read either; the events a run executes are counted by
    # ``processed_events``.
    assert modules_matching(r"ENGINE_SAMPLE|_trace_sample|\.walks\b") == []
    engine = Engine()   # the sampler's state was set per instance
    assert not hasattr(engine, "_trace_sample")
    assert not hasattr(engine, "_trace")


def test_figures_run_through_the_scenario_engine():
    """Figs 17 to 20 and the fluid day are chaos scenarios: built by
    ``repro.chaos``, not by hand from the harness, with one table of
    ablation arms; no experiment drives Twine itself or reads a private
    attribute."""
    for module in ("experiments/fig17_availability.py",
                   "experiments/fig18_production_upgrades.py",
                   "experiments/fig19_geo_failover.py",
                   "experiments/fig20_appshard_dbshard.py",
                   "experiments/fluid_scale.py"):
        for node in ast.walk(ast.parse(SOURCES[module])):
            if isinstance(node, ast.ImportFrom):
                assert "harness" not in (node.module or ""), module
                names = {a.name for a in node.names}
                assert not names & {"harness", "OrchestratorConfig",
                                    "AppSpec"}, module
    assert modules_matching(r"\b(start_rolling_upgrade|submit_op)\(",
                            under="experiments/") == []
    assert modules_matching(r"\._[a-z]", under="experiments/") == []
    assert modules_matching(
        r"[\"'](graceful|with_task_controller)[\"']\s*:\s*(True|False)"
    ) == ["chaos/scenario.py"]
    assert modules_matching(r"\b(graceful_migration|with_task_controller)="
                            ) == ["chaos/scenario.py"]


def test_one_event_queue_and_one_way_to_wait():
    """A process waits by yielding a Delay, a Process or an RpcCall, a
    zero-delay event goes on the heap, and a scheduled event is its own
    heap entry, with no handle type beside it (DESIGN.md, "Simulation
    substrate fast path")."""
    assert modules_matching(
        r"\b(Signal|Wait|wait_rpc|done_signal|numpy|EventHandle)\b") == []
    assert "deque" not in SOURCES["sim/engine.py"]
    import repro.sim
    assert {"Delay", "Process", "every"} <= set(repro.sim.__all__)
    assert not ({"Signal", "Wait", "wait_rpc", "EventHandle"}
                & set(dir(repro.sim)))
    # A scheduled event always runs unless its guard drops it.
    from repro.sim import Engine
    assert not hasattr(Engine, "cancel")
    assert modules_matching(r"\bengine\.cancel\(") == []
    from repro.sim import Process, RpcCall
    assert not hasattr(RpcCall, "done")
    assert not hasattr(Process, "done_signal")
    # Outside repro.sim both are subscribed to through on_done only.
    assert modules_matching(r"\._waiters\b") == ["sim/engine.py",
                                                 "sim/network.py"]


#: The request path: with tracing off, each tracer site in these modules
#: costs one attribute load (DESIGN.md §5).
REQUEST_PATH = ("sim/network.py", "discovery/router.py", "app/client.py",
                "app/scatter.py", "app/server.py")
_TRACER_CALLS = {"instant", "begin", "end", "counter"}


def _unguarded_tracer_calls(text: str) -> list:
    """``Class.function`` of every ``<tracer>.instant/begin/end/counter``
    call that no enclosing ``if`` reading ``.enabled`` guards."""
    found = []

    def visit(node, scope, guarded):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in _TRACER_CALLS and not guarded):
            receiver = node.func.value
            if "tracer" in getattr(receiver, "id",
                                   getattr(receiver, "attr", "")):
                found.append(".".join(scope))
        if isinstance(node, ast.If):
            reads = {getattr(n, "attr", None) for n in ast.walk(node.test)}
            visit(node.test, scope, guarded)
            for child in node.body:
                visit(child, scope, guarded or "enabled" in reads)
            for child in node.orelse:
                visit(child, scope, guarded)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, scope, guarded)

    visit(ast.parse(text), (), False)
    return found


def test_request_path_tracer_calls_sit_behind_the_guard():
    """A disabled tracer is skipped, not called: no args dict is built
    and no ``NullTracer`` method runs per request."""
    unguarded = {name: _unguarded_tracer_calls(SOURCES[name])
                 for name in REQUEST_PATH}
    assert {name: calls for name, calls in unguarded.items() if calls} == {}


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
    (``chaos/scenario.py``); everything else reads them through
    ``param_of`` / ``duration_of`` and keeps no copy."""
    assert modules_matching(r"_DEFAULT_REVERTS") == []
    for name, text in SOURCES.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "param"):
                assert len(node.args) == 1 and not node.keywords, (
                    f"{name}:{node.lineno} passes its own default")


#: Builtins that walk their argument.
_WALKING_CALLS = {"iter", "list", "tuple", "set", "sorted", "map", "filter",
                  "zip", "enumerate", "sum", "any", "all", "min", "max"}


def _names_a_journal(node: ast.AST) -> bool:
    """``journal``, ``<x>.journal`` or ``<x>.merged_journal()``."""
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Attribute)
                and node.func.attr == "merged_journal")
    return (isinstance(node, ast.Name) and node.id == "journal"
            or isinstance(node, ast.Attribute) and node.attr == "journal")


def test_the_journal_is_read_by_column():
    """The journal keeps columns, and a walk over its rows builds one
    record view per row: only the exporters walk it
    (``obs/trace_export.py``) and only ``repro.obs`` builds a
    ``TraceRecord``.  The checker splits the tracks it replays in one
    pass over the track column; every other reader takes the columns or
    the checker's per-track records."""
    walkers, builders = set(), []
    for name, text in SOURCES.items():
        for node in ast.walk(ast.parse(text)):
            walked = []
            if isinstance(node, (ast.For, ast.comprehension)):
                walked.append(node.iter)
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", ""))
                if callee in _WALKING_CALLS:
                    walked.extend(node.args)
                if callee == "TraceRecord" and not name.startswith("obs/"):
                    builders.append(f"{name}:{node.lineno}")
            if any(map(_names_a_journal, walked)):
                walkers.add(name)
    assert walkers == {"obs/trace_export.py"}
    assert builders == []


#: Modules besides ``core/shard_map.py`` that write another object's
#: ``role`` / ``state`` / ``address``, and why that is no replica write.
OTHER_FIELD_WRITERS = {
    "app/server.py": "HostedShard, the server's own record of a shard it "
                     "hosts, is a different class",
    "cluster/twine.py": "Container, the cluster manager's container, is a "
                        "different class",
}


def test_only_the_assignment_table_writes_replica_fields():
    """A ``ReplicaAssignment``'s role, state and address change only in
    ``AssignmentTable``'s mutators, which mark the replica, its shard and
    its address dirty: the incremental snapshot and the orchestrator's
    incremental persistence see every change only because of that.  A
    ``<x>.role = ...`` (or ``.state``, ``.address``) anywhere else would
    bypass them.  ``self.<field> = ...`` is a class setting its own
    field, and ``ReplicaAssignment`` has no method that does."""
    fields = {"role", "state", "address"}
    writers = set()
    for name, text in SOURCES.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", "") == "setattr"
                  and len(node.args) > 1
                  and getattr(node.args[1], "value", None) in fields):
                writers.add(name)
                continue
            else:
                continue
            while targets:
                target = targets.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                elif (isinstance(target, ast.Attribute)
                      and target.attr in fields
                      and getattr(target.value, "id", "") != "self"):
                    writers.add(name)
    assert writers == {"core/shard_map.py", *OTHER_FIELD_WRITERS}


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


ROOT = SRC.parent.parent
#: Where the repository cites ROADMAP items and is expected to stay
#: current: the standing documents and every code / config tree.
#: CHANGES.md is a dated log and ``bench/`` has its own owner.
CITING = ("DESIGN.md", "README.md", "EXPERIMENTS.md", "Makefile", "src",
          "tests", "scripts", "benchmarks", "examples", ".github", ".claude")
CITATION = re.compile(r"ROADMAP(?:\.md)?,?\s+items?\s+(\d+)((?:\([a-z]\))*)")


def open_roadmap_items() -> dict:
    """Item number -> its text, for every numbered item under ROADMAP.md's
    "Open items" heading (an item runs until the next line that starts
    in column 0)."""
    text = (ROOT / "ROADMAP.md").read_text()
    section = text.split("\n## Open items", 1)[1].split("\n## ", 1)[0]
    items: dict = {}
    current = None
    for line in section.splitlines():
        match = re.match(r"(\d+)\. ", line)
        if match:
            current = items.setdefault(int(match.group(1)), [])
        elif line[:1] not in ("", " "):
            current = None
        if current is not None:
            current.append(line)
    return {number: "\n".join(lines) for number, lines in items.items()}


def citing_files():
    for name in CITING:
        path = ROOT / name
        if path.is_file():
            yield path
        elif path.is_dir():
            yield from (p for p in sorted(path.rglob("*"))
                        if p.suffix in (".py", ".md", ".yml", ".txt")
                        and "__pycache__" not in p.parts)


def test_roadmap_citations_name_open_items():
    items = open_roadmap_items()
    assert len(items) >= 5  # the parse found the list
    stale = []
    for path in citing_files():
        for number, letters in CITATION.findall(path.read_text()):
            body = items.get(int(number))
            if body is None or any(f"({letter})" not in body
                                   for letter in letters[1::3]):
                stale.append(f"{path.relative_to(ROOT)}: "
                             f"item {number}{letters}")
    assert stale == []


#: Standing documents whose backticked ``repro.x[.y...]`` and
#: ``Class.attr`` names must resolve.  ``bench/README.md``'s short names
#: are metric keys, and ``bench/`` has its own owner.
DOCUMENTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")


def resolve(dotted: str) -> object:
    """Import the longest module prefix of ``dotted``, then ``getattr``
    the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(dotted)


#: A backticked ``Class.attr`` (or ``Class.attr()``); it is checked when
#: a class of that name is defined under ``src/repro``.
CLASS_ATTR = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)(?:\(\))?`")


def _class_defs() -> dict:
    """Class name -> ``[(module path, ClassDef)]`` under ``src/repro``."""
    found = {}
    for path, text in SOURCES.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                found.setdefault(node.name, []).append((path, node))
    return found


def _self_attributes(node: ast.ClassDef) -> set:
    """Every ``self.<attr>`` a method of the class assigns."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            targets = child.targets
        elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
            targets = [child.target]
        else:
            continue
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                names.add(target.attr)
    return names


def _module_of(path: str) -> str:
    parts = path[:-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro", *parts])


def class_attribute_resolves(defs: dict, cls_name: str, attr: str) -> bool:
    """``attr`` is a class attribute (inherited ones too), a dataclass
    field, or assigned to ``self`` in the class or a ``repro`` base."""
    for path, _node in defs[cls_name]:
        cls = getattr(importlib.import_module(_module_of(path)), cls_name,
                      None)
        if not isinstance(cls, type):
            continue
        if hasattr(cls, attr) or attr in getattr(
                cls, "__dataclass_fields__", {}):
            return True
        for base in cls.__mro__:
            for base_path, node in defs.get(base.__name__, ()):
                if (_module_of(base_path) == base.__module__
                        and attr in _self_attributes(node)):
                    return True
    return False


def test_documented_repro_names_resolve():
    defs = _class_defs()
    unresolved = []
    for name in DOCUMENTS:
        text = (ROOT / name).read_text()
        for dotted in sorted(set(DOTTED_NAME.findall(text))):
            try:
                resolve(dotted)
            except (ImportError, AttributeError):
                unresolved.append(f"{name}: {dotted}")
        for cls_name, attr in sorted(set(CLASS_ATTR.findall(text))):
            if cls_name in defs and not class_attribute_resolves(
                    defs, cls_name, attr):
                unresolved.append(f"{name}: {cls_name}.{attr}")
    assert unresolved == []


REMOVED_OPTIONS = [
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
    (skew_lb.run_arm, "sample_interval"),
    (skew_lb.run_arm, "shift_at"),
    (KVStoreApp, "external_store"),
    (ScatterGatherClient, "prefer_primary"),
    (TwineConfig, "container_stop_duration"),
    (TwineConfig, "container_start_duration"),
    (TwineConfig, "move_extra_duration"),
    (every, "jitter"),
    (every, "rng"),
    (every, "start_after"),
    (Histogram, "bounds"),
    # One value in every traffic run (``make traffic``'s option table).
    (Engine.set_tracer, "sample_every"),
    (Engine.call_after, "guard"),
    (mgk_wait, "cv_arrival2"),
    (mgk_wait, "cv_service2"),
    (LatencyModel, "jitter_fraction"),
    (Network, "loss_probability"),
    (skewed_loads, "skew"),
    (ZooKeeper.create, "make_parents"),
    (ZooKeeper.get, "watch"),
    (ZooKeeper.set, "expected_version"),
    (ZooKeeper.delete, "recursive"),
    (Twine, "machine_network_hook"),
    (Twine.create_job, "machine_filter"),
    (Twine.create_job, "start_immediately"),
    (Twine.submit_op, "target_machine_id"),
    (Twine.schedule_maintenance, "on_begin"),
    (build_topology, "datacenters_per_region"),
    (build_topology, "racks_per_datacenter"),
    (Allocator.emergency_plan, "load_of"),
    (PinnedAllocator.emergency_plan, "load_of"),
    (MigrationExecutor, "rpc_timeout"),
    (OrchestratorConfig, "rpc_timeout"),
    (OrchestratorConfig, "rebalance_enabled"),
    (uniform_shards, "prefix"),
    (ServiceRouter.start_request, "method"),
    (ServiceDiscovery.subscribe, "delay"),
    (ApplicationClient.run_workload, "payload"),
    (ScatterGatherClient, "leg_stride"),
    (ZippyDBApp, "rpc_timeout"),
    (ConsistentHashRing, "virtual_nodes"),
    (ring_placement, "virtual_nodes"),
    (SimCluster.build, "latency"),
    (SimCluster.build, "zk_session_timeout"),
    (ZooKeeper, "default_session_timeout"),
    (ScenarioSpec, "zk_session_timeout"),
    # Hand-set outage bounds: the bound is derived from the spec
    # (chaos.scenario.outage_bound).
    (Expectations, "availability_bound"),
    (Expectations, "failover_bound"),
    (Counter().add, "count"),
    (UtilizationGoal, "weight"),
    (SearchConfig, "move_budget"),
    (zippydb_snapshot, "mean_utilization"),
    (zippydb_snapshot, "load_skew"),
    (zippydb_snapshot, "capacity_heterogeneity"),
    (zippydb_snapshot, "randomize_assignment"),
    (attach_zippydb_goals, "utilization_threshold"),
    (attach_zippydb_goals, "balance_band"),
    (ZipfKeySampler, "offset"),
    (ZipfKeySampler, "support"),
    (mean_rate, "samples"),
    (series_rows, "time_label"),
    (series_rows, "max_rows"),
    # App-spec and solver-spec fields the paper names that every run set
    # to one value (the per-shard cap is MAX_UNAVAILABLE_REPLICAS_PER_SHARD).
    (AppSpec, "mode"),
    (AppSpec, "max_unavailable_replicas_per_shard"),
    (AppSpec, "needs_storage"),
    (ShardSpec, "preference_weight"),
    (build_topology, "storage_fraction"),
    (SimCluster.build, "storage_fraction"),
    (AffinitySpec, "affinities"),
    (AffinitySpec, "scope"),
    (AffinitySpec, "priority"),
    (AffinitySpec, "weight"),
    (CapacitySpec, "headroom"),
    (CapacitySpec, "scope"),
    (DrainSpec, "priority"),
    (DrainSpec, "weight"),
    (ExclusionSpec, "weight"),
    (UtilizationSpec, "priority"),
    # An experiment's set-up: a module constant beside its run().
    (fig17_availability.run_arm, "epoch"),
    (fig18_production_upgrades.run, "base_rate"),
    (fig18_production_upgrades.run, "peak_rate"),
    (fig18_production_upgrades.run, "canary_fraction"),
    (fig18_production_upgrades.run, "epoch"),
    (fig19_geo_failover.run, "replica_count"),
    (fig19_geo_failover.run, "failure_time"),
    (fig19_geo_failover.run, "recovery_time"),
    (fig19_geo_failover.run, "horizon"),
    (fig19_geo_failover.run, "bucket"),
    (fig20_appshard_dbshard.run, "shard_count"),
    (fig20_appshard_dbshard.run, "servers_per_region"),
    (fig20_appshard_dbshard.run, "batch_times"),
    (fig20_appshard_dbshard.run, "batch_size"),
    (fig20_appshard_dbshard.run, "horizon"),
    (fig20_appshard_dbshard.run, "sample_interval"),
    (fig21_solver_scale.run, "time_budget"),
    (fig22_solver_opt.run, "time_budget"),
    (fig23_continuous_lb.run, "replica_count"),
    (fig23_continuous_lb.run, "day_length"),
    (fig23_continuous_lb.run, "mean_utilization"),
    (fig23_continuous_lb.run, "sample_interval"),
    (fluid_scale.run, "users"),
    (fluid_scale.run, "shards"),
    (fluid_scale.run, "servers_per_region"),
    (fluid_scale.run, "regions"),
    (fluid_scale.run, "day_length"),
    (fluid_scale.run, "days"),
    (fluid_scale.run, "epoch"),
    (fluid_scale.run, "rate_per_user"),
    (skew_lb.run_arm, "params"),
    (skew_lb.run, "params"),
    # Chaos action params, named by kind: registry entries, not keywords.
    ("zk_expire", "count"),
    ("zk_expire", "reconnect_after"),
    ("crash_hot_shard", "key"),
    ("probe", "min_servers"),
]


def _label(target) -> str:
    """``Class.method`` / ``function``; an experiment's ``run`` is named
    with its module, since every figure has one."""
    name = getattr(target, "__qualname__", target)
    module = getattr(target, "__module__", "")
    if module.startswith("repro.experiments."):
        return f"{module.rsplit('.', 1)[1]}.{name}"
    return name


@pytest.mark.parametrize(
    "target, name", REMOVED_OPTIONS,
    ids=[f"{_label(t)}-{n}" for t, n in REMOVED_OPTIONS])
def test_removed_option_is_a_type_error(target, name):
    if isinstance(target, str):     # an action kind: validate_spec names it
        assert name not in ACTIONS[target].params
        return
    # An unexpected keyword is rejected while the call is bound, before
    # any missing positional argument is looked at.
    with pytest.raises(TypeError,
                       match=f"unexpected keyword argument '{name}'"):
        target(**{name: 1})
