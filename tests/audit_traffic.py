"""A caller is traffic, and an option is traffic too: every function under
``src/repro`` is entered by something that is not a unit test, and every
option there runs with two values, or each is excused by name and reason.

Run by ``make traffic`` and CI's ``traffic`` job (not collected by
tier-1: the file name does not match ``test_*.py``).  It runs all the
non-test traffic the repository has — the seven ``bench/worker.py``
workloads, the figure suite, the experiment / chaos / profile scripts
and the five examples — each in a subprocess under the recorder of
``tests/traffic/sitecustomize.py``, which notes every function entered
and the values every defaulted parameter and config-dataclass field ran
with.  One run feeds two fences.  It fails when

* a function defined under ``src/repro`` was entered by none of them and
  matches no ``ALLOW`` pattern,
* an option (a defaulted parameter of an entered function, a defaulted
  field of a ``*Config`` / ``*Params`` / ``*Spec`` dataclass, or a chaos
  action's param, named ``chaos/scenario.py::ACTIONS.kind(param)``) ran
  with one value only and matches no ``ALLOW_OPTIONS`` pattern, or
* an entry of either list matches nothing, or every name it matches is
  entered / varied (a stale excuse); or ``ALLOW_OPTIONS`` holds more
  than ``TIER1_SIZE_LIMIT`` TIER1-SIZE entries.

A parameter that ever ran with an object other than a scalar, enum,
``None`` or tuple of these is a dependency, not an option; one that only
ever ran with ``None`` is a capability nothing uses and is held to the
option rule.  DESIGN.md, "One owner per shared decision", says why a
unit test or a re-export does not count as a caller.  Both tables —
every function (entered / allowed with its reason / NOT ALLOWED) and
every option (varied / allowed / NOT ALLOWED, with the values seen) —
are written to ``traffic_table.txt`` (git-ignored).  Needs Python >=
3.11 (``code.co_qualname``).
"""

from __future__ import annotations

import ast
import fnmatch
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
RECORDER = ROOT / "tests" / "traffic"
TABLE = ROOT / "traffic_table.txt"
#: The scenario ``run_chaos.py --scenario @file`` reads, at a second
#: seed: a network-loss maintenance window on a primary-secondary app,
#: the one timeline that reaches the section 4.2 demote-and-promote path.
FILE_SPEC = {"name": "file_network_maintenance",
             "title": "a network-loss maintenance window read from a file",
             "actions": [{"at": 0.0, "duration": 60.0, "kind": "maintenance",
                          "params": {"impact": "NETWORK_LOSS",
                                     "notice": 30.0}}],
             "duration": 150.0, "regions": ["FRC", "PRN"],
             "replication": "primary_secondary", "replica_count": 2,
             "machines_per_region": 5, "servers_per_region": 3,
             "shards": 8, "request_rate": 2.0, "settle": 40.0}

BENCH_WORKLOADS = ("upgrade_event", "skew_scatter", "chaos_traced",
                   "map_publish", "map_lookup", "solver_place",
                   "fluid_diurnal")
EXAMPLES = ("quickstart", "rolling_upgrade", "geo_failover", "zippydb_demo",
            "solver_playground")

# ----------------------------------------------------------------------
# The allowlist: ``path::qualname`` patterns (fnmatch, path relative to
# src/repro) of functions no traffic enters, each with the reason it
# stays.  The reason classes are the simplicity guide's safety list
# (DESIGN.md, "One owner per shared decision", spells them out).
# ----------------------------------------------------------------------
ERROR = "ERROR: error handling a call can return: "
CHECKER = ("CHECKER: oracle that fires only on a broken system; ROADMAP item "
           "4 decides checkers by mutants: ")
REFERENCE = "REFERENCE: reference implementation a test compares against: "
RELEASE = "RELEASE: releases what the object owns: "
BASE = "BASE: base-class declaration, no-op default or data-model hook: "
REPR = "REPR: debugging / failure-message text"
DOUBLE = ("DOUBLE: test double shipped beside the TaskController protocol it "
          "implements")
FORMAT = "FORMAT: other half of a format traffic reads or writes: "
CHURN = "CHURN: not worth the churn: "

ALLOW: List[Tuple[str, str]] = [
    # -- error handling ---------------------------------------------------
    ("core/migration.py::MigrationExecutor.drop_replica",
     ERROR + "the orchestrator drops a replica whose migration failed"),
    ("core/migration.py::MigrationExecutor._abort_prepared",
     ERROR + "undo prepare_add_shard on the target after a failed step"),
    ("core/migration.py::MigrationExecutor._reinstate",
     ERROR + "hand the shard back to the old primary after a failed step"),
    ("sim/network.py::AsyncReply.fail",
     ERROR + "a deferred reply that ends in an error (caller down, "
     "ZippyDB without a quorum)"),
    # -- checkers and their reports ---------------------------------------
    ("obs/checker.py::TraceChecker.assert_clean",
     CHECKER + "raise-on-violation entry point the tests use"),
    ("obs/checker.py::Violation.as_dict",
     CHECKER + "the report form of a violation, built only when one fires"),
    # -- references -------------------------------------------------------
    ("solver/goals.py::*.recount_violations",
     REFERENCE + "from-scratch recount the incremental counts are held to"),
    ("solver/goals.py::*.total_cost",
     REFERENCE + "from-scratch cost the move deltas are held to"),
    ("coordination/zookeeper.py::Session.heartbeat",
     REFERENCE + "the explicit-heartbeat session is the oracle of the "
     "event-free lease"),
    ("workloads/load.py::ZipfKeySampler.probability",
     REFERENCE + "exact pmf the sampled frequencies are held to"),
    # -- release ----------------------------------------------------------
    ("app/fluid.py::FluidClient.close", RELEASE + "its map subscription"),
    ("sim/fluid.py::EpochDriver.stop",
     RELEASE + "its epochs; the pending tick then integrates nothing"),
    # -- base classes, doubles, text --------------------------------------
    ("solver/goals.py::Goal.violations", BASE + "every goal overrides it"),
    ("solver/goals.py::Goal.violating_servers",
     BASE + "every goal overrides it"),
    ("solver/goals.py::Goal.move_deltas", BASE + "every goal overrides it"),
    ("solver/goals.py::Goal.on_move", BASE + "stateless goals keep it"),
    ("solver/goals.py::Goal.contributes",
     BASE + "the search skips the always-True default by identity"),
    ("solver/goals.py::_ServerCostGoal._cost_of",
     BASE + "both per-server goals override it"),
    ("obs/tracer.py::NullTracer.*",
     BASE + "the disabled tracer's overrides; call sites test "
     "tracer.enabled first"),
    ("cluster/taskcontrol.py::ApproveAllController.*", DOUBLE),
    ("cluster/taskcontrol.py::DenyAllController.*", DOUBLE),
    ("*::*.__repr__", REPR),
    ("obs/checker.py::Violation.__str__", REPR),
    ("core/shard_map.py::ShardMap.__hash__",
     BASE + "keeps ShardMap hashable beside the __eq__ traffic uses"),
    # -- formats ----------------------------------------------------------
    ("obs/trace_export.py::read_jsonl",
     FORMAT + "reads the JSONL journal --journal writes"),
    ("obs/tracer.py::Journal.append",
     FORMAT + "read_jsonl's one way into the columns (the tracer appends "
     "in place)"),
    # -- churn ------------------------------------------------------------
    ("core/shard_map.py::AssignmentTable.snapshot",
     CHURN + "two lines over _rebuild_dirty / _make_map with ~20 test "
     "call sites"),
    ("core/shard_map.py::ShardMap.from_entries",
     CHURN + "how tests write a map out by hand (ten call sites); traffic "
     "builds maps from columns"),
]

# ----------------------------------------------------------------------
# The option allowlist: ``path::qualname(param)`` / ``path::Class.field``
# patterns of options every traffic run passes one value, each with the
# class of reason it stays an option (DESIGN.md, "One owner per shared
# decision", clause one).  A future need is not a reason: the change that
# needs a second value adds the option back with its caller.
# ----------------------------------------------------------------------
SEED = "SEED: an experiment's seed"
INPUT = "INPUT: a user sets it through "
BENCH_KW = "BENCH: bench/workloads.py passes it by keyword: "
REFERENCE_RUN = "REFERENCE: a pinned test oracle runs it at another value: "
TIER1_SIZE = "TIER1-SIZE: a tier-1 smoke test shrinks it: "
TARGET = ("TARGET: names which machine or region a fault hits, like an "
          "address")
TIER1_SIZE_LIMIT = 15
SMOKE = "tests/integration/test_experiments_smoke.py"

ALLOW_OPTIONS: List[Tuple[str, str]] = [
    # -- seeds ------------------------------------------------------------
    ("experiments/*::run(seed)", SEED),
    ("experiments/*::run_arm(seed)", SEED),
    # -- inputs -------------------------------------------------------------
    ("chaos/scenario.py::run_scenario(capacity)",
     INPUT + "run_chaos.py --capacity"),
    ("chaos/scenario.py::run_scenario(journal_path)",
     INPUT + "run_chaos.py --journal-dir"),
    ("experiments/runner.py::chaos_task(capacity)",
     INPUT + "run_chaos.py --capacity"),
    ("experiments/runner.py::chaos_task(journal_path)",
     INPUT + "run_chaos.py --journal-dir"),
    ("experiments/runner.py::run_experiments(processes)",
     INPUT + "run_experiments.py / run_chaos.py --processes"),
    ("experiments/runner.py::run_experiments(serial)",
     INPUT + "run_experiments.py / run_chaos.py --serial"),
    # -- bench/ -------------------------------------------------------------
    ("obs/__init__.py::Observability.__init__(capacity)",
     BENCH_KW + "chaos_traced's journal_capacity"),
    ("core/mini_sm.py::ApplicationManager.__init__(max_replicas_per_partition)",
     BENCH_KW + "map_lookup's partition size"),
    ("cluster/twine.py::TwineConfig.negotiation_interval",
     BENCH_KW + "upgrade_event's twine_config"),
    # -- references ---------------------------------------------------------
    ("sim/engine.py::Engine.run(max_events)",
     REFERENCE_RUN + "test_one_event_queue.py and test_guarded_events.py "
     "cut runs by event count against their oracles"),
    ("coordination/zookeeper.py::ZooKeeper.create_session(timeout)",
     REFERENCE_RUN + "test_zookeeper.py's lease-vs-ticker oracle opens "
     "sessions at drawn timeouts"),
    ("coordination/zookeeper.py::ZooKeeper.exists(watch)",
     REFERENCE_RUN + "the same oracle times each expiry by watching the "
     "liveness node"),
    # -- fault targets --------------------------------------------------------
    ("chaos/scenario.py::ACTIONS.canary_restart(region)", TARGET),
    ("chaos/scenario.py::ACTIONS.crash_machine(region)", TARGET),
    ("chaos/scenario.py::ACTIONS.crash_rack(region)", TARGET),
    ("chaos/scenario.py::ACTIONS.crash_rack(index)", TARGET),
    ("chaos/scenario.py::ACTIONS.isolate_region(region)", TARGET),
    ("chaos/scenario.py::ACTIONS.maintenance(region)", TARGET),
    ("chaos/scenario.py::ACTIONS.partition_pair([ab])", TARGET),
    # -- tier-1 sizes ---------------------------------------------------------
    ("experiments/fig21_solver_scale.py::run(factor)",
     TIER1_SIZE + SMOKE + " runs factor 25"),
    ("experiments/fig22_solver_opt.py::run(factor)",
     TIER1_SIZE + SMOKE + " runs factor 25"),
    ("experiments/skew_lb.py::run_arm(duration)",
     TIER1_SIZE + SMOKE + " runs a 180 s workload"),
]


def traffic(tmp: pathlib.Path) -> List[List[str]]:
    """Every non-test command line the repository has, serial variants
    only (a pool worker leaves through ``os._exit`` and would lose its
    recording)."""
    py = sys.executable
    experiments = [py, "scripts/run_experiments.py", "--smoke", "--serial"]
    chaos = [py, "scripts/run_chaos.py", "--serial", "--no-repeat",
             "--check-trace"]
    spec_file = tmp / "spec.json"
    spec_file.write_text(json.dumps(FILE_SPEC))
    commands = [[py, "bench/worker.py", "--workload", name, "--seed", "3"]
                for name in BENCH_WORKLOADS]
    commands += [
        [py, "-m", "pytest", "benchmarks/", "-q", "-p", "no:cacheprovider"],
        experiments,
        experiments + ["--traffic", "fluid"],
        experiments + ["--trace-figure", "fig17:sm", "--check-trace",
                       "--trace", str(tmp / "trace.json"),
                       "--journal", str(tmp / "trace.jsonl")],
        experiments + ["--traffic", "fluid", "--trace-figure", "fig17:sm",
                       "--check-trace",
                       "--trace", str(tmp / "fluid_trace.json")],
        chaos + ["--all", "--seed", "42"],
        chaos + ["--scenario", f"@{spec_file}", "--seed", "7"],
        [py, "scripts/profile_solver.py", "--factor", "5", "--point", "2"],
        [py, "scripts/profile_solver.py", "--factor", "25", "--point", "1",
         "--json"],
    ]
    commands += [[py, f"examples/{name}.py"] for name in EXAMPLES]
    return commands


Options = Dict[str, Optional[Set[str]]]


def record(tmp: pathlib.Path) -> Tuple[Set[str], Options]:
    """Run the traffic under the recorder; return every function entered
    and every option's values (None for a dependency)."""
    out = tmp / "entered"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(RECORDER), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_TRAFFIC_SRC"] = str(SRC)
    env["REPRO_TRAFFIC_OUT"] = str(out)

    def run(command: Sequence[str]) -> subprocess.CompletedProcess:
        return subprocess.run(command, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)

    # The figure suite rewrites bench_results.txt (host-time lines
    # differ run to run); the audit must leave the tree as it found it.
    results_path = ROOT / "bench_results.txt"
    results = results_path.read_bytes()
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            failed = [done for done in pool.map(run, traffic(tmp))
                      if done.returncode != 0]
    finally:
        results_path.write_bytes(results)
    for done in failed:
        print(f"traffic command exited {done.returncode}: "
              f"{' '.join(done.args)}\n{done.stdout[-2000:]}",
              file=sys.stderr)
    if failed:
        raise SystemExit(2)
    entered: Set[str] = set()
    for path in out.glob("entered.*.txt"):
        entered.update(path.read_text().split())
    options: Options = {}
    for path in out.glob("options.*.json"):
        for option, keys in json.loads(path.read_text()).items():
            if keys is None or (option in options
                                and options[option] is None):
                options[option] = None
            else:
                options.setdefault(option, set()).update(keys)
    return entered, options


def defined() -> Dict[str, int]:
    """``path::qualname`` -> source lines of every ``def`` under src/repro."""
    functions: Dict[str, int] = {}

    def walk(node: ast.AST, rel: str, scope: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{rel}::{'.'.join(scope + (child.name,))}"
                functions[name] = (functions.get(name, 0)
                                   + child.end_lineno - child.lineno + 1)
                walk(child, rel, scope + (child.name, "<locals>"))
            elif isinstance(child, ast.ClassDef):
                # A typing.Protocol declares an interface; its method
                # bodies are documentation, never a call target.
                if not any(isinstance(base, ast.Name) and base.id == "Protocol"
                           for base in child.bases):
                    walk(child, rel, scope + (child.name,))
            else:
                walk(child, rel, scope)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        walk(ast.parse(path.read_text()), rel, ())
    return functions


def excuses(allow: Sequence[Tuple[str, str]], names: Iterable[str],
            covered: Set[str], what: str,
            problems: List[str]) -> Dict[str, str]:
    """name -> reason for every name an entry matches; a stale entry (it
    matches nothing, or only names traffic already covers) is a
    problem."""
    names = list(names)
    excuse: Dict[str, str] = {}
    for pattern, reason in allow:
        matches = fnmatch.filter(names, pattern)
        if not matches:
            problems.append(f"stale allowlist entry (matches no {what}): "
                            f"{pattern}")
        elif all(name in covered for name in matches):
            problems.append(f"stale allowlist entry (every match is covered "
                            f"by traffic): {pattern}")
        for name in matches:
            excuse.setdefault(name, reason)
    return excuse


def by_class(reasons: Iterable[str]) -> str:
    """"16 SEED, 11 INPUT, ...": how many names each reason class excuses
    (a reason's class is the tag before its first colon)."""
    counts = Counter(reason.partition(":")[0] for reason in reasons)
    return ", ".join(f"{count} {tag}" for tag, count
                     in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def check_functions(functions: Dict[str, int], entered: Set[str],
                    problems: List[str]) -> List[str]:
    """The function table; problems are appended."""
    rows: List[str] = []
    excuse = excuses(ALLOW, functions, entered, "function", problems)
    for name in sorted(functions):
        if name in entered:
            rows.append(f"entered      {name}")
        elif name in excuse:
            rows.append(f"allowed      {name}  # {excuse[name]}")
        else:
            rows.append(f"NOT ALLOWED  {name}  ({functions[name]} lines)")
            problems.append(f"no traffic enters {name} "
                            f"({functions[name]} lines) and no allowlist "
                            f"entry excuses it")
    missed = [name for name in functions if name not in entered]
    allowed = [excuse[name] for name in missed if name in excuse]
    summary = (f"{len(functions)} functions under src/repro: "
               f"{len(functions) - len(missed)} entered by traffic, "
               f"{len(missed)} not ({sum(functions[n] for n in missed)} "
               f"source lines; allowed: {by_class(allowed)}), "
               f"{len(ALLOW)} allowlist entries")
    print(summary)
    return [summary] + rows


def check_options(options: Options, problems: List[str]) -> List[str]:
    """The option table; problems are appended."""
    rows: List[str] = []
    scalar = {name: keys for name, keys in options.items()
              if keys is not None}
    varied = {name for name, keys in scalar.items() if len(keys) > 1}
    excuse = excuses(ALLOW_OPTIONS, scalar, varied, "option", problems)
    tier1 = sum(reason.startswith(TIER1_SIZE) for _, reason in ALLOW_OPTIONS)
    if tier1 > TIER1_SIZE_LIMIT:
        problems.append(f"{tier1} TIER1-SIZE entries in ALLOW_OPTIONS "
                        f"(at most {TIER1_SIZE_LIMIT})")
    counts = {"varied": 0, "allowed": 0, "NOT ALLOWED": 0}
    allowed: List[str] = []
    for name in sorted(scalar):
        values = " | ".join(sorted(scalar[name]))
        if name in varied:
            status, note = "varied", ""
        elif name in excuse:
            status, note = "allowed", f"  # {excuse[name]}"
            allowed.append(excuse[name])
        else:
            status, note = "NOT ALLOWED", ""
            problems.append(f"{name} runs with one value ({values}) in "
                            f"every traffic run and no ALLOW_OPTIONS entry "
                            f"excuses it")
        counts[status] += 1
        rows.append(f"{status:<12} {name} = {values}{note}")
    single = len(scalar) - len(varied)
    summary = (f"{len(scalar)} options under src/repro "
               f"({len(options) - len(scalar)} dependencies not counted): "
               f"{len(varied)} run with two or more values, {single} with "
               f"one ({counts['allowed']} allowed: {by_class(allowed)}; "
               f"{counts['NOT ALLOWED']} not), {len(ALLOW_OPTIONS)} option "
               f"allowlist entries")
    print(summary)
    return [summary] + rows


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-traffic-") as scratch:
        tmp = pathlib.Path(scratch)
        entered, options = record(tmp)
    problems: List[str] = []
    rows = check_functions(defined(), entered, problems)
    rows += [""] + check_options(options, problems)
    TABLE.write_text("\n".join(rows) + "\n")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"table: {TABLE.relative_to(ROOT)}; "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
