"""A caller is traffic: every function under ``src/repro`` is entered by
something that is not a unit test, or is excused by name and reason.

Run by ``make traffic`` and CI's ``traffic`` job (not collected by
tier-1: the file name does not match ``test_*.py``).  It runs all the
non-test traffic the repository has — the seven ``bench/worker.py``
workloads, the figure suite, the experiment / chaos / fuzz / profile
scripts and the five examples — each in a subprocess under the
function-entry recorder of ``tests/traffic/sitecustomize.py``, and fails
when

* a function defined under ``src/repro`` was entered by none of them and
  matches no ``ALLOW`` pattern, or
* an ``ALLOW`` pattern matches no function, or every function it matches
  *was* entered (a stale excuse).

DESIGN.md, "One owner per shared decision", clause two, says why a unit
test or a re-export does not count as a caller.  The table of every
function (entered / allowed with its reason / NOT ALLOWED) is written to
``traffic_table.txt`` (git-ignored).  Needs Python >= 3.11
(``code.co_qualname``).
"""

from __future__ import annotations

import ast
import fnmatch
import os
import pathlib
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
RECORDER = ROOT / "tests" / "traffic"
TABLE = ROOT / "traffic_table.txt"
CORPUS = sorted((ROOT / "tests" / "fixtures" / "chaos_corpus").glob("*.json"))

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
ERROR = "error handling a call can return: "
CHECKER = ("oracle that fires only on a broken system; ROADMAP item 4 "
           "decides checkers by mutants: ")
REFERENCE = "reference implementation a test compares against: "
RELEASE = "releases what the object owns: "
BASE = "base-class declaration or no-op default: "
REPR = "debugging / failure-message text"
DOUBLE = ("test double shipped beside the TaskController protocol it "
          "implements")
FORMAT = "other half of a format traffic reads or writes: "
PAPER = ("paper-named capability, fenced not settled - ROADMAP gives it "
         "the contract 'a scenario or figure drives it and a checker "
         "would notice it broken, or it goes': ")
CHURN = "not worth the churn: "

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
    ("chaos/fuzz/engine.py::FuzzEngine._shrink_violation*",
     ERROR + "what the fuzzer does with a violating candidate; no search "
     "has produced one yet (ROADMAP item 4's mutants will)"),
    # -- checkers and their reports ---------------------------------------
    ("obs/checker.py::TraceChecker.check_shard_map",
     CHECKER + "published map against the journal"),
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
    ("cluster/maintenance.py::MaintenanceSchedule.stop",
     RELEASE + "its scheduling process"),
    ("sim/fluid.py::EpochDriver.stop", RELEASE + "its pending epoch tick"),
    # -- base classes, doubles, text --------------------------------------
    ("solver/goals.py::Goal.violations", BASE + "every goal overrides it"),
    ("solver/goals.py::Goal.violating_servers",
     BASE + "every goal overrides it"),
    ("solver/goals.py::Goal.move_delta", BASE + "every goal overrides it"),
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
     "keeps ShardMap hashable beside the __eq__ traffic uses"),
    # -- formats ----------------------------------------------------------
    ("obs/trace_export.py::read_jsonl",
     FORMAT + "reads the JSONL journal --journal writes"),
    ("chaos/fuzz/corpus.py::Corpus.load",
     FORMAT + "reads the directory --corpus-dir writes"),
    ("chaos/fuzz/corpus.py::CorpusEntry.from_dict",
     FORMAT + "reads the entry files --corpus-dir writes"),
    ("chaos/spec_io.py::dump_spec",
     FORMAT + "writes the spec files --scenario @file and --replay read"),
    # -- deployment -------------------------------------------------------
    ("experiments/runner.py::fuzz_eval_task",
     "deployment setting: the fuzzer's --processes > 0 path (pool workers "
     "leave through os._exit, so the audit runs serial); same report as "
     "serial, byte for byte"),
    # -- paper-named, fenced ----------------------------------------------
    ("core/shard_scaler.py::*",
     PAPER + "Fig 10's shard scaler; four unit tests are its only user"),
    ("apps/adevents.py::*",
     PAPER + "the AdEvents application of section 2.5; "
     "experiments/adevents_capacity.py reproduces the 67 % without it"),
    ("cluster/twine.py::Twine._do_st*",
     PAPER + "Twine START / STOP execution; every figure and scenario "
     "submits RESTART only"),
    ("cluster/twine.py::Twine._do_move*",
     PAPER + "Twine MOVE execution; every figure and scenario submits "
     "RESTART only"),
    ("cluster/container.py::Container.relocate",
     PAPER + "the container half of Twine MOVE"),
    ("core/mini_sm.py::Partition.start_orchestrator",
     PAPER + "a partition 'run live'; nothing runs one"),
    ("solver/goals.py::CapacityGoal.fits",
     PAPER + "section 5.3's two-way swap: traffic enters _try_swap but no "
     "instance yet finds an improving pair to capacity-check"),
    ("solver/local_search.py::LocalSearch._fits",
     PAPER + "section 5.3's two-way swap, as CapacityGoal.fits"),
    # -- churn ------------------------------------------------------------
    ("core/shard_map.py::AssignmentTable.snapshot",
     CHURN + "two lines over _rebuild_dirty / _make_map with ~20 test "
     "call sites"),
]


def traffic(tmp: pathlib.Path) -> List[List[str]]:
    """Every non-test command line the repository has, serial variants
    only (a pool worker leaves through ``os._exit`` and would lose its
    recording)."""
    py = sys.executable
    experiments = [py, "scripts/run_experiments.py", "--smoke", "--serial"]
    chaos = [py, "scripts/run_chaos.py", "--seed", "42", "--serial",
             "--no-repeat", "--check-trace"]
    fuzz = [py, "scripts/run_fuzz.py", "--processes", "0"]
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
        chaos + ["--all"],
        chaos + ["--scenario", f"@{CORPUS[0]}"],
        fuzz + ["--budget", "60", "--seed", "42", "--distill", "3",
                "--determinism-check",
                "--corpus-dir", str(tmp / "corpus"),
                "--distill-dir", str(tmp / "distilled"),
                "--output", str(tmp / "fuzz_report.json")],
        fuzz + ["--replay"] + [str(path) for path in CORPUS],
        [py, "scripts/profile_solver.py", "--factor", "5", "--point", "2"],
        [py, "scripts/profile_solver.py", "--factor", "25", "--point", "1",
         "--json"],
    ]
    commands += [[py, f"examples/{name}.py"] for name in EXAMPLES]
    return commands


def record(tmp: pathlib.Path) -> Set[str]:
    """Run the traffic under the recorder; return every function entered."""
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
    return entered


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


def check(functions: Dict[str, int], entered: Set[str]) -> List[str]:
    """Write the table; return the problems (empty = the fence holds)."""
    problems: List[str] = []
    rows: List[str] = []
    excuse: Dict[str, str] = {}
    for pattern, reason in ALLOW:
        matches = fnmatch.filter(functions, pattern)
        if not matches:
            problems.append(f"stale allowlist entry (matches no function): "
                            f"{pattern}")
        elif all(name in entered for name in matches):
            problems.append(f"stale allowlist entry (every match is entered "
                            f"by traffic): {pattern}")
        for name in matches:
            excuse.setdefault(name, reason)
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
    summary = (f"{len(functions)} functions under src/repro: "
               f"{len(functions) - len(missed)} entered by traffic, "
               f"{len(missed)} not ({sum(functions[n] for n in missed)} "
               f"source lines), {len(ALLOW)} allowlist entries")
    TABLE.write_text("\n".join([summary] + rows) + "\n")
    print(summary)
    return problems


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-traffic-") as scratch:
        tmp = pathlib.Path(scratch)
        entered = record(tmp)
    problems = check(defined(), entered)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"table: {TABLE.relative_to(ROOT)}; "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
