"""Seeded bugs and the kill matrix: would the oracles notice a wrong system?

Every equivalence test in this repository says the system behaves as it
did before.  This file asks the other question: break the system on
purpose, one bug at a time, and see which check fails.  The system does
not need any of this, so none of it lives under ``src/``.

Each entry of :data:`CATALOGUE` is a :class:`Mutant`, a context manager
that patches one method or one module constant on entry and puts the
original object back on exit.  A method patch is either a stand-in that
does nothing or the method's own source with one fragment rewritten, so a
mutant whose fragment no longer occurs in the code fails to build instead
of silently testing nothing.

Running the file (``make mutants``) runs, under each mutant, every library
scenario in every arm at seed 0, and prints one table, deterministic to
the byte.  Its killer columns are kept apart:

* **oracle** — a ``TraceChecker`` check, an outage past the bound the
  spec implies, a failed request in a planned ``sm`` timeline, or a
  probe reported a violation;
* **crash** — an in-code guard raised out of the run;
* **pin** — a library run's journal left its pin: the pin column counts
  the runs whose per-track digests moved and names the tracks, most
  often moved first.  Any behaviour change does that, so a pin alone is
  not a kill.

``first kill`` is the first (scenario, arm, seed) in curriculum order
that an oracle or a crash killed.  ``failed requests`` sums
``requests_failed`` over the library runs, unmutated -> mutated.

This file owns every behaviour pin: :data:`PINS` holds a
:data:`PREFIX`-hex prefix of each track's digest
(:meth:`~repro.obs.tracer.Journal.track_digests`) for each run of
:func:`pinned_runs`, the library at seed 0 and the two ``skew_lb`` arms.
The checked-in table is ``tests/fixtures/kill_matrix.md``; the run exits
1, printing the rows that differ, if the table it prints is not that one.
After a change that moves what either shows::

    PYTHONPATH=src python tests/mutants.py --repin    # make repin

rewrites both, printing the runs grouped by the tracks that moved; say
in the commit which tracks moved and why.
"""

from __future__ import annotations

import argparse
import difflib
import inspect
import json
import sys
import textwrap
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.app import server  # noqa: E402
from repro.chaos import ARMS, ScenarioSpec, all_scenarios, run_scenario  # noqa: E402
from repro.coordination.zookeeper import Session  # noqa: E402
from repro.core.allocator import Allocator  # noqa: E402
from repro.core.migration import MigrationExecutor  # noqa: E402
from repro.core.orchestrator import Orchestrator  # noqa: E402
from repro.core.task_controller import SMTaskController  # noqa: E402
from repro.discovery.router import ServiceRouter  # noqa: E402
from repro.experiments import skew_lb  # noqa: E402
from repro.sim.network import RpcCall  # noqa: E402
from repro.solver.goals import SpreadGoal  # noqa: E402

SEED = 0
TABLE = ROOT / "tests" / "fixtures" / "kill_matrix.md"
PINS = ROOT / "tests" / "fixtures" / "pins.json"
#: Hex digits of each track digest a pin keeps.
PREFIX = 16
#: The ``skew_lb`` cell the pins hold: no library timeline polls server
#: load, so these two runs hold the load-poll loop.
SKEW_LB_SEED, SKEW_LB_DURATION = 5, 180.0
NONE = "—"


def load_pins() -> Dict[str, Dict[str, str]]:
    """Run key -> track -> pinned digest prefix."""
    return json.loads(PINS.read_text())


def moved(tracks: Dict[str, str], pin: Dict[str, str]) -> List[str]:
    """The tracks whose digest is not as pinned, one that only one side
    has included."""
    return sorted(track for track in tracks.keys() | pin.keys()
                  if tracks.get(track, "")[:PREFIX]
                  != pin.get(track, "")[:PREFIX])


Make = Callable[[Any], Any]


def _recompiled(edit: Callable[[str], str]) -> Make:
    """Build a function from the original's own source after ``edit``,
    in the module the original was defined in."""
    def build(original: Any) -> Any:
        source = edit(textwrap.dedent(inspect.getsource(original)))
        namespace: Dict[str, Any] = {}
        exec(compile(source, f"<mutant of {original.__qualname__}>", "exec"),
             original.__globals__, namespace)
        return namespace[original.__name__]
    return build


def _once(source: str, fragment: str) -> None:
    if source.count(fragment) != 1:
        raise LookupError(f"{fragment!r} occurs {source.count(fragment)} "
                          f"times in the source, not once")


def rewrite(old: str, new: str) -> Make:
    """The method with the one occurrence of ``old`` replaced."""
    def edit(source: str) -> str:
        _once(source, old)
        return source.replace(old, new)
    return _recompiled(edit)


def cut(first: str, last: str) -> Make:
    """The method without the lines from the one holding ``first``
    through the one holding ``last``."""
    def edit(source: str) -> str:
        _once(source, first)
        _once(source, last)
        lines = source.splitlines(keepends=True)
        start = next(i for i, line in enumerate(lines) if first in line)
        stop = next(i for i, line in enumerate(lines) if last in line)
        return "".join(lines[:start] + lines[stop + 1:])
    return _recompiled(edit)


def becomes(value: Any) -> Make:
    return lambda _original: value


def does_nothing(*_args: Any) -> None:
    return None


def yields_nothing(*_args: Any):
    return
    yield  # a generator, as the process it stands in for


@dataclass(frozen=True)
class Mutant:
    """One seeded bug: ``owner.attr`` replaced by ``make(original)``
    while entered, the original object put back on exit."""

    name: str
    what: str
    owner: Any
    attr: str
    make: Make

    def __enter__(self) -> "Mutant":
        original = vars(self.owner)[self.attr]
        object.__setattr__(self, "_saved", original)
        setattr(self.owner, self.attr, self.make(original))
        return self

    def __exit__(self, *_exc: Any) -> None:
        setattr(self.owner, self.attr, self._saved)


CATALOGUE: Tuple[Mutant, ...] = (
    Mutant("skip_forward_phase",
           "the executor omits the section 4.3 forward phase",
           MigrationExecutor, "graceful_primary_migration",
           cut("# Step 2: the old primary starts forwarding.",
               'self._trace_phase(span, "forward")')),
    Mutant("zk_never_expires", "a ZooKeeper session never expires",
           Session, "_arm_expiry", becomes(does_nothing)),
    Mutant("failover_never", "the orchestrator never fails a server over",
           Orchestrator, "_failover_address", becomes(does_nothing)),
    Mutant("rpc_double_complete", "an RPC's on_complete runs twice",
           RpcCall, "_settle",
           rewrite("on_complete(result)",
                   "on_complete(result); on_complete(result)")),
    Mutant("successor_forgets",
           "a new orchestrator incarnation restores no state",
           Orchestrator, "_restore_state", becomes(does_nothing)),
    Mutant("no_forward", "prepare_drop_shard never starts forwarding",
           server.ApplicationServer, "_rpc_prepare_drop_shard",
           rewrite("hosted.state = HostedState.FORWARDING", "pass")),
    Mutant("drop_no_grace", "DROP_GRACE is 0: no drain before the drop",
           server, "DROP_GRACE", becomes(0.0)),
    Mutant("tc_no_global_cap",
           "the TaskController ignores max_concurrent_container_ops",
           SMTaskController, "review_ops",
           rewrite(">= self.spec.max_concurrent_container_ops",
                   ">= float(\"inf\")")),
    Mutant("emergency_skips_creates",
           "every other create is recorded but never reaches its server",
           MigrationExecutor, "create_replica",
           rewrite('"sm.add_shard"',
                   '"sm.ping" if self.stats.creates % 2 else "sm.add_shard"')),
    Mutant("failover_no_grace", "fail a server over at once, no grace",
           Orchestrator, "_server_down",
           rewrite("grace = self.config.failover_grace", "grace = 0.0")),
    Mutant("forward_forever",
           "a forwarding replica is never dropped after DROP_GRACE",
           server.ApplicationServer, "_deferred_drop",
           becomes(does_nothing)),
    Mutant("tc_no_shard_cap", "the TaskController ignores the per-shard cap",
           SMTaskController, "_violates_shard_cap",
           becomes(lambda *_args: False)),
    Mutant("router_accepts_regress",
           "a router adopts a map older than the one it routes with",
           ServiceRouter, "on_map_update",
           rewrite("shard_map.version <= previous.version", "False")),
    Mutant("no_reinstate",
           "a failed handover leaves the old primary forwarding",
           MigrationExecutor, "_reinstate", becomes(yields_nothing)),
    Mutant("ignore_expected_restart",
           "the orchestrator ignores a planned-restart notice",
           Orchestrator, "expect_restart", becomes(does_nothing)),
    Mutant("promote_skips_demote",
           "a promotion skips demoting the current primary",
           MigrationExecutor, "promote",
           rewrite("if current is not None and current.replica_id "
                   "!= replica.replica_id:", "if False:")),
    Mutant("spread_stale_cell",
           "the spread goal never forgets a crowded cell",
           SpreadGoal, "on_move",
           rewrite("self._crowded.discard(key)", "pass")),
    Mutant("allocator_tie_order",
           "the periodic solve's build walks each shard's replicas in reverse",
           Allocator, "build_problem",
           rewrite("replicas_view(shard_id)",
                   "reversed(replicas_view(shard_id))")),
    Mutant("kept_plan_ignores_spec",
           "the periodic allocator's input leaves out the spec's shards",
           Allocator, "periodic_plan",
           rewrite("list(self.spec.shards)", "()")),
    Mutant("kept_tail_skips_revalidation",
           "a planned move is handed out without its re-check",
           Allocator, "_hand_out",
           rewrite("if (replica.state is ReplicaState.DROPPED",
                   "if False and (replica.state is ReplicaState.DROPPED")),
    Mutant("route_cache_keeps_changed_column",
           "a chained delta evicts no cached route of a column it changed",
           ServiceRouter, "_evict_changed",
           rewrite("for i in delta.indices:", "for i in ():")),
)

BY_NAME: Dict[str, Mutant] = {mutant.name: mutant for mutant in CATALOGUE}


@dataclass(frozen=True)
class Outcome:
    """What one pinned run showed: its violations by check, the guard
    that raised, its track digests and its failed requests."""

    violations: Tuple[str, ...] = ()
    crash: str = ""
    tracks: Dict[str, str] = field(default_factory=dict)
    failed: int = 0

    @property
    def killed(self) -> bool:
        return bool(self.violations or self.crash)


def observe(spec: ScenarioSpec, arm: str) -> Outcome:
    try:
        result = run_scenario(spec, arm=arm, seed=SEED)
    except Exception as error:  # an in-code guard: the crash column
        return Outcome(crash=guard(error))
    return Outcome(
        violations=tuple(sorted({v["invariant"]
                                 for v in result.violations})),
        tracks=result.tracks, failed=result.requests_failed)


def library_runs() -> Iterator[Tuple[str, ScenarioSpec, str]]:
    """``(run key, spec, arm)`` of every library run, in curriculum
    order."""
    for spec in all_scenarios():
        for arm in ARMS:
            yield f"{spec.name}:{arm}", spec, arm


def observe_skew_lb(arm: str) -> Outcome:
    result = skew_lb.run_arm(arm, seed=SKEW_LB_SEED,
                             duration=SKEW_LB_DURATION)
    return Outcome(
        violations=("trace-checker",) if result.violations else (),
        tracks=result.tracks, failed=result.failed)


def pinned_runs() -> Iterator[Tuple[str, Callable[[], Outcome]]]:
    """``(run key, run)`` of every pinned run: the library at seed 0,
    then the ``skew_lb`` arms."""
    for key, spec, arm in library_runs():
        yield key, partial(observe, spec, arm)
    for arm in ("sm", "static"):
        yield f"skew_lb:{arm}", partial(observe_skew_lb, arm)


def guard(error: Exception) -> str:
    """``Class.method: Error`` of the frame that raised ``error``."""
    frame = error.__traceback__
    while frame.tb_next is not None:
        frame = frame.tb_next
    owner = frame.tb_frame.f_locals.get("self")
    where = frame.tb_frame.f_code.co_name
    if owner is not None:
        where = f"{type(owner).__name__}.{where}"
    return f"{where}: {type(error).__name__}"


def row(name: str, outcomes: Dict[str, Outcome],
        pins: Dict[str, Dict[str, str]], failed_before: int) -> List[str]:
    checks = sorted({check for o in outcomes.values() for check in o.violations})
    oracle_runs = sum(1 for o in outcomes.values() if o.violations)
    crashes = sorted({o.crash for o in outcomes.values() if o.crash})
    crash_runs = sum(1 for o in outcomes.values() if o.crash)
    # A crashed run counts as moved, but journals no track to name.
    moves = [moved(o.tracks, pins[key])
             for key, o in outcomes.items() if not o.crash]
    runs_moved = sum(1 for tracks in moves if tracks) + crash_runs
    by_track = Counter(track for tracks in moves for track in tracks)
    tracks = ", ".join(sorted(by_track, key=lambda t: (-by_track[t], t)))
    first = next((f"{key}:{SEED}" for key, o in outcomes.items() if o.killed),
                 NONE)
    failed = sum(o.failed for o in outcomes.values())
    return [name,
            f"{', '.join(checks)} ({oracle_runs} runs)" if checks else NONE,
            f"{'; '.join(crashes)} ({crash_runs} runs)" if crashes else NONE,
            f"{runs_moved}/{len(outcomes)} {tracks}".rstrip(), first,
            f"{failed_before:,} -> {failed:,}"]


def unpinned(key: str, outcome: Outcome,
             pins: Dict[str, Dict[str, str]]) -> str:
    """What is wrong with an unmutated run, or ``""``: the checks that
    fired, the guard that raised and the tracks that left their pin."""
    what = []
    if outcome.violations:
        what.append(f"oracle {', '.join(outcome.violations)}")
    if outcome.crash:
        what.append(f"crash {outcome.crash}")
    else:
        tracks = moved(outcome.tracks, pins.get(key, {}))
        if tracks:
            what.append(f"moved {' + '.join(tracks)}")
    return "; ".join(what)


def kill_matrix(pins: Dict[str, Dict[str, str]],
                seen: Optional[Dict[str, Outcome]] = None) -> str:
    """The table; ``seen`` holds unmutated runs already observed (by
    :func:`repin`), which the clean check takes instead of re-running."""
    runs, seen = list(library_runs()), seen or {}
    clean = {key: seen[key] if key in seen else observe(spec, arm)
             for key, spec, arm in runs}
    drift = [f"  {key}: {what}" for key, o in clean.items()
             if (what := unpinned(key, o, pins))]
    if drift:
        raise SystemExit("the unmutated system is not clean or not as "
                         "pinned; fix that first:\n" + "\n".join(drift))
    failed_before = sum(o.failed for o in clean.values())
    header = ["mutant", "oracle", "crash", "pin", "first kill",
              "failed requests"]
    lines = [f"Kill matrix: {len(CATALOGUE)} mutants x "
             f"{len(runs) // len(ARMS)} library scenarios x "
             f"{len(ARMS)} arms at seed {SEED}.",
             "",
             "| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    summary = {"oracle": 0, "crash": 0, "pin only": 0, "nothing": 0}
    for mutant in CATALOGUE:
        with mutant:
            outcomes = {key: observe(spec, arm) for key, spec, arm in runs}
        cells = row(mutant.name, outcomes, pins, failed_before)
        lines.append("| " + " | ".join(cells) + " |")
        if cells[1] != NONE:
            summary["oracle"] += 1
        elif cells[2] != NONE:
            summary["crash"] += 1
        elif not cells[3].startswith("0/"):
            summary["pin only"] += 1
        else:
            summary["nothing"] += 1
    lines += ["", "Killed by an oracle: {oracle}; by a crash only: {crash}; "
              "pin moved, no kill: {pin only}; nothing moved: "
              "{nothing}.".format(**summary)]
    return "\n".join(lines) + "\n"


def repin() -> Tuple[Dict[str, Dict[str, str]], Dict[str, Outcome]]:
    """Pin every run of :func:`pinned_runs` as this tree runs it, write
    :data:`PINS`, and print the runs grouped by the tracks that moved;
    returns the pins and the outcomes they were cut from."""
    old = load_pins() if PINS.exists() else {}
    pins, moves, outcomes = {}, [], {}
    for key, run in pinned_runs():
        outcome = outcomes[key] = run()
        if outcome.killed:
            raise SystemExit(f"{key} is not clean "
                             f"({unpinned(key, outcome, old)}); fix that "
                             f"first")
        pins[key] = {track: digest[:PREFIX]
                     for track, digest in outcome.tracks.items()}
        moves.append(moved(pins[key], old.get(key, {})))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"Re-pinned {len(pins)} runs in {PINS.relative_to(ROOT)}:")
    for line in moved_table(moves):
        print(f"  {line}")
    return pins, outcomes


def moved_table(moves: Iterable[List[str]]) -> List[str]:
    """One line per set of moved tracks, most runs first: "57 runs:
    `solver`", or "59 runs: nothing moved"."""
    groups = Counter(" + ".join(f"`{track}`" for track in tracks)
                     or "nothing moved" for tracks in moves)
    return [f"{runs} run{'s' * (runs != 1)}: {tracks}" for tracks, runs in
            sorted(groups.items(), key=lambda group: (-group[1], group[0]))]


def killed_in(table: str) -> Dict[str, Tuple[str, str]]:
    """mutant -> (scenario, arm) of its first kill, for every row of a
    printed table that some oracle or crash killed."""
    kills = {}
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 6 and cells[0] in BY_NAME and cells[4] != NONE:
            scenario, arm, _seed = cells[4].split(":")
            kills[cells[0]] = (scenario, arm)
    return kills


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Print the kill matrix; exit 1 unless it is "
                    f"{TABLE.relative_to(ROOT)}.")
    parser.add_argument(
        "--repin", action="store_true",
        help=f"rewrite {PINS.relative_to(ROOT)} and "
             f"{TABLE.relative_to(ROOT)} from this tree")
    args = parser.parse_args(argv)
    pins, seen = repin() if args.repin else (load_pins(), {})
    table = kill_matrix(pins, seen)
    sys.stdout.write(table)
    differ = list(difflib.unified_diff(
        TABLE.read_text().splitlines(), table.splitlines(),
        str(TABLE.relative_to(ROOT)), "printed", lineterm="", n=0))
    if differ:
        print("\n".join(differ), file=sys.stderr)
    if args.repin:
        TABLE.write_text(table)
        return 0
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
