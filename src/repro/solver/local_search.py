"""Local-search engine with the paper's §5.3 optimizations.

"Starting from the current shard assignment, it considers moving shards
from hot servers to cold servers by prioritizing shards whose constraint
or goal violations impair the optimization objective the most.  It
evaluates a large number of such shard moves and keeps the best one.
Local search repeats until it either cannot find improvements or uses up
a predetermined time and move budget."

The four scaling techniques (§5.3), plus swaps, are switched together by
``SearchConfig.optimized`` — the two arms of the Fig 22 experiment:

* grouped sampling — sample move targets across server groups (regions)
  instead of uniformly, plus domain-knowledge targeting of a replica's
  preferred region / under-represented spread domains;
* large first — evaluate a hot server's largest replicas first;
* equivalence classes — evaluate one representative per class of
  replicas that are interchangeable for the active goals;
* priority batches — solve goals in priority order, never deteriorating
  the already-solved higher-priority batches, with longer per-batch
  deadlines for the critical early batches.

``OPTIMIZED`` enables everything; ``BASELINE`` (Fig 22's comparison arm,
``SearchConfig.without_optimizations()``) disables them all.

Cost model (this is the most performance-critical loop in the repo — it
dominates the Fig 21/22 benchmarks — and every part of a solve is
proportional to what the search touches, never to the fleet):

* **set-up** is O(servers + goals): region buckets and the goal lists.
  Nothing is computed per replica up front; equivalence keys and
  capacity-normalised sizes are memoised the first time the search meets
  a replica, the swap path's total loads the first time a swap is tried,
  and ``changed_replicas`` comes from a first-origin record per moved
  replica instead of a before/after copy of the whole assignment;
* **per round**, goal evaluators keep dirty-set-maintained caches, so
  ``refresh`` / ``violating_servers`` / ``violations`` touch only the
  servers changed since the last round;
* **per move, candidates** cost one sort of the hot server's replicas by
  memoised size, then O(k + skipped): the pinned / ``contributes``
  filter and the equivalence dedup walk that order lazily and stop at
  ``k = MAX_REPLICAS_PER_SERVER`` representatives.  Filtering a stably
  sorted list equals sorting the filtered one, so the walk yields exactly
  what filtering, sorting, deduplicating and slicing the whole server
  would;
* **per move, evaluation** costs, for each candidate replica and goal,
  one batched ``move_deltas`` call: the source server's half of a
  threshold goal's delta once, the destination half for each of the
  <= ``CANDIDATE_SAMPLES`` sampled targets.

Tie rule: replicas of equal size are tried in the iteration order of the
server's ``replicas_on`` set (``sorted(reverse=True)`` is stable).  That
order changes whenever the set is mutated, which is why sizes and keys
are cached per replica but no sorted order is kept across moves; and the
baseline arm shuffles the fully filtered list, because the number of RNG
draws depends on its length.  Together these keep the
``(replica, src, dst)`` sequence, the ``evaluations`` count and the RNG
draw sequence per seed exactly what the eager implementation produced —
``tests/test_solver_incremental.py`` holds that eager implementation as
the oracle.

Every solve carries a :class:`~repro.metrics.profiler.Profiler` in
``SolveResult.profile`` with per-stage wall-clock (setup / refresh /
hot_scan / candidates / evaluate / swap / apply) and counters; the stages
add up to ``solve_time``, which starts where the caller starts waiting:
at ``LocalSearch`` construction.  See ``scripts/profile_solver.py`` for
function-level cProfile output.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..metrics.profiler import Profiler
from ..metrics.timeseries import TimeSeries
from .goals import AffinityGoal, CapacityGoal, Goal, SpreadGoal
from .problem import PlacementProblem


#: Move targets evaluated per candidate replica.
CANDIDATE_SAMPLES = 24
#: Replicas tried per hot server per round.
MAX_REPLICAS_PER_SERVER = 8
#: A trace point is recorded every this many moves.
TRACE_INTERVAL = 64


@dataclass(frozen=True)
class SearchConfig:
    """The budget of one solve, its seed, and which arm it runs."""

    time_budget: float = 60.0          # wall-clock seconds
    move_budget: int = 1_000_000
    #: The §5.3 techniques and swaps, all on or (the baseline arm) all off.
    optimized: bool = True
    rng_seed: int = 0

    def without_optimizations(self) -> "SearchConfig":
        return replace(self, optimized=False)


OPTIMIZED = SearchConfig()
BASELINE = SearchConfig().without_optimizations()


@dataclass
class SolveResult:
    """Outcome of one solve."""

    moves: int = 0
    swaps: int = 0
    evaluations: int = 0
    initial_violations: int = 0
    final_violations: int = 0
    solve_time: float = 0.0
    timed_out: bool = False
    trace: TimeSeries = field(default_factory=lambda: TimeSeries(name="violations"))
    changed_replicas: List[Tuple[int, int, int]] = field(default_factory=list)
    profile: Profiler = field(default_factory=Profiler)

    @property
    def evaluations_per_second(self) -> float:
        if self.solve_time <= 0.0:
            return 0.0
        return self.evaluations / self.solve_time


#: Profile entries that stay off the journal's ``solver`` track: the
#: golden traces, the chaos corpus and the benchmark's fingerprints pin a
#: digest of that track, recorded before these entries existed.
UNJOURNALED_PROFILE_KEYS = frozenset({"setup", "equiv_keys"})


class _NormalizedSizes(dict):
    """replica -> its load as a fraction of one capacity vector, summed
    over metrics (zero-capacity metrics contribute nothing).

    Filled on first read: a hot server is revisited move after move with
    all but one of its replicas unchanged, so a revisit costs lookups.
    """

    __slots__ = ("_loads", "_capacity")

    def __init__(self, loads: List[Tuple[float, ...]],
                 capacity: Tuple[float, ...]) -> None:
        super().__init__()
        self._loads = loads
        self._capacity = capacity

    def __missing__(self, replica: int) -> float:
        load = self._loads[replica]
        total = 0.0
        for m, cap in enumerate(self._capacity):
            if cap > 0:
                total += load[m] / cap
        self[replica] = total
        return total


class LocalSearch:
    """One solver instance bound to a problem and compiled goals."""

    def __init__(self, problem: PlacementProblem, goals: Sequence[Goal],
                 config: SearchConfig = OPTIMIZED) -> None:
        constructed = time.perf_counter()
        if not goals:
            raise ValueError("at least one goal is required")
        self.problem = problem
        self.goals = sorted(goals, key=lambda g: g.priority)
        self.config = config
        self.rng = random.Random(config.rng_seed)
        self.capacity_goals = [g for g in self.goals if isinstance(g, CapacityGoal)]
        self._fitting = [g.fitting for g in self.capacity_goals]
        self._affinity = next((g for g in self.goals
                               if isinstance(g, AffinityGoal)), None)
        self._spreads = [g for g in self.goals if isinstance(g, SpreadGoal)]
        # Server groups for grouped sampling: one bucket per region, kept
        # index-aligned with problem.region_names (a region with no live
        # servers keeps an empty bucket).
        num_regions = len(problem.region_names)
        self._groups: List[List[int]] = [[] for _ in range(num_regions)]
        for server, region in enumerate(problem.server_region):
            self._groups[region].append(server)
        self._nonempty_groups = [group for group in self._groups if group]
        self._all_servers = range(len(problem.servers))
        # Per-replica memos, filled as the search meets replicas (loads
        # and preferences are immutable): capacity vector -> sizes, and
        # replica -> the static part of its equivalence class.
        self._sizes: Dict[Tuple[float, ...], _NormalizedSizes] = {}
        self._class_keys: Dict[int, Tuple[Tuple[float, ...], int]] = {}
        # replica -> the server it sat on before this solve first moved it.
        self._origin: Dict[int, int] = {}
        # Compiled per-batch evaluation lists (see _solve_batch).
        self._batch_evals: List[Tuple[float, "callable"]] = []
        self._higher_evals: List["callable"] = []
        self._higher_evals_post_fits: List["callable"] = []
        self._contrib_checks: Optional[List["callable"]] = None
        self._construct_s = time.perf_counter() - constructed

    # -- public entry point -----------------------------------------------------

    def solve(self) -> SolveResult:
        result = SolveResult()
        profile = result.profile
        # The caller has been waiting since construction began, so that is
        # where the clock, and with it the time budget, starts.
        start = time.perf_counter() - self._construct_s
        self._start_wall = start
        deadline = start + self.config.time_budget
        result.initial_violations = self.total_violations()
        result.trace.record(0.0, result.initial_violations)
        self._origin.clear()

        if self.config.optimized:
            batches = self._priority_batches()
        else:
            batches = [list(self.goals)]
        profile.add("setup", time.perf_counter() - start)

        for batch_index, batch in enumerate(batches):
            # Earlier batches get the larger share of the remaining budget
            # ("earlier batches ... can use search timeouts longer than later
            # batches' timeouts", §5.3).
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                result.timed_out = True
                break
            if self.config.optimized and batch_index < len(batches) - 1:
                batch_deadline = time.perf_counter() + remaining * 0.5
            else:
                batch_deadline = deadline
            higher = [g for g in self.goals
                      if g.priority < min(goal.priority for goal in batch)]
            self._solve_batch(batch, higher, batch_deadline, result)

        result.solve_time = time.perf_counter() - start
        result.final_violations = self.total_violations()
        result.trace.record(result.solve_time, result.final_violations)
        assignment = self.problem.assignment
        result.changed_replicas = [
            (replica, old, assignment[replica])
            for replica, old in sorted(self._origin.items())
            if old != assignment[replica]]
        if result.solve_time >= self.config.time_budget:
            result.timed_out = True
        profile.set_counter("evaluations", result.evaluations)
        profile.set_counter("moves", result.moves)
        profile.set_counter("swaps", result.swaps)
        profile.set_counter("equiv_keys", len(self._class_keys))
        return result

    def total_violations(self) -> int:
        return sum(g.violations() for g in self.goals)

    # -- batching ----------------------------------------------------------------

    def _priority_batches(self) -> List[List[Goal]]:
        batches: Dict[int, List[Goal]] = {}
        for goal in self.goals:
            batches.setdefault(goal.priority, []).append(goal)
        return [batches[p] for p in sorted(batches)]

    # -- core loop ----------------------------------------------------------------

    def _solve_batch(self, batch: List[Goal], higher: List[Goal],
                     deadline: float, result: SolveResult) -> None:
        config = self.config
        profile = result.profile
        perf = time.perf_counter
        # Compile the inner evaluation loops once per batch: plain lists of
        # bound methods, so _best_target runs without generator frames or
        # repeated attribute lookups.
        self._batch_evals = [(g.weight, g.move_deltas) for g in batch]
        self._higher_evals = [g.move_deltas for g in higher]
        # A replica with non-negative loads cannot make a capacity goal's
        # delta exceed the veto threshold once ``fitting`` accepted the
        # target (the destination stays within its limit and the source
        # only sheds load), so _best_target skips those higher-goal calls
        # for it.  Swaps check the veto *before* fits and use ``higher``.
        self._higher_evals_post_fits = [
            g.move_deltas for g in higher if not isinstance(g, CapacityGoal)]
        overridden = [g.contributes for g in batch
                      if type(g).contributes is not Goal.contributes]
        # If any batch goal uses the default always-True contributes, the
        # candidate filter passes every replica — skip it entirely.
        self._contrib_checks = (overridden if len(overridden) == len(batch)
                                else None)
        stall_rounds = 0
        while True:
            if perf() >= deadline:
                result.timed_out = True
                return
            if result.moves + result.swaps >= config.move_budget:
                return
            t0 = perf()
            for goal in batch:
                goal.refresh()
            profile.add("refresh", perf() - t0)
            t0 = perf()
            hot_servers = self._hot_servers(batch)
            profile.add("hot_scan", perf() - t0)
            profile.count("rounds")
            profile.count("hot_servers", len(hot_servers))
            if not hot_servers:
                return
            progressed = False
            for server in hot_servers:
                if perf() >= deadline:
                    result.timed_out = True
                    return
                if result.moves + result.swaps >= config.move_budget:
                    return
                if self._improve_server(server, batch, higher, result):
                    progressed = True
            if progressed:
                stall_rounds = 0
            else:
                stall_rounds += 1
                if stall_rounds >= 2:
                    return  # no improving move found twice in a row: converged

    def _hot_servers(self, batch: List[Goal]) -> List[int]:
        """Ordered union of each goal's violating servers.

        The per-goal lists come from the goals' dirty-set-maintained sorted
        caches, so a round in which only two servers changed costs two
        cache repairs per goal — not a fleet sweep plus full sort.
        """
        ordered: List[int] = []
        seen = set()
        for goal in batch:
            for server in goal.violating_servers():
                if server not in seen:
                    seen.add(server)
                    ordered.append(server)
        return ordered

    # -- per-server improvement ------------------------------------------------------

    def _improve_server(self, server: int, batch: List[Goal],
                        higher: List[Goal], result: SolveResult) -> bool:
        profile = result.profile
        perf = time.perf_counter
        t0 = perf()
        replicas = self._candidate_replicas(server)
        profile.add("candidates", perf() - t0)
        chosen: Optional[int] = None
        target: Optional[int] = None
        t0 = perf()
        for replica in replicas:
            target = self._best_target(replica, server, result)
            if target is not None:
                chosen = replica
                break
        profile.add("evaluate", perf() - t0)
        if chosen is not None:
            t0 = perf()
            self._move(chosen, server, target)
            profile.add("apply", perf() - t0)
            result.moves += 1
            if result.moves % TRACE_INTERVAL == 0:
                result.trace.record(perf() - self._start_wall,
                                    self.total_violations())
            return True
        if self.config.optimized and replicas:
            t0 = perf()
            swapped = self._try_swap(server, replicas[0], batch, higher,
                                     result)
            profile.add("swap", perf() - t0)
            return swapped
        return False

    def _candidate_replicas(self, server: int) -> List[int]:
        """Up to ``MAX_REPLICAS_PER_SERVER`` movable replicas of ``server``
        in the order to try them: largest first, one per equivalence
        class (baseline arm: shuffled, no classes)."""
        problem = self.problem
        replicas = problem.replicas_on[server]
        if not self.config.optimized:
            movable = list(filter(self._movable, replicas))
            self.rng.shuffle(movable)
            return movable[:MAX_REPLICAS_PER_SERVER]
        capacity = problem.capacity[server]
        sizes = self._sizes.get(capacity)
        if sizes is None:
            sizes = self._sizes[capacity] = _NormalizedSizes(
                problem.loads, capacity)
        # Stable, so ties keep the set's iteration order; the filter
        # then runs lazily over the sorted order.
        movable = filter(self._movable, sorted(
            replicas, key=sizes.__getitem__, reverse=True))
        # One representative per equivalence class: replicas on one server
        # are interchangeable when they have the same (quantized) load
        # vector, the same regional preference and the same spread
        # situation ("it figures out from the mathematical formula which
        # shards are equivalent to one another and reuses the
        # computation", §5.3).
        class_keys = self._class_keys
        spreads = self._spreads
        seen = set()
        kept = []
        for replica in movable:
            key = class_keys.get(replica)
            if key is None:
                key = class_keys[replica] = (
                    tuple(round(v, 6) for v in problem.loads[replica]),
                    self._affinity.pref_region[replica]
                    if self._affinity is not None else -1)
            if spreads:
                key = (key, tuple(goal.crowded(replica) for goal in spreads))
            if key in seen:
                continue
            seen.add(key)
            kept.append(replica)
            if len(kept) >= MAX_REPLICAS_PER_SERVER:
                break
        return kept

    def _movable(self, replica: int) -> bool:
        """Not pinned, and moving it could help some goal of the batch."""
        if self.problem.replica_pinned[replica]:
            return False
        checks = self._contrib_checks
        if checks is None:
            return True
        for check in checks:
            if check(replica):
                return True
        return False

    # -- target selection -----------------------------------------------------------

    def _sample_targets(self, replica: int, src: int) -> List[int]:
        rng = self.rng
        if not self.config.optimized:
            count = min(CANDIDATE_SAMPLES, len(self._all_servers))
            return rng.sample(self._all_servers, count)
        targets: List[int] = []
        # Domain knowledge 1: replicas with a region preference get targets
        # in that region first.
        if self._affinity is not None:
            pref = self._affinity.preferred_region_of(replica)
            if pref != -1 and pref < len(self._groups) and self._groups[pref]:
                group = self._groups[pref]
                take = min(max(2, CANDIDATE_SAMPLES // 3), len(group))
                targets.extend(rng.sample(group, take))
        # Grouped sampling: an even number of candidates from every region
        # group ("sampling across groups has a better chance of finding a
        # suitable move target for goals such as region preference and
        # spread of replicas", §5.3).
        remaining = CANDIDATE_SAMPLES - len(targets)
        nonempty_groups = self._nonempty_groups
        if remaining > 0 and nonempty_groups:
            per_group = max(1, remaining // len(nonempty_groups))
            for group in nonempty_groups:
                take = min(per_group, len(group))
                targets.extend(rng.sample(group, take))
        # Deduplicate, drop the source.
        seen = set()
        unique = []
        for server in targets:
            if server != src and server not in seen:
                seen.add(server)
                unique.append(server)
        return unique

    def _best_target(self, replica: int, src: int,
                     result: SolveResult) -> Optional[int]:
        draining = self.problem.server_draining
        targets = [target for target in self._sample_targets(replica, src)
                   if not draining[target]]
        for fitting in self._fitting:
            targets = fitting(replica, targets)
        result.evaluations += len(targets)
        higher_evals = (self._higher_evals_post_fits
                        if min(self.problem.loads[replica]) >= 0.0
                        else self._higher_evals)
        for move_deltas in higher_evals:
            # Never deteriorate already-solved batches.
            targets = [target for target, delta
                       in zip(targets, move_deltas(replica, src, targets))
                       if not delta > 1e-9]
        totals = [0.0] * len(targets)
        for weight, move_deltas in self._batch_evals:
            totals = [total + weight * delta for total, delta
                      in zip(totals, move_deltas(replica, src, targets))]
        best_delta = -1e-9
        best_target: Optional[int] = None
        for target, delta in zip(targets, totals):
            if delta < best_delta:
                best_delta = delta
                best_target = target
        return best_target

    def _fits(self, replica: int, target: int) -> bool:
        return all(goal.fits(replica, target) for goal in self.capacity_goals)

    # -- applying moves ---------------------------------------------------------------

    def _move(self, replica: int, src: int, dst: int) -> None:
        """Reassign one replica, tell every goal, remember where it began."""
        self._origin.setdefault(replica, src)
        self.problem.move(replica, dst)
        for goal in self.goals:
            goal.on_move(replica, src, dst)

    # -- swaps -------------------------------------------------------------------------

    def _try_swap(self, hot: int, hot_replica: int, batch: List[Goal],
                  higher: List[Goal], result: SolveResult) -> bool:
        """Two-way swap: big replica off the hot server, small one back.

        Tried only when no single move improves ("in addition to moving
        individual shards, it may consider two-way (or n-way) swapping of
        shards", §5.3).
        """
        problem = self.problem
        total_load = problem.replica_total_load
        for cold in self._sample_targets(hot_replica, hot)[:6]:
            cold_replicas = [r for r in problem.replicas_on[cold]
                             if not problem.replica_pinned[r]]
            if not cold_replicas:
                continue
            cold_replica = min(cold_replicas, key=total_load.__getitem__)
            if cold_replica == hot_replica:
                continue
            ok = True
            for goal in higher:
                combined = (goal.move_delta(hot_replica, hot, cold)
                            + goal.move_delta(cold_replica, cold, hot))
                if combined > 1e-9:
                    ok = False
                    break
            if not ok:
                continue
            delta = 0.0
            for goal in batch:
                delta += goal.weight * (
                    goal.move_delta(hot_replica, hot, cold)
                    + goal.move_delta(cold_replica, cold, hot))
            if delta >= -1e-9:
                continue
            # Capacity check for the pair (approximate: apply out first).
            if not self._fits(hot_replica, cold):
                continue
            self._move(hot_replica, hot, cold)
            if not self._fits(cold_replica, hot):
                # Roll back: the swap-in does not fit after all.
                self._move(hot_replica, cold, hot)
                continue
            self._move(cold_replica, cold, hot)
            result.swaps += 1
            return True
        return False
