"""Unplanned-failure injection.

Planned events (maintenance windows, upgrades) are first-class citizens
of the cluster manager (``repro.cluster.twine``); unplanned failures are
injected here.

The injector coordinates with the cluster layer instead of firing
blindly: an optional ``down_check`` lets it defer crashes aimed at a
target that is already down (under maintenance, or crashed by another
injector), so a timed repair can never resurrect a machine in the middle
of someone else's maintenance window.  With a ``tracer`` attached every
injected fault and its recovery land on the ``chaos`` journal track,
which is what :meth:`repro.obs.checker.TraceChecker.check_fault_recovery`
audits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Generic, Hashable, List, Optional, TypeVar

from ..obs.tracer import NO_TRACER, Tracer
from .engine import Engine

T = TypeVar("T", bound=Hashable)


@dataclass
class FailureRecord:
    """One injected crash, for post-hoc analysis."""

    target: object
    fail_time: float
    repair_time: Optional[float] = None


@dataclass
class CrashInjector(Generic[T]):
    """Poisson-process crash/repair injector over a set of targets.

    Each target independently fails with exponential inter-failure times of
    mean ``mtbf`` seconds and recovers after ``repair_time`` seconds.  The
    callbacks receive the target; the cluster layer maps them onto machine
    downs/ups.

    ``down_check`` (when given) is consulted before each crash fires: if
    the target is already down the crash is *deferred* — no record, no
    callbacks — and the next failure is drawn as usual.  Without it a
    crash could land on a machine mid-maintenance and its timed repair
    would then bring the machine back up inside the maintenance window.

    ``stop()`` prevents *new* failures but lets in-flight repairs finish:
    a target that is down when the injector stops still comes back up and
    its record still gets a ``repair_time``.  (Failures whose crash has
    not fired yet are dropped entirely.)
    """

    engine: Engine
    rng: random.Random
    mtbf: float
    repair_time: float
    on_fail: Callable[[T], None]
    on_repair: Callable[[T], None]
    down_check: Optional[Callable[[T], bool]] = None
    tracer: Tracer = NO_TRACER
    records: List[FailureRecord] = field(default_factory=list)
    _stopped: bool = False
    _fault_counter: int = 0

    def start(self, targets: List[T]) -> None:
        if self.mtbf <= 0:
            raise ValueError(f"mtbf must be positive, got {self.mtbf!r}")
        for target in targets:
            self._schedule_failure(target)

    def stop(self) -> None:
        self._stopped = True

    def _schedule_failure(self, target: T) -> None:
        delay = self.rng.expovariate(1.0 / self.mtbf)
        self.engine.call_after(delay, lambda: self._fail(target))

    def _fail(self, target: T) -> None:
        if self._stopped:
            return
        if self.down_check is not None and self.down_check(target):
            # Target already down (maintenance window, another injector):
            # defer — drawing a fresh inter-failure gap keeps the process
            # memoryless and our repair timer away from their window.
            if self.tracer.enabled:
                self.tracer.instant("chaos", "crash_deferred",
                                    args={"target": str(target)})
            self._schedule_failure(target)
            return
        record = FailureRecord(target=target, fail_time=self.engine.now)
        self.records.append(record)
        self._fault_counter += 1
        fault = f"crash:{target}:{self._fault_counter}"
        if self.tracer.enabled:
            self.tracer.instant("chaos", "fault",
                                args={"fault": fault, "kind": "crash",
                                      "target": str(target)})
        self.on_fail(target)
        self.engine.call_after(
            self.repair_time, lambda: self._repair(target, record, fault))

    def _repair(self, target: T, record: FailureRecord, fault: str) -> None:
        # Deliberately *not* gated on _stopped: a stopped injector must
        # still complete repairs it already owes, or the target is
        # stranded down with a ``repair_time=None`` record.
        record.repair_time = self.engine.now
        if self.tracer.enabled:
            self.tracer.instant("chaos", "recover",
                                args={"fault": fault, "kind": "crash",
                                      "target": str(target)})
        self.on_repair(target)
        if not self._stopped:
            self._schedule_failure(target)
