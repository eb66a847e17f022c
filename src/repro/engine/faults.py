"""Deterministic fault injection for the evaluation engine.

The engine claims a graceful-degradation ladder: a rule whose kernel
cannot compile falls back to the plan interpreter, an engine whose
index build fails falls back to full scans, a stratum whose SCC
scheduling fails falls back to the monolithic loop, and a parallel
batch whose worker dies falls back to sequential execution.  Each of
those paths is reachable in principle but almost never taken in
practice — which is exactly how fallback code rots.  A
:class:`FaultPlan` makes every rung of the ladder *fire on demand*,
deterministically, so the fallbacks are tested continuously instead of
trusted.

Faults are declarative (a frozen plan attached to
:class:`~repro.engine.evaluator.EngineOptions`) and stateful injection
bookkeeping lives in a per-run :class:`FaultInjector`, so the same
options object can be reused across evaluations and each run sees the
plan fresh.  One-shot faults (worker death) fire exactly once per run;
persistent faults (kernel compile, index build) fire every time their
site is reached.

Fault kinds and the degradation they exercise:

``kernel-compile[:pred]``
    Kernel compilation "fails" for rules heading *pred* (every rule
    without the suffix) — the engine must fall back to the plan
    interpreter per rule (**kernel → interpreter**).
``index-build``
    Hash-index construction "fails" at engine start — the run degrades
    to full-scan probing (**index → scan**).
``scheduler``
    SCC scheduling fails before any unit runs — the evaluator falls
    back to the monolithic per-stratum loop (**SCC → monolithic**).
    During incremental maintenance the same fault instead fails the
    seeded delta scheduler, and the batch recomputes the affected cone
    from its initial rows (**incremental → recompute**).
``worker-death:N``
    The N-th scheduled evaluation unit (0-based, scheduling order)
    dies once with :class:`WorkerDeath`; the scheduler re-runs the
    unit sequentially (**parallel → sequential**).
``unit-error:N``
    The N-th scheduled unit raises a genuine
    :class:`InjectedUnitError` mid-unit.  *Not* recoverable: the
    original exception must surface to the caller (with per-unit stats
    already merged), never a deadlock or a swallowed future.
``slow-unit:N[:SECONDS]``
    The N-th scheduled unit sleeps at its start and at every iteration
    boundary — a deterministic way to make a deadline fire inside a
    chosen unit.
``wal-crash:POINT[:SEQ]``
    Simulated process death at a chosen durability crash point
    (:mod:`repro.engine.durability`): the injector performs exactly the
    disk damage a real crash at that point leaves behind, then raises
    :class:`WalCrash`, which the session deliberately does **not**
    catch — the "process" is dead, and the test recovers from the
    files.  POINT is ``before-append`` (nothing written),
    ``after-append`` (record durable, in-memory apply never ran),
    ``torn-record`` (a half-written final record), ``mid-snapshot`` (a
    partial snapshot temp file, never renamed) or
    ``truncated-snapshot`` (a renamed snapshot with its tail cut off).
    SEQ pins the crash to one WAL batch sequence number; without it the
    first reached site fires.

The soundness contract (asserted by ``tests/oracle/test_faults.py``):
under any fault plan a run either returns the exact un-faulted answer
set, a flagged partial subset, or a structured error — never a
silently wrong answer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from ..datalog.errors import EvaluationError

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "WorkerDeath",
    "SchedulerFault",
    "InjectedUnitError",
    "WalCrash",
    "WAL_CRASH_POINTS",
    "parse_fault_specs",
]

#: the durability crash points ``wal-crash`` can simulate (see the
#: module docstring and :mod:`repro.engine.durability`)
WAL_CRASH_POINTS = frozenset(
    {
        "before-append",
        "after-append",
        "torn-record",
        "mid-snapshot",
        "truncated-snapshot",
    }
)


class InjectedFault(EvaluationError):
    """Base class for exceptions raised by deterministic fault
    injection.  Subclasses mark which degradation rung handles them."""


class WorkerDeath(InjectedFault):
    """A scheduled evaluation unit "died" (simulated worker-thread
    death).  Recoverable: the scheduler re-runs the unit sequentially
    and records a ``parallel->sequential`` degradation."""


class SchedulerFault(InjectedFault):
    """SCC scheduling failed before any unit ran.  Recoverable: the
    evaluator re-runs the strata through the monolithic loop and
    records an ``scc->monolithic`` degradation."""


class WalCrash(InjectedFault):
    """Simulated process death at a durability crash point.  *Not*
    recoverable in-process: the session lets it propagate with the
    batch half-done, exactly like a real kill, and correctness is
    re-established by :func:`repro.engine.recovery.recover` from the
    on-disk WAL and snapshots."""


class InjectedUnitError(RuntimeError):
    """A genuine (non-recoverable) error raised inside an evaluation
    unit.  Deliberately *not* an :class:`~repro.datalog.errors.ReproError`:
    nothing in the engine may catch it — it must surface verbatim."""


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, deterministic set of faults for one evaluation.

    All fields default to "no fault"; combine freely.  Unit ordinals
    count scheduled unit *executions* in scheduling order (depth, then
    SCC index), starting at 0.
    """

    #: head predicates whose kernel compilation fails ("*" = every rule)
    kernel_compile: frozenset[str] = frozenset()
    #: hash-index construction fails; the run degrades to full scans
    index_build: bool = False
    #: SCC scheduling fails at startup; fall back to the monolithic loop
    scheduler: bool = False
    #: ordinal of the unit that dies once with :class:`WorkerDeath`
    worker_death: Optional[int] = None
    #: ordinal of the unit that raises :class:`InjectedUnitError`
    unit_error: Optional[int] = None
    #: ordinal of the unit slowed by ``slow_s`` per boundary
    slow_unit: Optional[int] = None
    #: sleep per boundary for ``slow_unit`` (seconds)
    slow_s: float = 0.05
    #: durability crash point (one of :data:`WAL_CRASH_POINTS`), fired
    #: once per run as :class:`WalCrash` after the simulated damage
    wal_crash: Optional[str] = None
    #: WAL batch sequence number the crash is pinned to (None = the
    #: first site reached)
    wal_crash_seq: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "kernel_compile", frozenset(self.kernel_compile))
        if self.slow_s < 0:
            raise ValueError(f"slow_s must be >= 0, got {self.slow_s}")
        if self.wal_crash is not None and self.wal_crash not in WAL_CRASH_POINTS:
            raise ValueError(
                f"unknown wal-crash point {self.wal_crash!r}; expected one "
                f"of {sorted(WAL_CRASH_POINTS)}"
            )

    def any(self) -> bool:
        """True iff at least one fault is armed."""
        return bool(
            self.kernel_compile
            or self.index_build
            or self.scheduler
            or self.worker_death is not None
            or self.unit_error is not None
            or self.slow_unit is not None
            or self.wal_crash is not None
        )


def parse_fault_specs(specs: Iterable[str]) -> FaultPlan:
    """Build a :class:`FaultPlan` from CLI ``--inject-fault`` specs.

    Accepted forms: ``kernel-compile``,
    ``kernel-compile:PRED``, ``index-build``, ``scheduler``,
    ``worker-death:N``, ``unit-error:N``, ``slow-unit:N``,
    ``slow-unit:N:SECONDS``, ``wal-crash:POINT`` and
    ``wal-crash:POINT:SEQ``.  Specs merge left to right into one plan.
    """
    plan = FaultPlan()
    for spec in specs:
        kind, _, rest = spec.partition(":")
        try:
            if kind == "wal-crash":
                point, _, seq = rest.partition(":")
                if point not in WAL_CRASH_POINTS:
                    raise ValueError
                plan = replace(plan, wal_crash=point)
                if seq:
                    plan = replace(plan, wal_crash_seq=int(seq))
            elif kind == "kernel-compile":
                plan = replace(
                    plan,
                    kernel_compile=plan.kernel_compile | {rest or "*"},
                )
            elif kind == "index-build" and not rest:
                plan = replace(plan, index_build=True)
            elif kind == "scheduler" and not rest:
                plan = replace(plan, scheduler=True)
            elif kind == "worker-death":
                plan = replace(plan, worker_death=int(rest))
            elif kind == "unit-error":
                plan = replace(plan, unit_error=int(rest))
            elif kind == "slow-unit":
                ordinal, _, seconds = rest.partition(":")
                plan = replace(plan, slow_unit=int(ordinal))
                if seconds:
                    plan = replace(plan, slow_s=float(seconds))
            else:
                raise ValueError
        except ValueError:
            raise EvaluationError(
                f"unknown fault spec {spec!r}; expected "
                f"kernel-compile[:pred], index-build, scheduler, "
                f"worker-death:N, unit-error:N, slow-unit:N[:seconds], "
                f"or wal-crash:POINT[:seq] with POINT one of "
                f"{sorted(WAL_CRASH_POINTS)}"
            ) from None
    return plan


class FaultInjector:
    """Per-run injection state for one :class:`FaultPlan`.

    Thread-safe: parallel evaluation units consult the same injector,
    and one-shot faults fire in exactly one of them.  Degradations are
    recorded at most once per ``(kind, key)`` so counters stay small
    and deterministic.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._fired: set = set()

    def _once(self, key) -> bool:
        """True the first time *key* is seen, False afterwards."""
        with self._lock:
            if key in self._fired:
                return False
            self._fired.add(key)
            return True

    # -- injection sites -----------------------------------------------------

    def kernel_compile_fails(self, head_predicate: str) -> bool:
        """Should the kernel for a rule heading *head_predicate* fail?"""
        kc = self.plan.kernel_compile
        return bool(kc) and ("*" in kc or head_predicate in kc)

    def index_build_fails(self) -> bool:
        return self.plan.index_build

    def scheduler_fails(self) -> bool:
        return self.plan.scheduler

    def maybe_kill_unit(self, ordinal: int, label: str) -> None:
        """Raise the armed per-unit fault for *ordinal*, at most once."""
        if self.plan.worker_death == ordinal and self._once(("death", ordinal)):
            raise WorkerDeath(
                f"injected worker death in unit {ordinal} ({label})"
            )

    def maybe_unit_error(self, ordinal: int, label: str) -> None:
        if self.plan.unit_error == ordinal and self._once(("error", ordinal)):
            raise InjectedUnitError(
                f"injected unit error in unit {ordinal} ({label})"
            )

    def slow_down(self, ordinal: Optional[int]) -> None:
        """Sleep if *ordinal* is the plan's slow unit (every boundary)."""
        if ordinal is not None and self.plan.slow_unit == ordinal:
            time.sleep(self.plan.slow_s)

    def wal_crash_fires(self, point: str, seq: int) -> bool:
        """Should the durability layer simulate a crash at *point* for
        WAL batch *seq*?  Fires at most once per injector (the process
        only dies once); the caller performs the simulated disk damage
        and raises :class:`WalCrash`."""
        plan = self.plan
        if plan.wal_crash != point:
            return False
        if plan.wal_crash_seq is not None and plan.wal_crash_seq != seq:
            return False
        return self._once(("wal-crash",))

    # -- bookkeeping ---------------------------------------------------------

    def record(self, stats, degradation: str, key=None) -> None:
        """Count one injected fault and its degradation, once per
        ``(degradation, key)``; *stats* may be a unit-private fragment —
        dict counters merge at the scheduler's barrier."""
        if self._once(("record", degradation, key)):
            stats.faults_injected += 1
            stats.degradations[degradation] = (
                stats.degradations.get(degradation, 0) + 1
            )
