"""The resource governor: budgets, deadlines, cooperative cancellation.

Detection of existential arguments is undecidable (paper, Lemma 2.1),
so there is no static guard against pathological fixpoints: adversarial
programs and databases can always construct evaluations that are
correct but unaffordable.  A production engine therefore needs dynamic
limits with *structured* failure — stop cleanly, say why, and hand back
whatever partial state is sound — instead of hanging or exhausting
memory.

The :class:`Governor` enforces, cooperatively:

``deadline_s``
    A wall-clock budget for the whole evaluation.  Checked at
    iteration boundaries (windowed — the full check runs once per
    ``_ITER_WINDOW`` rounds on the fast path), every per-unit
    boundary, and between rule firings (the
    :func:`~repro.engine.scheduler._fire` entry; decimated to every
    fourth firing to keep the checkpoint cheap), so a run is cancelled
    within a few rule firings of the deadline.
``max_facts``
    A global budget on facts derived.  Enforced at the same
    checkpoints; a run may overshoot by at most a few rule firings'
    worth of facts past the limit before the trip.
``max_delta_rows``
    A global budget on rows entering semi-naive delta frontiers — a
    proxy for the total work recursion has enqueued, which trips
    earlier than ``max_facts`` on programs whose rounds grow
    geometrically.
``max_iterations``
    One **global** bound on fixpoint rounds across the whole run (the
    sum of every unit's rounds under SCC scheduling, identical to the
    monolithic count by construction).  Historically this bound was
    per-unit under SCC scheduling and global under the monolithic
    loop; the governor owns the unified global semantics.
``max_unit_iterations``
    The per-unit knob the old behaviour turned into: bounds the rounds
    of any single evaluation unit (the monolithic loop counts as one
    unit per stratum).

Limits are *cooperative*: the fixpoint loops call the governor at
round, unit, and rule boundaries; the governor never interrupts a
single join mid-flight.  When any thread trips a limit, a shared
cancellation flag makes every other unit abort at its next checkpoint,
and the scheduler merges whatever per-unit statistics were produced
before converting the trip into the configured ``on_limit`` policy:

``"raise"``
    :class:`ResourceExhausted` — an
    :class:`~repro.datalog.errors.EvaluationError` carrying the partial
    :class:`~repro.engine.statistics.EvalStats`, the offending unit
    label, and the stratum index.
``"partial"``
    A best-effort :class:`~repro.engine.evaluator.EvalResult` with
    ``stats.aborted_reason`` set; its answers are a sound **lower
    bound** (bottom-up evaluation only ever adds facts, so every
    derived fact is a true consequence — the run merely stopped before
    deriving all of them).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from ..datalog.errors import EvaluationError
from .faults import FaultInjector

__all__ = ["Governor", "Guard", "ResourceExhausted", "BudgetExceeded"]


class ResourceExhausted(EvaluationError):
    """A governed evaluation hit one of its resource limits.

    ``reason`` is the limit that tripped (``"deadline"``,
    ``"max_facts"``, ``"max_delta_rows"``, ``"max_iterations"``,
    ``"max_unit_iterations"``); ``stats`` the partial
    :class:`~repro.engine.statistics.EvalStats` at abort (fact counts
    finalized); ``unit`` the label of the evaluation unit that tripped
    the limit (None under the monolithic loop); ``stratum`` the index
    of the stratum being evaluated.
    """

    def __init__(
        self,
        reason: str,
        *,
        stats=None,
        unit: Optional[str] = None,
        stratum: Optional[int] = None,
    ):
        self.reason = reason
        self.stats = stats
        self.unit = unit
        self.stratum = stratum
        where = f" in unit {unit!r}" if unit else ""
        where += f" (stratum {stratum})" if stratum is not None else ""
        super().__init__(f"ResourceExhausted: {reason} limit hit{where}")


class BudgetExceeded(Exception):
    """Internal control-flow signal raised at a governor checkpoint.

    Never escapes :func:`~repro.engine.evaluator.evaluate`, which
    converts it into :class:`ResourceExhausted` or a flagged partial
    result per ``EngineOptions.on_limit``.  Carries the trip context so
    the conversion can say *where* the limit hit.
    """

    def __init__(self, reason: str, unit: Optional[str] = None):
        self.reason = reason
        self.unit = unit
        self.stratum: Optional[int] = None
        super().__init__(reason)


class Governor:
    """Shared, thread-safe budget accounting for one evaluation run.

    Constructed once per :func:`~repro.engine.evaluator.evaluate` call
    from the options' limits and fault plan.  When no limit is set and
    no fault armed, ``enabled`` is False and every checkpoint is a
    single attribute test — the governed engine costs nothing unless
    governing was requested (the <3% overhead claim in EXPERIMENTS.md
    is measured with limits *set but not hit*, the expensive case).
    """

    __slots__ = (
        "deadline",
        "max_facts",
        "max_delta_rows",
        "max_iterations",
        "max_unit_iterations",
        "injector",
        "enabled",
        "_clock",
        "_lock",
        "_iterations",
        "_facts",
        "_delta_rows",
        "_published",
        "_iter_published",
        "_cancelled",
    )

    def __init__(self, opts, injector: Optional[FaultInjector] = None, *, clock=time.monotonic):
        self._clock = clock
        self.deadline = (
            None if opts.deadline_s is None else clock() + opts.deadline_s
        )
        self.max_facts = opts.max_facts
        self.max_delta_rows = opts.max_delta_rows
        self.max_iterations = opts.max_iterations
        self.max_unit_iterations = opts.max_unit_iterations
        self.injector = injector
        self.enabled = injector is not None or any(
            limit is not None
            for limit in (
                self.deadline,
                self.max_facts,
                self.max_delta_rows,
                self.max_iterations,
                self.max_unit_iterations,
            )
        )
        self._lock = threading.Lock()
        self._iterations = 0
        self._facts = 0
        self._delta_rows = 0
        #: id(stats) -> facts_derived already folded into the global
        #: count, so per-unit fragments publish increments, not totals;
        #: entries are popped by :meth:`flush` when a fragment retires
        #: (id() values may be reused by later fragments)
        self._published: dict[int, int] = {}
        #: id(stats) -> iterations already folded into the global count
        self._iter_published: dict[int, int] = {}
        self._cancelled: Optional[str] = None

    def guard(self, *, unit=None, ordinal: Optional[int] = None) -> "Guard":
        """A per-unit (or per-stratum, for the monolithic loop) view."""
        return Guard(self, unit, ordinal)

    # -- accounting (all called with self.enabled known True) ---------------

    def _trip(self, reason: str, unit: Optional[str]) -> None:
        with self._lock:
            if self._cancelled is None:
                self._cancelled = reason
        raise BudgetExceeded(reason, unit)

    def _publish_and_check_facts(self, stats, unit: Optional[str]) -> None:
        """Fold this fragment's fact count into the global total (under
        the lock) and trip ``max_facts`` on the exact value."""
        key = id(stats)
        with self._lock:
            seen = self._published.get(key, 0)
            self._facts += stats.facts_derived - seen
            self._published[key] = stats.facts_derived
            over = self._facts > self.max_facts
        if over:
            self._trip("max_facts", unit)

    def _check_shared(self, stats, unit: Optional[str]) -> None:
        """The checks every checkpoint performs: cross-thread
        cancellation, the deadline, and the global fact budget.

        Lock-free on the no-trip path: the fact-budget test uses this
        fragment's exact local count plus the other fragments' counts
        as of their last publish (an iteration boundary, so at most one
        round stale — within the documented overshoot slack).  Only
        when that estimate crosses the limit does the slow path take
        the lock, fold in the exact count, and re-check, so the trip
        point itself is exact and deterministic for sequential runs.
        """
        stats.governor_checks += 1
        cancelled = self._cancelled
        if cancelled is not None:
            raise BudgetExceeded(cancelled, unit)
        deadline = self.deadline
        if deadline is not None and self._clock() > deadline:
            self._trip("deadline", unit)
        max_facts = self.max_facts
        if max_facts is not None:
            local = stats.facts_derived
            others = self._facts - self._published.get(id(stats), 0)
            if others + local > max_facts:
                self._publish_and_check_facts(stats, unit)

    def iteration_slow(self, stats, unit: Optional[str], ordinal: Optional[int]) -> int:
        """The full iteration-boundary check (:meth:`Guard.iteration`
        is the entry point; it skips this for rounds inside the fast
        window this method returns).

        Performs every round-granularity check — injector hooks, the
        deadline clock, the exact per-unit round bound, the global
        round bound, and the fact-budget estimate — then computes the
        next local round number that needs a full check: the smallest
        of a fixed stride (``_ITER_WINDOW``: bounds deadline latency on
        fire-free rounds and cross-thread staleness), the per-unit
        bound, and the exact remaining global-round headroom.  The
        headroom term is what keeps sequential trip points *exact*:
        with a single live fragment the published global count is
        exact, so the window lands the next full check precisely on the
        first violating round.  Under parallelism sibling fragments may
        consume headroom concurrently, so a trip can be observed up to
        a window late — the same stride-staleness slack the fact budget
        documents.  With an injector armed the window collapses to 0 so
        per-round hooks (``slow-unit``) fire deterministically.
        """
        if self.injector is not None:
            self.injector.slow_down(ordinal)
        stats.governor_checks += 1
        cancelled = self._cancelled
        if cancelled is not None:
            raise BudgetExceeded(cancelled, unit)
        deadline = self.deadline
        if deadline is not None and self._clock() > deadline:
            self._trip("deadline", unit)
        local_iters = stats.iterations
        unit_limit = self.max_unit_iterations
        if unit_limit is not None and local_iters > unit_limit:
            self._trip("max_unit_iterations", unit)
        key = id(stats)
        window = local_iters + _ITER_WINDOW
        if unit_limit is not None:
            window = min(window, unit_limit + 1)
        limit = self.max_iterations
        if limit is not None:
            # publish the exact local count and check the global bound
            # under the lock; finished fragments are fully flushed (see
            # :meth:`flush`), so sequentially the total is exact
            with self._lock:
                self._iterations += (
                    local_iters - self._iter_published.get(key, 0)
                )
                self._iter_published[key] = local_iters
                total = self._iterations
            if total > limit:
                self._trip("max_iterations", unit)
            window = min(window, local_iters + (limit - total) + 1)
        max_facts = self.max_facts
        if max_facts is not None:
            local = stats.facts_derived
            seen = self._published.get(key, 0)
            if self._facts - seen + local > max_facts:
                self._publish_and_check_facts(stats, unit)
            elif local - seen >= _FACT_STRIDE:
                # publish only every ``_FACT_STRIDE`` new local facts,
                # so steady-state rounds stay lock-free (cross-thread
                # estimates are stale by at most the stride per
                # fragment; the exact re-check in the slow path still
                # makes the trip point deterministic)
                with self._lock:
                    self._facts += local - self._published.get(key, 0)
                    self._published[key] = local
        if self.injector is not None:
            return 0
        return window

    def checkpoint(self, stats, unit: Optional[str], ordinal: Optional[int]) -> None:
        """A rule firing is starting (between-rules boundary)."""
        if not self.enabled:
            return
        if self.injector is not None and ordinal is not None:
            self.injector.maybe_unit_error(ordinal, unit or "?")
        self._check_shared(stats, unit)

    def unit_boundary(self, stats, unit: Optional[str], ordinal: Optional[int]) -> None:
        """An evaluation unit is starting (per-unit boundary)."""
        if not self.enabled:
            return
        if self.injector is not None and ordinal is not None:
            self.injector.slow_down(ordinal)
            self.injector.maybe_kill_unit(ordinal, unit or "?")
        self._check_shared(stats, unit)

    def flush(self, stats) -> None:
        """Fold a retiring fragment's counters into the shared totals
        and drop its publish bookkeeping.

        Called when an evaluation unit finishes (success or failure).
        Two jobs: the unflushed tail of the fragment's facts and rounds
        becomes visible to every other thread's lock-free estimate, and
        the ``id(stats)`` keys are forgotten — the object may be freed
        and its id reused by a later fragment, which must start from a
        clean slate, not a dead fragment's publish history.
        """
        if not self.enabled:
            return
        key = id(stats)
        with self._lock:
            self._facts += stats.facts_derived - self._published.pop(key, 0)
            self._iterations += (
                stats.iterations - self._iter_published.pop(key, 0)
            )

    def note_delta(self, stats, rows: int, unit: Optional[str]) -> None:
        """*rows* new frontier rows entered a semi-naive delta.

        (Unbuffered; the hot loops go through :meth:`Guard.note_delta`,
        which batches small rounds before taking the lock.)"""
        if not self.enabled or self.max_delta_rows is None:
            return
        with self._lock:
            self._delta_rows += rows
            over = self._delta_rows > self.max_delta_rows
        if over:
            self._trip("max_delta_rows", unit)


#: publish a fragment's fact count to the shared total once per this
#: many new local facts (when no global round counter forces a per-round
#: lock anyway) — bounds both the locking rate and the cross-thread
#: staleness of the lock-free budget estimates
_FACT_STRIDE = 256

#: flush a guard's buffered delta-row count to the shared total once it
#: reaches this many rows; below it, rounds cost one addition
_DELTA_STRIDE = 1024

#: upper bound on how many fixpoint rounds may pass between full
#: iteration-boundary checks (the fast window
#: :meth:`Governor.iteration_slow` returns) — bounds deadline latency
#: across fire-free rounds and the staleness of the global round count
#: under parallelism; rounds that fire rules are additionally covered
#: by the between-rules checkpoint
_ITER_WINDOW = 8


class Guard:
    """A :class:`Governor` bound to one unit's identity.

    The fixpoint loops receive a guard instead of the raw governor so
    every checkpoint automatically carries the unit label and scheduling
    ordinal that :class:`ResourceExhausted` reports.  The guard also
    owns the per-unit delta-row buffer, so per-round bookkeeping is
    thread-local and lock-free until a stride's worth accumulates.
    """

    __slots__ = (
        "governor", "unit", "ordinal",
        "_delta_pending", "_ticks", "_fast_until", "_last_facts",
    )

    def __init__(self, governor: Governor, unit: Optional[str], ordinal: Optional[int]):
        self.governor = governor
        self.unit = unit
        self.ordinal = ordinal
        self._delta_pending = 0
        self._ticks = 0
        #: the first local round number that needs a full check; 0
        #: forces the slow path on the very first round so zero
        #: deadlines and zero budgets trip before any work happens
        self._fast_until = 0
        #: ``stats.facts_derived`` as of the previous semi-naive round
        #: boundary — the diff is exactly the rows entering this
        #: round's delta frontier (every new fact enters it once), so
        #: the delta-row budget costs one subtraction per round instead
        #: of a sum over the frontier
        self._last_facts = 0

    def iteration(self, stats, delta: Optional[dict] = None) -> None:
        """One fixpoint round is starting.  A semi-naive loop passes
        *delta* (its frontier) on every round after the first; when the
        delta-row budget is armed, the rows entering that frontier —
        computable as the facts derived since the previous boundary —
        are folded into the buffered accounting in the same call.

        Most rounds take the fast path: one counter increment, one
        bounds compare, one read of the cancellation flag.  The full
        check (:meth:`Governor.iteration_slow`) runs only when the
        precomputed window expires — sized so every budget still trips
        at its exact sequential round (see ``iteration_slow``)."""
        g = self.governor
        stats.iterations += 1
        if not g.enabled:
            return
        limit = g.max_delta_rows
        if limit is not None:
            local = stats.facts_derived
            if delta is None:
                # a loop is (re)starting: snapshot, so facts derived
                # outside semi-naive rounds never count as delta rows
                self._last_facts = local
            else:
                # :meth:`note_delta`'s buffered path, inlined: one
                # unlocked addition per round unless a stride fills or
                # the unlocked estimate says the budget may trip
                pending = self._delta_pending + (local - self._last_facts)
                self._last_facts = local
                if g._delta_rows + pending > limit or pending >= _DELTA_STRIDE:
                    self._delta_pending = 0
                    g.note_delta(stats, pending, self.unit)
                else:
                    self._delta_pending = pending
        if stats.iterations < self._fast_until:
            cancelled = g._cancelled
            if cancelled is None:
                return
            raise BudgetExceeded(cancelled, self.unit)
        self._fast_until = g.iteration_slow(stats, self.unit, self.ordinal)

    def checkpoint(self, stats) -> None:
        """The between-rules boundary, decimated: every call observes
        the cross-thread cancellation flag (aborts stay prompt), but
        the full check — deadline clock, fact-budget estimate — runs on
        every fourth firing.  Budgets are therefore enforced within a
        few rule firings rather than exactly one; every *round* still
        gets a full check at its iteration boundary.  With a fault
        injector armed the decimation is bypassed so injected unit
        errors fire at their exact configured ordinal."""
        g = self.governor
        if not g.enabled:
            return
        if g.injector is None:
            t = self._ticks + 1
            self._ticks = t
            if t & 3:
                cancelled = g._cancelled
                if cancelled is not None:
                    raise BudgetExceeded(cancelled, self.unit)
                return
        g.checkpoint(stats, self.unit, self.ordinal)

    def unit_boundary(self, stats) -> None:
        self.governor.unit_boundary(stats, self.unit, self.ordinal)

    def note_delta(self, stats, rows: int) -> None:
        """Buffered delta-row accounting: one unlocked addition per
        round; the shared counter (and its lock) is touched only when
        the buffer reaches a stride or the unlocked estimate says the
        budget is about to trip — at which point the exact flushed
        count decides, so sequential trip points are deterministic."""
        g = self.governor
        limit = g.max_delta_rows
        if limit is None:
            return
        pending = self._delta_pending + rows
        if g._delta_rows + pending > limit or pending >= _DELTA_STRIDE:
            self._delta_pending = 0
            g.note_delta(stats, pending, self.unit)
        else:
            self._delta_pending = pending

    def finish(self, stats) -> None:
        """The unit is done (successfully or not): flush the buffered
        delta rows and the fragment's counters to the shared totals.
        No trip is raised here — a crossed limit is detected by the
        next checkpoint's estimate, which now sees the flushed tail."""
        g = self.governor
        if not g.enabled:
            return
        if self._delta_pending:
            pending, self._delta_pending = self._delta_pending, 0
            with g._lock:
                g._delta_rows += pending
        g.flush(stats)

    def kernel_fault(self, stats, head_predicate: str) -> bool:
        """True iff an injected fault forbids the kernel for this rule
        (the kernel→interpreter degradation); records the degradation
        once per head predicate."""
        injector = self.governor.injector
        if injector is None or not injector.kernel_compile_fails(head_predicate):
            return False
        injector.record(stats, "kernel->interpreter", head_predicate)
        return True
