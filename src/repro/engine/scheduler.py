"""Fixpoint loops and the SCC-condensation component scheduler.

The paper's Phase 1 (section 3.1, Lemma 3.1) splits rule bodies into
connected components because disconnected boolean subqueries are
*independent* computations: each can be retired the moment it fires.
The evaluation-side counterpart implemented here applies the same idea
to the predicate dependency graph.  Instead of running every
negation-stratum as one monolithic semi-naive fixpoint — where a cheap
non-recursive rule keeps re-entering rounds alongside the most
expensive recursive predicate of its stratum — the stratum's rules are
partitioned into **evaluation units**, one per strongly connected
component of the dependency graph, and the units are scheduled over
the SCC condensation DAG in topological order:

- a **non-recursive** unit (a single predicate that does not depend on
  itself) runs as a single naive pass: all its inputs are complete by
  the time it is scheduled, so one pass reaches its fixpoint;
- a **recursive** unit runs its own semi-naive fixpoint over only its
  member rules, with delta specialization restricted to the unit's own
  predicates (everything else is frozen input);
- units at the same condensation depth have no dependency path between
  them, so they may execute **concurrently** (``EngineOptions.parallel``)
  — each unit writes only its own head relations, reads lower units'
  relations that no longer change, and keeps private statistics merged
  at a per-depth barrier in deterministic unit order;
- **component-local retirement** generalizes the boolean cut: when a
  unit's head predicates are all cut predicates and each has fired,
  the whole unit — not just individual rules — terminates, including
  mid-fixpoint with deltas still pending.

``run_monolithic`` preserves the previous per-stratum loop verbatim
(the CLI's ``--no-scc``); every ``EvalStats`` counter it produces is
bit-identical to the pre-scheduler engine, which keeps it available as
the differential oracle for the scheduler itself.

Both loops are *governed*: they accept a
:class:`~repro.engine.governor.Governor` whose cooperative checkpoints
run at iteration boundaries, per-unit boundaries, and between rule
firings.  With no limits configured the governor is disabled and every
checkpoint is a single attribute test, keeping the ungoverned hot path
unchanged.  Failure handling under scheduling is structured: a unit
that raises — a tripped budget, an injected fault, or a genuine bug —
has its exception *captured*, its partial statistics and provenance
merged at the depth barrier like any other unit's, and the first
failure in deterministic unit order re-raised afterwards (recoverable
:class:`~repro.engine.faults.WorkerDeath` faults are instead retried
sequentially — the parallel→sequential degradation rung).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from ..datalog.analysis import (
    DependencyInfo,
    component_depths,
    condensation,
    is_recursive_component,
)
from ..datalog.builtins import eval_builtin
from ..datalog.database import Database
from ..datalog.terms import Constant
from .cost import AdaptiveReplanner
from .faults import SchedulerFault, WorkerDeath
from .governor import BudgetExceeded, Governor, Guard
from .kernel import rule_kernel
from .plan import CompiledRule, DeltaIndex, match_plan, replan_delta_plans
from .provenance import Justification
from .statistics import EvalStats

__all__ = [
    "EvalUnit",
    "build_units",
    "run_monolithic",
    "run_scheduled",
    "run_seeded_unit",
]


# ---------------------------------------------------------------------------
# rule firing (shared by every loop)
# ---------------------------------------------------------------------------


def _fire(
    cr: CompiledRule,
    plan_id: Optional[int],
    db: Database,
    stats: EvalStats,
    provenance: dict,
    opts,
    added: dict[str, set],
    delta: Optional[DeltaIndex] = None,
    guard: Optional[Guard] = None,
) -> None:
    """Run one plan of one rule, inserting new head facts.

    *plan_id* selects the naive plan (``None``) or the delta plan
    starting at relational literal *plan_id*.  With
    ``opts.use_kernels`` the plan runs as a compiled kernel (built-ins,
    negation, and head construction are inside the kernel body); the
    interpreter below is the fallback and the differential oracle.

    *guard* is the governor's per-unit view: its checkpoint here is
    the between-rules cancellation boundary (deadline / fact budget /
    cross-thread cancel), and it decides the kernel→interpreter
    degradation when a kernel-compile fault is injected.
    """
    head_pred = cr.rule.head.predicate
    rel = db.relation(head_pred)
    assert rel is not None
    if guard is not None:
        guard.checkpoint(stats)
    use_kernels = opts.use_kernels
    if use_kernels and guard is not None and guard.governor.injector is not None:
        use_kernels = not guard.kernel_fault(stats, head_pred)
    if use_kernels:
        kernel = rule_kernel(
            cr,
            plan_id,
            use_indexes=opts.use_indexes,
            record_rows=opts.record_provenance,
        )
        if kernel is not None:
            stats.kernel_launches += 1
            new = added.get(head_pred)
            if opts.record_provenance:
                for values, body_rows in kernel(db, stats, delta):
                    if rel.add(values):
                        stats.facts_derived += 1
                        if new is None:
                            new = added.setdefault(head_pred, set())
                        new.add(values)
                        body = tuple(
                            (atom.predicate, row)
                            for atom, row in zip(cr.relational_body, body_rows)
                        )
                        provenance[(head_pred, values)] = Justification(
                            cr.rule_index, body
                        )
                    else:
                        stats.duplicates += 1
            else:
                for values in kernel(db, stats, delta):
                    if rel.add(values):
                        stats.facts_derived += 1
                        if new is None:
                            new = added.setdefault(head_pred, set())
                        new.add(values)
                    else:
                        stats.duplicates += 1
            return
    plans = cr.plan if plan_id is None else cr.delta_plans[plan_id]
    for subst, body_rows in match_plan(
        plans, db, stats, delta_rows=delta, use_indexes=opts.use_indexes
    ):
        if cr.builtins and not _builtins_hold(cr, subst):
            continue
        if cr.rule.negative and not _negatives_hold(cr, db, subst, stats):
            continue
        stats.rule_firings += 1
        values = cr.head_values(subst)
        if rel.add(values):
            stats.facts_derived += 1
            added.setdefault(head_pred, set()).add(values)
            if opts.record_provenance:
                body = tuple(
                    (atom.predicate, row)
                    for atom, row in zip(cr.relational_body, body_rows)
                )
                provenance[(head_pred, values)] = Justification(cr.rule_index, body)
        else:
            stats.duplicates += 1


def _builtins_hold(cr: CompiledRule, subst: dict) -> bool:
    """Evaluate the rule's comparison built-ins under a complete match."""
    for atom in cr.builtins:
        a, b = (
            t.value if isinstance(t, Constant) else subst[t] for t in atom.args
        )
        if not eval_builtin(atom.predicate, a, b):
            return False
    return True


def _negatives_hold(cr: CompiledRule, db: Database, subst: dict, stats: EvalStats) -> bool:
    """Check the negated literals of a rule under a complete positive
    match.  Safety guarantees every variable is bound; stratification
    guarantees the referenced relation is complete."""
    for atom in cr.rule.negative:
        rel = db.relation(atom.predicate)
        stats.join_probes += 1
        if rel is None:
            continue  # empty relation: the negation holds
        key = tuple(
            a.value if isinstance(a, Constant) else subst[a] for a in atom.args
        )
        if key in rel:
            return False
    return True


class _Retirer:
    """Removes satisfied boolean (cut) rules from the active set.

    Constructed per stratum by the monolithic loop and per *unit* by
    the scheduler.  With *unit_heads* given and all of them cut
    predicates, :meth:`unit_satisfied` reports when the whole unit is
    complete (every head boolean has fired) — the component-local
    generalization of rule retirement.  Rule retirements are counted at
    most once per rule, so mid-loop filtering and end-of-unit
    retirement compose without double counting.
    """

    def __init__(
        self,
        cut_predicates: frozenset[str],
        stats: EvalStats,
        unit_heads: Optional[frozenset[str]] = None,
    ):
        self._cut = cut_predicates
        self._stats = stats
        self._retired_ids: set[int] = set()
        self._unit_heads = unit_heads
        self._unit_cut = bool(unit_heads) and unit_heads <= cut_predicates

    def filter(self, rules: list[CompiledRule], db: Database) -> list[CompiledRule]:
        if not self._cut:
            return rules
        keep = []
        for cr in rules:
            head = cr.rule.head.predicate
            if head in self._cut and db.rows(head):
                self._mark(cr)
            else:
                keep.append(cr)
        return keep

    def unit_satisfied(self, db: Database) -> bool:
        """True iff this retirer guards a unit whose head predicates are
        all cut predicates and every one of them has fired — the unit's
        relations are then complete and the unit can stop mid-fixpoint."""
        if not self._unit_cut:
            return False
        return all(db.rows(h) for h in self._unit_heads)

    def retire_all(self, rules) -> None:
        """Mark every rule of a satisfied cut unit as retired (idempotent)."""
        for cr in rules:
            self._mark(cr)

    def _mark(self, cr: CompiledRule) -> None:
        if id(cr) not in self._retired_ids:
            self._retired_ids.add(id(cr))
            self._stats.rules_retired += 1


# ---------------------------------------------------------------------------
# fixpoint loops
# ---------------------------------------------------------------------------


def _naive_loop(active, db, stats, provenance, opts, retire, guard) -> None:
    while True:
        guard.iteration(stats)
        added: dict[str, set] = {}
        for cr in active:
            _fire(cr, None, db, stats, provenance, opts, added, guard=guard)
        active = retire.filter(active, db)
        if not any(added.values()):
            return
        if retire.unit_satisfied(db):
            # component-local cut: the unit's booleans are all true, so
            # its relations are complete even though the last round
            # still derived facts
            stats.unit_early_exits += 1
            return


def _seminaive_loop(
    active, db, stats, provenance, opts, retire, guard,
    recursive: Optional[frozenset] = None,
    replan_rounds: int = 0,
) -> None:
    # Specialize each rule once per *recursive* literal — a body
    # position whose predicate can still change while this loop runs.
    # The monolithic stratum loop passes no set and conservatively uses
    # every head predicate of the stratum (including boolean cut rules
    # that may retire later: their facts still arrive as deltas); the
    # component scheduler passes the unit's own SCC members, so
    # literals over sibling components — frozen inputs here — never
    # seed a delta body and the rule is never re-scanned for them.
    if recursive is None:
        recursive = {cr.rule.head.predicate for cr in active}
    specializations = [
        (cr, cr.delta_literals(recursive)) for cr in active
    ]
    replanner = (
        AdaptiveReplanner(replan_rounds, frozenset(recursive))
        if replan_rounds
        else None
    )
    # everything this loop may re-profile: its own writes plus frozen
    # inputs.  Sibling units' relations are excluded — under parallel
    # scheduling they are being written concurrently, and this loop
    # never reads them anyway.
    replan_scope = (
        frozenset(recursive)
        | {a.predicate for cr in active for a in cr.relational_body}
        if replanner is not None
        else frozenset()
    )

    # First round is naive: it also accounts for initial IDB facts,
    # which uniform-equivalence inputs may contain.
    guard.iteration(stats)
    delta: dict[str, set] = {}
    for cr in active:
        _fire(cr, None, db, stats, provenance, opts, delta, guard=guard)
    active = retire.filter(active, db)

    alive = set(map(id, active))
    while any(delta.values()):
        if retire.unit_satisfied(db):
            # component-local cut: deltas are pending but every head
            # boolean of the unit has fired, so further rounds can only
            # rediscover facts nobody will read
            stats.unit_early_exits += 1
            return
        guard.iteration(stats, delta)
        # One shared DeltaIndex per changed predicate: every rule
        # specialization probing that frontier this round reuses the
        # same lazily built position groupings.
        previous = {p: DeltaIndex(rows) for p, rows in delta.items() if rows}
        if replanner is not None:
            # Adaptive replanning: fold this round's true frontier
            # cardinalities into the decayed estimates; every
            # `replan_rounds` rounds, re-rank the delta plans from the
            # grown relations' fresh profiles.  Frontier sizes and
            # stored facts are bit-identical across every execution
            # tier, so all tiers replan identically; join order changes
            # work counters only, never answers or fact counts.
            replanner.observe({p: len(f) for p, f in previous.items()})
            if replanner.overestimate_max > stats.bound_overestimate_max:
                stats.bound_overestimate_max = replanner.overestimate_max
            if replanner.due():
                # None = every profile is still in its last bucket, so
                # the DP would reproduce the current orders; the skip
                # is tier-invariant (sizes only), so counters agree
                model = replanner.model_for(db, replan_scope)
            else:
                model = None
            if model is not None:
                stats.replans += 1
                renewed = [replan_delta_plans(cr, model) for cr in active]
                stats.plans_costed += model.plans_costed
                if any(new is not old for new, old in zip(renewed, active)):
                    active = renewed
                    specializations = [
                        (cr, cr.delta_literals(recursive)) for cr in active
                    ]
                    alive = set(map(id, active))
        delta = {}
        for cr, delta_literals in specializations:
            if id(cr) not in alive:
                continue
            for i, predicate in delta_literals:
                frontier = previous.get(predicate)
                if frontier is None:
                    continue
                _fire(
                    cr,
                    i,
                    db,
                    stats,
                    provenance,
                    opts,
                    delta,
                    delta=frontier,
                    guard=guard,
                )
        active = retire.filter(active, db)
        alive = set(map(id, active))


def _single_pass(active, db, stats, provenance, opts, retire, guard) -> None:
    """One naive pass over a non-recursive unit's rules.

    Every input relation is complete when the unit is scheduled and the
    head predicate does not occur in any of its own bodies, so one pass
    reaches the unit's fixpoint — no delta rounds, no final empty
    verification round, and no ``iterations`` charge: the pass is
    straight-line code outside any fixpoint loop, which is the point of
    scheduling non-recursive rules separately (``max_iterations`` only
    bounds loops that could diverge).  Cut units additionally stop
    between rules once every head boolean has fired (the remaining
    rules are retired unfired).
    """
    added: dict[str, set] = {}
    for fired, cr in enumerate(active):
        if fired and retire.unit_satisfied(db):
            stats.unit_early_exits += 1
            retire.retire_all(active)
            return
        _fire(cr, None, db, stats, provenance, opts, added, guard=guard)


def run_seeded_unit(
    unit: "EvalUnit",
    db: Database,
    stats: EvalStats,
    provenance: dict,
    opts,
    guard: Guard,
    seeds: dict[str, set],
    out: Optional[dict[str, set]] = None,
) -> dict[str, set]:
    """Resume one evaluation unit's fixpoint from a seed frontier.

    This is incremental maintenance's entry point into the semi-naive
    machinery (:mod:`repro.engine.incremental`): *seeds* maps
    predicates to rows that are **already inserted** into *db* but have
    not yet been propagated through this unit's rules.  The first round
    fires every delta specialization whose literal predicate is seeded
    (full relations already contain the new rows, so old–new and
    new–new combinations are both covered); subsequent rounds are the
    unit's ordinary member-delta fixpoint.  A non-recursive unit simply
    has nothing to do after the seeded round.

    Every row added to a head relation is folded into *out* (created if
    None) and returned — the caller's frontier for downstream units.
    Passing the same *out* on a retry after a recoverable fault, with
    the already-added rows merged back into *seeds*, makes the retry
    complete exactly the interrupted pass (re-derivations are
    duplicates, and rows added before the fault re-enter the frontier).

    Seeded runs never replan adaptively: maintenance frontiers are
    typically tiny, and keeping the session's prepared plans fixed
    keeps repeat maintenance passes byte-comparable — the cost planner
    still ordered the plans at prepare time.
    """
    if out is None:
        out = {}
    retire = _Retirer(opts.cut_predicates, stats, unit_heads=unit.heads)
    guard.unit_boundary(stats)
    active = retire.filter(list(unit.rules), db)
    if not active:
        return out

    changed = frozenset(p for p, rows in seeds.items() if rows) | unit.members
    seeded_spec = [(cr, cr.delta_literals(changed)) for cr in active]
    member_spec = {
        id(cr): cr.delta_literals(unit.members) for cr in active
    }

    guard.iteration(stats)
    previous = {p: DeltaIndex(rows) for p, rows in seeds.items() if rows}
    delta: dict[str, set] = {}
    for cr, delta_literals in seeded_spec:
        for i, predicate in delta_literals:
            frontier = previous.get(predicate)
            if frontier is None:
                continue
            _fire(
                cr, i, db, stats, provenance, opts, delta,
                delta=frontier, guard=guard,
            )
    for p, rows in delta.items():
        if rows:
            out.setdefault(p, set()).update(rows)
    active = retire.filter(active, db)
    alive = set(map(id, active))

    while any(delta.values()):
        if retire.unit_satisfied(db):
            stats.unit_early_exits += 1
            break
        guard.iteration(stats, delta)
        previous = {p: DeltaIndex(rows) for p, rows in delta.items() if rows}
        delta = {}
        for cr in active:
            if id(cr) not in alive:
                continue
            for i, predicate in member_spec[id(cr)]:
                frontier = previous.get(predicate)
                if frontier is None:
                    continue
                _fire(
                    cr, i, db, stats, provenance, opts, delta,
                    delta=frontier, guard=guard,
                )
        for p, rows in delta.items():
            if rows:
                out.setdefault(p, set()).update(rows)
        active = retire.filter(active, db)
        alive = set(map(id, active))
    if retire.unit_satisfied(db):
        retire.retire_all(unit.rules)
    return out


# ---------------------------------------------------------------------------
# the monolithic per-stratum loop (--no-scc)
# ---------------------------------------------------------------------------


def run_monolithic(
    strata, db, stats, provenance, opts, governor=None, replan_rounds: int = 0
) -> None:
    """Evaluate each stratum as one fixpoint over all its rules.

    This is the pre-scheduler engine, kept verbatim: with
    ``use_scc=False`` and no governor limits every counter is
    bit-identical to the previous releases, which makes this loop the
    differential oracle for :func:`run_scheduled`.  The whole loop is
    one "unit" per stratum as far as the governor is concerned, so
    ``max_iterations`` (global) and ``max_unit_iterations`` coincide
    here — both bound ``stats.iterations``.
    """
    governor = governor if governor is not None else Governor(opts)
    guard = governor.guard()
    retire = _Retirer(opts.cut_predicates, stats)
    for stratum_index, stratum_rules in enumerate(strata):
        active = retire.filter(stratum_rules, db)
        if not active:
            continue
        try:
            if opts.strategy == "naive":
                _naive_loop(active, db, stats, provenance, opts, retire, guard)
            else:
                _seminaive_loop(active, db, stats, provenance, opts, retire,
                                guard, replan_rounds=replan_rounds)
        except BudgetExceeded as exc:
            if exc.stratum is None:
                exc.stratum = stratum_index
            raise


# ---------------------------------------------------------------------------
# the SCC-condensation scheduler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalUnit:
    """One schedulable evaluation unit: the rules of one SCC.

    ``members`` are the SCC's predicates (the delta-specialization set
    for recursive units); ``heads`` the subset actually heading rules
    in this stratum; ``depth`` the unit's layer in the condensation of
    its stratum — units sharing a depth have no dependency path between
    them and may run concurrently.
    """

    index: int
    depth: int
    members: frozenset[str]
    heads: frozenset[str]
    rules: tuple[CompiledRule, ...]
    recursive: bool

    @property
    def label(self) -> str:
        return "+".join(sorted(self.members))


def build_units(stratum_rules, info: DependencyInfo, edges, component_of) -> list[EvalUnit]:
    """Partition one stratum's compiled rules into topologically
    ordered evaluation units (deterministic: depth, then SCC index)."""
    groups: dict[int, list[CompiledRule]] = {}
    for cr in stratum_rules:
        groups.setdefault(component_of[cr.rule.head.predicate], []).append(cr)
    depths = component_depths(edges, groups)
    units = []
    for ci in sorted(groups, key=lambda c: (depths[c], c)):
        rules = tuple(groups[ci])
        scc = info.sccs[ci]
        units.append(
            EvalUnit(
                index=ci,
                depth=depths[ci],
                members=scc,
                heads=frozenset(cr.rule.head.predicate for cr in rules),
                rules=rules,
                recursive=is_recursive_component(scc, info.graph),
            )
        )
    return units


def _run_unit(
    unit: EvalUnit, db: Database, opts, guard: Guard, replan_rounds: int = 0
) -> tuple[EvalStats, dict, Optional[Exception]]:
    """Evaluate one unit to its local fixpoint.

    Returns the unit's private statistics, provenance fragment, and —
    instead of letting it escape the worker thread — any exception the
    unit raised; the caller merges stats and provenance at the depth
    barrier in unit order and re-raises the first captured failure, so
    a dying unit can never deadlock the barrier or swallow its error,
    and its partial counters stay mergeable.  Thread-safety contract:
    the unit writes only the relations of its own head predicates;
    every other relation it touches is read-only for the duration of
    its depth level (lazy index builds on shared relations are
    serialized inside :class:`~repro.datalog.database.Relation`).
    """
    stats = EvalStats()
    provenance: dict = {}
    failure: Optional[Exception] = None
    retire = _Retirer(opts.cut_predicates, stats, unit_heads=unit.heads)
    try:
        guard.unit_boundary(stats)
        active = retire.filter(list(unit.rules), db)
        if active:
            if not unit.recursive:
                _single_pass(active, db, stats, provenance, opts, retire, guard)
            elif opts.strategy == "naive":
                _naive_loop(active, db, stats, provenance, opts, retire, guard)
            else:
                _seminaive_loop(
                    active, db, stats, provenance, opts, retire, guard,
                    recursive=unit.members, replan_rounds=replan_rounds,
                )
        if retire.unit_satisfied(db):
            retire.retire_all(unit.rules)
    except Exception as exc:  # captured, not raised: the barrier decides
        failure = exc
    finally:
        # make the fragment's unflushed counters visible to the other
        # threads' budget estimates and retire its publish bookkeeping
        # (the stats object's id may be reused by a later fragment)
        guard.finish(stats)
    return stats, provenance, failure


def _merge_unit(stats, provenance, unit, unit_stats, unit_prov) -> None:
    """Fold one unit execution's private results into the run totals."""
    stats.units_scheduled += 1
    stats.unit_rounds[unit.label] = (
        stats.unit_rounds.get(unit.label, 0) + unit_stats.iterations
    )
    stats.merge(unit_stats)
    provenance.update(unit_prov)


def run_scheduled(
    strata, info: DependencyInfo, db, stats, provenance, opts, governor=None,
    replan_rounds: int = 0,
) -> None:
    """Evaluate every stratum as a topologically scheduled DAG of units.

    Units at the same condensation depth are independent; with
    ``opts.parallel > 1`` they run on a shared thread pool.  Results
    (statistics, provenance) are merged at the per-depth barrier in
    deterministic unit order, so per-unit counters are identical run to
    run regardless of thread interleaving.

    Failure protocol (see :func:`_run_unit`): exceptions raised inside
    units arrive at the barrier as captured values.  Every unit's
    partial statistics are merged first; then a recoverable
    :class:`~repro.engine.faults.WorkerDeath` triggers a sequential
    re-run of the dead unit (sound because rule firing is monotone and
    idempotent — re-deriving an already-inserted fact is a duplicate,
    not an error), and any other failure — a governor trip or a
    genuine error — is re-raised in unit order, original exception
    object intact.
    """
    governor = governor if governor is not None else Governor(opts)
    injector = governor.injector
    if injector is not None and injector.scheduler_fails():
        raise SchedulerFault("injected SCC scheduling failure")
    edges = condensation(info)
    component_of = {p: i for i, scc in enumerate(info.sccs) for p in scc}
    executor: Optional[ThreadPoolExecutor] = None
    ordinal = 0  # unit executions across the whole run, scheduling order
    try:
        for stratum_index, stratum_rules in enumerate(strata):
            if not stratum_rules:
                continue
            units = build_units(stratum_rules, info, edges, component_of)
            by_depth: dict[int, list[EvalUnit]] = {}
            for unit in units:
                by_depth.setdefault(unit.depth, []).append(unit)
            for depth in sorted(by_depth):
                batch = by_depth[depth]
                guards = []
                for unit in batch:
                    guards.append(governor.guard(unit=unit.label, ordinal=ordinal))
                    ordinal += 1
                if opts.parallel > 1 and len(batch) > 1:
                    if executor is None:
                        executor = ThreadPoolExecutor(max_workers=opts.parallel)
                    futures = [
                        executor.submit(
                            _run_unit, unit, db, opts, guard, replan_rounds
                        )
                        for unit, guard in zip(batch, guards)
                    ]
                    results = [f.result() for f in futures]
                    stats.units_parallel += len(batch)
                else:
                    results = [
                        _run_unit(unit, db, opts, guard, replan_rounds)
                        for unit, guard in zip(batch, guards)
                    ]
                # barrier: merge in unit order (deterministic), head
                # predicates are disjoint across units so provenance
                # fragments never collide; failures are handled after
                # every unit's partial stats are in
                pending: Optional[Exception] = None
                for unit, guard, (unit_stats, unit_prov, failure) in zip(
                    batch, guards, results
                ):
                    _merge_unit(stats, provenance, unit, unit_stats, unit_prov)
                    if isinstance(failure, WorkerDeath):
                        # parallel→sequential rung: the fault is one-shot,
                        # so an inline re-run of the unit completes it
                        injector.record(stats, "parallel->sequential", unit.label)
                        retry_stats, retry_prov, failure = _run_unit(
                            unit, db, opts, guard, replan_rounds
                        )
                        _merge_unit(stats, provenance, unit, retry_stats, retry_prov)
                    if failure is not None and pending is None:
                        pending = failure
                if pending is not None:
                    if isinstance(pending, BudgetExceeded) and pending.stratum is None:
                        pending.stratum = stratum_index
                    raise pending
    finally:
        if executor is not None:
            executor.shutdown(wait=True)
