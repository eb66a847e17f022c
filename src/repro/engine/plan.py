"""Rule compilation: body ordering and index-aware literal matching.

A rule body is evaluated as a left-deep nested-loop join over hash
indexes.  :func:`order_body` picks a join order greedily by a
selectivity heuristic — at each step the literal with the most
already-bound argument positions is chosen (ties broken by smaller
relation size when the planner is given sizes, then by original body
order), so index lookups replace scans wherever possible.
:class:`CompiledRule` caches, per literal, which positions will be
bound when the literal is reached, so evaluation does no per-tuple
planning.

Each probe of a stored relation is counted in exactly one of two ways:
an **index probe** when the literal has bound positions and indexing is
enabled (the relation's lazily built hash index on those positions
answers the probe), or a **scan fallback** when no position is bound or
``use_indexes=False`` forces the engine back to the seed behaviour of
enumerating the whole relation and filtering.

Substitutions at evaluation time are plain ``dict[Variable, value]``
with raw Python values (not :class:`Constant` wrappers); this is the
engine's hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional, Sequence

from ..datalog.ast import Atom, Rule
from ..datalog.builtins import is_builtin
from ..datalog.database import Database
from ..datalog.terms import Constant, Variable
from .statistics import EvalStats

__all__ = [
    "CompiledRule",
    "DeltaIndex",
    "LiteralPlan",
    "order_body",
    "compile_rule",
    "rebind_plans",
    "replan_delta_plans",
]


@dataclass(frozen=True)
class LiteralPlan:
    """One body literal with its precomputed binding pattern.

    ``bound_positions`` are argument indexes whose value is known when
    this literal is matched (constants, or variables bound by earlier
    literals); an index on exactly those positions is used for lookup.
    ``free_positions`` maps the remaining indexes to their variables
    (with repeated free variables appearing at each of their positions;
    consistency is enforced during binding).
    """

    atom: Atom
    body_index: int  # position in the original rule body
    bound_positions: tuple[int, ...]
    free_positions: tuple[tuple[int, Variable], ...]
    #: every variable this literal newly binds is *dead* — unused by
    #: later plan steps, the head, built-ins and negated literals — so
    #: one matching row witnesses the literal and scanning further
    #: candidates can only repeat downstream work (the existential
    #: first-match cut; see compile_rule).
    existential: bool = False

    def key_for(self, subst: dict) -> Optional[tuple]:
        """The index key under *subst*; None is never returned — every
        bound position is a constant or a variable guaranteed bound."""
        key = []
        for p in self.bound_positions:
            arg = self.atom.args[p]
            if isinstance(arg, Constant):
                key.append(arg.value)
            else:
                key.append(subst[arg])
        return tuple(key)

    def bind(self, row: Sequence, subst: dict) -> Optional[dict]:
        """Extend *subst* with the free positions of *row*.

        Returns the extended substitution (a new dict) or ``None`` if a
        repeated free variable is inconsistent.  A fully-bound literal
        binds nothing, so the input substitution is returned as-is
        (substitutions are never mutated downstream, so sharing is
        safe and skips a dict copy per candidate row).
        """
        if not self.free_positions:
            return subst
        out = dict(subst)
        for p, var in self.free_positions:
            value = row[p]
            bound = out.get(var, _UNBOUND)
            if bound is _UNBOUND:
                out[var] = value
            elif bound != value:
                return None
        return out


_UNBOUND = object()
_NO_ROWS: list = []


class DeltaIndex:
    """The semi-naive delta frontier with lazy position groupings.

    The frontier is shared by every rule specialization probing the
    same predicate in a round, so grouping its rows by a literal's
    bound positions happens once per ``(round, positions)`` instead of
    re-scanning the frontier linearly on every probe.  Probing the
    frontier is the semi-naive discipline itself, so it is charged as a
    ``join_probe`` but never as an index probe or scan fallback, and
    only delivered rows count toward ``rows_scanned`` — exactly the
    accounting of the previous linear filter.
    """

    __slots__ = ("_rows", "_groups")

    def __init__(self, rows):
        self._rows: list = list(rows)
        self._groups: dict[tuple[int, ...], dict[tuple, list]] = {}

    def all_rows(self) -> list:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def lookup(self, positions: tuple[int, ...], key: tuple) -> list:
        """Frontier rows whose values at *positions* equal *key*."""
        if not positions:
            return self._rows
        group = self._groups.get(positions)
        if group is None:
            group = {}
            for row in self._rows:
                group.setdefault(tuple(row[p] for p in positions), []).append(row)
            self._groups[positions] = group
        return group.get(tuple(key), _NO_ROWS)


def _plan_literal(atom: Atom, body_index: int, bound_vars: set[Variable]) -> LiteralPlan:
    bound_positions = []
    free_positions = []
    for p, arg in enumerate(atom.args):
        if isinstance(arg, Constant) or arg in bound_vars:
            bound_positions.append(p)
        else:
            free_positions.append((p, arg))
    return LiteralPlan(atom, body_index, tuple(bound_positions), tuple(free_positions))


def order_body(
    body: Sequence[Atom],
    first: Optional[int] = None,
    sizes: Optional[Mapping[str, int]] = None,
    cost_model=None,
    needed: frozenset = frozenset(),
) -> tuple[LiteralPlan, ...]:
    """Choose a join order and compute binding patterns.

    *first*, when given, forces that body index to the front — used by
    the semi-naive evaluator to start from the delta literal.  When
    *cost_model* is given (a :class:`repro.engine.cost.CostModel`), the
    rest of the order comes from its bound-driven DP search over the
    remaining literals (*needed* is the rule's always-live variable
    set, which the model uses for the existential d-position cap); a
    model that declines — wide bodies past its DP limit — falls
    through to the greedy heuristic below, the planner's fallback rung.

    The greedy heuristic orders by most bound argument positions
    first, ties broken by smaller relation size (when *sizes* gives an
    estimate for the predicate; unknown predicates sort as largest).

    **Deterministic tie-break contract:** candidates equal on both
    criteria are taken in original body order.  The selection key ends
    in ``-i`` under ``max``, so the smallest body index always wins an
    exact tie; cost-model orders break exact-cost ties the same way
    (lexicographically smallest index sequence).  This is pinned by
    tests — cost-vs-greedy differentials rely on both planners being
    exactly reproducible, never on hash or insertion order.
    """
    remaining = list(range(len(body)))
    plans: list[LiteralPlan] = []
    bound_vars: set[Variable] = set()
    unknown = (max(sizes.values(), default=0) + 1) if sizes else 0

    def size_of(atom: Atom) -> int:
        if not sizes:
            return 0
        return sizes.get(atom.predicate, unknown)

    def take(i: int) -> None:
        remaining.remove(i)
        plan = _plan_literal(body[i], i, bound_vars)
        plans.append(plan)
        bound_vars.update(v for _, v in plan.free_positions)

    if first is not None:
        take(first)
    if cost_model is not None and remaining:
        order = cost_model.order_remaining(
            body, tuple(remaining), frozenset(bound_vars), needed
        )
        if order is not None:
            for i in order:
                take(i)
            return tuple(plans)
    while remaining:
        best = max(
            remaining,
            key=lambda i: (
                sum(
                    1
                    for arg in body[i].args
                    if isinstance(arg, Constant) or arg in bound_vars
                ),
                -size_of(body[i]),
                -i,
            ),
        )
        take(best)
    return tuple(plans)


@dataclass(frozen=True)
class CompiledRule:
    """A rule together with its join plans.

    ``plan`` is the default (naive) plan; ``delta_plans[i]`` is the plan
    that starts from *relational* body literal *i*, used when that
    literal is matched against a delta relation during semi-naive
    evaluation.  Built-in comparison literals are split out into
    ``builtins`` and evaluated as filters once a match is complete
    (safety guarantees their variables are bound by then).
    """

    rule: Rule
    rule_index: int
    #: the body literals that denote stored relations, in body order
    relational_body: tuple[Atom, ...]
    #: evaluable comparison literals (lt/le/gt/ge/eq/neq)
    builtins: tuple[Atom, ...]
    plan: tuple[LiteralPlan, ...]
    delta_plans: tuple[tuple[LiteralPlan, ...], ...]

    def head_values(self, subst: dict) -> tuple:
        """Instantiate the head under a complete substitution."""
        return tuple(
            a.value if isinstance(a, Constant) else subst[a] for a in self.rule.head.args
        )

    def delta_literals(self, recursive) -> tuple[tuple[int, str], ...]:
        """The relational body positions whose predicate is in
        *recursive* — i.e. can still change while the current fixpoint
        runs, so their delta plan must be fired each round.  The
        monolithic loop passes the stratum's head predicates; the
        component scheduler passes the unit's own SCC members, which is
        typically a much smaller set and prunes delta firings over
        frozen sibling components."""
        return tuple(
            (i, literal.predicate)
            for i, literal in enumerate(self.relational_body)
            if literal.predicate in recursive
        )


def _mark_existential(
    plans: tuple[LiteralPlan, ...], always_needed: frozenset[Variable]
) -> tuple[LiteralPlan, ...]:
    """Flag plan steps whose newly bound variables are all dead.

    A flagged literal is a pure existence test: any single matching row
    produces the same downstream substitution (its new bindings are
    invisible to later steps, the head, built-ins and negations), so
    :func:`match_plan` stops at the first match instead of enumerating
    every candidate — this keeps dead existential variables (the
    hallmark of the paper's queries, and a frequent by-product of
    unfolding) from cross-multiplying into duplicate rule firings.
    """
    marked = list(plans)
    needed = set(always_needed)
    for i in range(len(plans) - 1, -1, -1):
        plan = plans[i]
        new_vars = {v for _, v in plan.free_positions}
        if new_vars and not (new_vars & needed):
            marked[i] = replace(plan, existential=True)
        needed.update(
            a for a in plan.atom.args if isinstance(a, Variable)
        )
    return tuple(marked)


def _always_needed(rule: Rule, builtins: tuple[Atom, ...]) -> frozenset[Variable]:
    """Variables no plan step may treat as dead: the head's, the
    built-in filters', and the negated literals'."""
    return frozenset(
        a
        for atom in (rule.head, *builtins, *rule.negative)
        for a in atom.args
        if isinstance(a, Variable)
    )


def compile_rule(
    rule: Rule,
    rule_index: int,
    sizes: Optional[Mapping[str, int]] = None,
    cost_model=None,
) -> CompiledRule:
    """Compile *rule*: one naive plan plus one delta plan per
    relational literal; built-ins become post-match filters.  *sizes*
    (relation row counts) feeds the join-order selectivity heuristic;
    *cost_model*, when given, orders bodies by bound-driven DP search
    instead (:mod:`repro.engine.cost`), with the greedy heuristic as
    its fallback rung."""
    relational = tuple(a for a in rule.body if not is_builtin(a.predicate))
    builtins = tuple(a for a in rule.body if is_builtin(a.predicate))
    always_needed = _always_needed(rule, builtins)
    plan = _mark_existential(
        order_body(relational, sizes=sizes, cost_model=cost_model,
                   needed=always_needed),
        always_needed,
    )
    delta_plans = tuple(
        _mark_existential(
            order_body(relational, first=i, sizes=sizes,
                       cost_model=cost_model, needed=always_needed),
            always_needed,
        )
        for i in range(len(relational))
    )
    return CompiledRule(rule, rule_index, relational, builtins, plan, delta_plans)


def replan_delta_plans(cr: CompiledRule, cost_model) -> CompiledRule:
    """*cr* with every delta plan re-ordered by *cost_model*.

    The adaptive replanner calls this between fixpoint rounds with a
    model built from observed cardinalities.  The naive plan is left
    untouched (it already ran); only the delta plans — the per-round
    hot path — are re-ranked.  Returns *cr* itself when every order is
    unchanged, so kernels memoized on the object survive no-op
    replans; otherwise a fresh :class:`CompiledRule` whose kernels are
    re-generated on demand (amortized by the process-wide source-text
    cache in :mod:`repro.engine.kernel`).
    """
    always_needed = _always_needed(cr.rule, cr.builtins)
    delta_plans = tuple(
        _mark_existential(
            order_body(cr.relational_body, first=i, cost_model=cost_model,
                       needed=always_needed),
            always_needed,
        )
        for i in range(len(cr.relational_body))
    )
    if delta_plans == cr.delta_plans:
        return cr
    return replace(cr, delta_plans=delta_plans)


def _rebind(plan: LiteralPlan, bound: Mapping) -> LiteralPlan:
    """*plan* with every free position whose variable is in *bound*
    promoted to a bound (index-keyed) position.

    Join plans are compiled knowing only which variables earlier body
    literals bind; a goal-directed caller of :func:`match_plan` (the
    rederivation support probe) additionally pre-binds the head
    variables through ``subst``.  Promoting those positions turns what
    the compile-time pattern thought was an unbound first literal —
    a full scan — into an index probe on the pre-bound values.  The
    initial substitution only ever grows, so the promotion is sound at
    every plan step.
    """
    extra = tuple(p for p, var in plan.free_positions if var in bound)
    if not extra:
        return plan
    return replace(
        plan,
        bound_positions=tuple(sorted(plan.bound_positions + extra)),
        free_positions=tuple(
            (p, var) for p, var in plan.free_positions if var not in bound
        ),
    )


def rebind_plans(
    plans: Sequence[LiteralPlan], bound: "Mapping | frozenset"
) -> tuple[LiteralPlan, ...]:
    """Rebind every plan step for a known pre-bound variable set.

    Goal-directed callers that probe the same plan for many different
    bindings of one fixed variable set (the rederivation support probe:
    the head variables, one probe per overdeleted row) should rebind
    once through this helper and reuse the result — :func:`match_plan`
    still accepts raw plans plus ``subst`` and rebinds on the fly, but
    that costs a plan reconstruction per call.
    """
    return tuple(_rebind(plan, bound) for plan in plans)


def match_plan(
    plans: Sequence[LiteralPlan],
    db: Database,
    stats: EvalStats,
    delta_rows: "Optional[DeltaIndex | frozenset]" = None,
    subst: Optional[dict] = None,
    use_indexes: bool = True,
) -> Iterator[tuple[dict, tuple]]:
    """Enumerate substitutions satisfying the planned body.

    Yields ``(substitution, body_rows)`` where ``body_rows[i]`` is the
    matched row of the literal at *original* body index *i* (used for
    provenance).  When *delta_rows* is given (a :class:`DeltaIndex` or
    any iterable of rows), the first plan step is matched against
    exactly those rows instead of the stored relation — this is the
    semi-naive delta position, answered through the frontier's lazy
    position groupings.  A non-empty *subst* pre-binds variables before
    the first step; the binding patterns are rebound accordingly so
    pre-bound positions are answered by index probes rather than the
    scans the compile-time patterns would fall back to.  With
    ``use_indexes=False``
    every probe of a stored relation enumerates the whole relation and
    filters (the pre-index seed behaviour, kept as the ``--no-index``
    baseline); ``stats.rows_scanned`` then counts every enumerated row,
    matching or not.
    """
    start = dict(subst) if subst else {}
    if start:
        plans = [_rebind(plan, start) for plan in plans]
    n = len(plans)
    body_rows: list = [None] * n
    delta = (
        delta_rows
        if delta_rows is None or isinstance(delta_rows, DeltaIndex)
        else DeltaIndex(delta_rows)
    )

    def step(i: int, subst: dict) -> Iterator[tuple[dict, tuple]]:
        if i == n:
            yield subst, tuple(body_rows)
            return
        plan = plans[i]
        if i == 0 and delta is not None:
            stats.join_probes += 1
            if not plan.bound_positions:
                candidates = delta.all_rows()
            else:
                candidates = delta.lookup(plan.bound_positions, plan.key_for(subst))
        else:
            rel = db.relation(plan.atom.predicate)
            if rel is None:
                return
            stats.join_probes += 1
            if not plan.bound_positions:
                # no binding available: a full scan is the only option
                # (snapshot: the head relation may be the one scanned)
                stats.scan_fallbacks += 1
                candidates = list(rel)
            elif use_indexes:
                stats.index_probes += 1
                if not plan.free_positions:
                    # fully bound: the key *is* the candidate row, so
                    # the row set answers the probe directly — building
                    # a whole-relation index to return at most one row
                    # would cost O(|rel|) for nothing
                    key = plan.key_for(subst)
                    candidates = [key] if key in rel else _NO_ROWS
                else:
                    candidates = rel.lookup(
                        plan.bound_positions, plan.key_for(subst)
                    )
            else:
                stats.scan_fallbacks += 1
                candidates = _scan_filter(plan, rel, plan.key_for(subst), stats)
        for row in candidates:
            stats.rows_scanned += 1
            extended = plan.bind(row, subst)
            if extended is None:
                continue
            body_rows[i] = (plan.body_index, row)
            yield from step(i + 1, extended)
            if plan.existential:
                # one witness is enough: every further candidate binds
                # only dead variables, replaying identical downstream
                # work (and identical head facts) per extra row
                return

    for final_subst, rows in step(0, start):
        ordered: list = [None] * n
        for body_index, row in rows:
            ordered[body_index] = row
        yield final_subst, tuple(ordered)


def _scan_filter(plan: LiteralPlan, rel, key: tuple, stats: EvalStats):
    """Enumerate *rel* fully, yielding rows matching the bound
    positions.  Rejected rows are charged to ``rows_scanned`` here
    (delivered rows are charged by the caller), so the counter reflects
    the full scan the missing index forced."""
    positions = plan.bound_positions
    for row in list(rel):
        if all(row[p] == key[i] for i, p in enumerate(positions)):
            yield row
        else:
            stats.rows_scanned += 1


