"""Prepared programs: analyze/stratify/compile once, evaluate many times.

Every ``evaluate()`` call used to re-derive the same artifacts from the
program text: the dependency analysis, the stratification, and one
:class:`~repro.engine.plan.CompiledRule` (with its naive and delta join
plans) per rule.  For one-shot queries that cost is noise; for an
always-on :class:`~repro.engine.incremental.IncrementalSession` — or a
benchmark loop re-running the same program shape — it is pure overhead
on every invocation.

:func:`prepare` bundles those artifacts into an immutable
:class:`PreparedProgram` and caches it in a bounded process-wide LRU,
keyed by the **canonical program text** (``str(program)`` — rules in
order, negation rendered, query included, and for adorned programs the
adornment is part of every predicate name) together with the
**log-bucketed size signature** the join-order heuristic consumed and
the **cost-model signature** when a cost-based planner ordered the
plans.  Two calls with the same key are guaranteed byte-identical
plans, so a cache hit changes no counter of any evaluation — it only
skips the planning work.  The signatures are part of the key precisely
because plans *depend* on them: caching across different profiles
would silently change join orders mid-differential-test.

Sizes are bucketed (:func:`repro.engine.cost.bucket_size`: powers of
two, representative = bucket maximum) *before* both keying and
planning: the greedy heuristic and the cost model only ever see the
representatives, so two EDBs in the same buckets share one cache entry
*and* provably identical plans.  This is what keeps an always-on serve
session from evicting its prepared plans every time a relation grows
by a handful of rows.

Compiled kernels need no second cache here: they are memoized on each
``CompiledRule`` and globally by generated source text
(:mod:`repro.engine.kernel`), so sharing the compiled rules across
evaluations shares their kernels too — a prepared-cache hit skips
parse-product analysis, planning *and* codegen.

**Size-free rules for frozen-body chase tests.**  The deletion tests
of :mod:`repro.core.uniform_equivalence` evaluate ``P - {r}`` for
every candidate ``r`` over a canonical database of a few frozen facts.
Each of those programs is new, and a size- or cost-keyed preparation
would miss on every call and re-plan every rule.  Over a frozen body
every relation holds a handful of rows, so size-aware join orders buy
nothing there.  :func:`prepare_size_free` therefore assembles a
preparation from rules compiled with *no* size profile and *no* cost
model, memoized in a second bounded LRU keyed by the :class:`Rule`
alone.  A deletion pass then plans each distinct rule once, however
many sub-programs contain it.  The memoized rules carry the program
index of their first compilation; that index is read only by
provenance, so size-free preparations must never be evaluated with
``record_provenance``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from ..datalog.analysis import DependencyInfo, analyze, stratify
from ..datalog.ast import Program, Rule
from ..datalog.errors import ValidationError
from .cost import CostModel, bucket_size
from .plan import CompiledRule, compile_rule

__all__ = [
    "PreparedProgram",
    "prepare",
    "prepare_size_free",
    "prepared_cache_stats",
    "clear_prepared_cache",
]


@dataclass(frozen=True)
class PreparedProgram:
    """The reusable evaluation artifacts of one program + size profile.

    Everything here is immutable or treated as such; one instance may
    be shared by concurrent evaluations (compiled-rule kernel
    memoization is the only interior mutation and is idempotent).
    """

    program: Program
    #: the cache key this instance was prepared under
    key: tuple
    #: ground facts asserted by body-less program rules, as
    #: ``(predicate, row)`` pairs in rule order — seeded into the
    #: working database before the fixpoint (and after any reset)
    fact_rules: tuple[tuple[str, tuple], ...]
    #: compiled non-fact rules, in program order
    compiled: tuple[CompiledRule, ...]
    info: DependencyInfo
    #: compiled rules grouped by stratum, bottom-up (a single stratum
    #: for negation-free programs)
    strata: tuple[tuple[CompiledRule, ...], ...]
    #: head arities of every predicate occurring in the program
    arities: Mapping[str, int]
    #: rule bodies the cost model's DP search ordered while building
    #: this preparation (0 under the greedy planner).  Recorded here —
    #: not on the run — so a cache hit reports the same
    #: ``stats.plans_costed`` as the cold build it reuses: hits are
    #: bit-identical in every counter.
    plans_costed: int = 0

    def idb_predicates(self) -> frozenset[str]:
        return self.info.idb


def bucketed_sizes(sizes: Optional[Mapping[str, int]]) -> Optional[dict]:
    """*sizes* with every count replaced by its bucket representative —
    the only size view planning (greedy or cost-based) ever consumes."""
    if sizes is None:
        return None
    return {p: bucket_size(n) for p, n in sizes.items()}


def program_key(
    program: Program,
    sizes: Optional[Mapping[str, int]],
    cost_signature: tuple = (),
) -> tuple:
    """The cache key: canonical text, log-bucketed size signature, and
    the planner's cost-model signature (``()`` for pure greedy)."""
    size_sig = (
        tuple(sorted((p, bucket_size(n)) for p, n in sizes.items()))
        if sizes
        else ()
    )
    return (str(program), size_sig, cost_signature)


_CACHE: "OrderedDict[tuple, PreparedProgram]" = OrderedDict()
_CACHE_LOCK = threading.Lock()
_CACHE_MAX = 256
_HITS = 0
_MISSES = 0

#: size-free compiled rules, keyed by the rule alone (guarded by
#: ``_CACHE_LOCK``).  A round of perfbench's compile-mix (28 programs)
#: plans about 300 distinct rules, so the cap holds several rounds.
_RULES: "OrderedDict[Rule, CompiledRule]" = OrderedDict()
_RULES_MAX = 2048
_RULE_HITS = 0
_RULE_MISSES = 0


def _build(
    program: Program,
    key: tuple,
    compile_one: Callable[[Rule, int], CompiledRule],
    cost_model: Optional[CostModel] = None,
) -> PreparedProgram:
    fact_rules: list[tuple[str, tuple]] = []
    compiled: list[CompiledRule] = []
    for i, r in enumerate(program.rules):
        if not r.body:
            if not r.head.is_ground():
                raise ValidationError(f"unsafe fact rule: {r}")
            fact_rules.append((r.head.predicate, r.head.as_fact()))
            continue
        compiled.append(compile_one(r, i))
    info = analyze(program)
    if program.has_negation():
        layers = stratify(program, info)
        index = {p: i for i, layer in enumerate(layers) for p in layer}
        grouped: dict[int, list[CompiledRule]] = {}
        for cr in compiled:
            grouped.setdefault(index[cr.rule.head.predicate], []).append(cr)
        strata = tuple(
            tuple(grouped.get(i, [])) for i in range(len(layers))
        )
    else:
        strata = (tuple(compiled),) if compiled else ()
    return PreparedProgram(
        program=program,
        key=key,
        fact_rules=tuple(fact_rules),
        compiled=tuple(compiled),
        info=info,
        strata=strata,
        arities=dict(program.arities()),
        plans_costed=getattr(cost_model, "plans_costed", 0),
    )


def prepare(
    program: Program,
    sizes: Optional[Mapping[str, int]] = None,
    *,
    cost_model: Optional[CostModel] = None,
    use_cache: bool = True,
) -> PreparedProgram:
    """Return the (possibly cached) :class:`PreparedProgram`.

    *sizes* is the relation-size profile fed to the join-order
    heuristic, exactly as :func:`~repro.engine.evaluator.evaluate`
    computes it (IDB predicates bumped past the largest stored
    relation); planning consumes its bucket representatives, never the
    exact counts.  *cost_model*, when given, orders rule bodies
    (:mod:`repro.engine.cost`) and contributes its signature — which
    captures every profile the model plans from — to the cache key.  A
    hit returns plans identical to a fresh compile under the same key,
    so cached and uncached evaluations are bit-identical in every
    counter.
    """
    cost_sig = cost_model.signature() if cost_model is not None else ()
    key = program_key(program, sizes, cost_sig)
    global _HITS, _MISSES
    if use_cache:
        with _CACHE_LOCK:
            cached = _CACHE.get(key)
            if cached is not None:
                _CACHE.move_to_end(key)
                _HITS += 1
                return cached
    rep_sizes = bucketed_sizes(sizes)
    prepared = _build(
        program,
        key,
        lambda r, i: compile_rule(r, i, sizes=rep_sizes, cost_model=cost_model),
        cost_model,
    )
    if use_cache:
        with _CACHE_LOCK:
            if key in _CACHE:
                # a concurrent prepare won the race; keep its instance
                # so kernel memoization accumulates on one object
                _HITS += 1
                return _CACHE[key]
            _MISSES += 1
            _CACHE[key] = prepared
            while len(_CACHE) > _CACHE_MAX:
                _CACHE.popitem(last=False)
    return prepared


def _size_free_rule(rule: Rule, rule_index: int) -> CompiledRule:
    """*rule* compiled with no size profile and no cost model, from the
    rule memo.  A hit returns the rule as first compiled, with that
    compilation's *rule_index*."""
    global _RULE_HITS, _RULE_MISSES
    with _CACHE_LOCK:
        cached = _RULES.get(rule)
        if cached is not None:
            _RULES.move_to_end(rule)
            _RULE_HITS += 1
            return cached
    compiled = compile_rule(rule, rule_index)
    with _CACHE_LOCK:
        if rule in _RULES:
            # a concurrent compile won the race; share its kernels
            _RULE_HITS += 1
            return _RULES[rule]
        _RULE_MISSES += 1
        _RULES[rule] = compiled
        while len(_RULES) > _RULES_MAX:
            _RULES.popitem(last=False)
    return compiled


def prepare_size_free(program: Program) -> PreparedProgram:
    """A preparation of *program* from size-free memoized rules.

    Only analysis and stratification run per call; every rule some
    earlier call compiled is reused as is.  The result is not cached
    (its ``key`` is ``()``).  It is meant for evaluations over tiny
    canonical databases, such as frozen rule bodies, where join order
    barely matters and the program changes from call to call.  It must
    not be evaluated with ``record_provenance``, because the memoized
    rules keep the rule index of their first program.
    """
    return _build(program, (), _size_free_rule)


def prepared_cache_stats() -> dict:
    """Cache occupancy and hit/miss counters (for tests and benches):
    ``entries``/``hits``/``misses`` for whole preparations and
    ``rule_entries``/``rule_hits``/``rule_misses`` for the size-free
    rule memo."""
    with _CACHE_LOCK:
        return {
            "entries": len(_CACHE),
            "hits": _HITS,
            "misses": _MISSES,
            "rule_entries": len(_RULES),
            "rule_hits": _RULE_HITS,
            "rule_misses": _RULE_MISSES,
        }


def clear_prepared_cache() -> None:
    """Drop every cached preparation and memoized rule, and reset the
    counters."""
    global _HITS, _MISSES, _RULE_HITS, _RULE_MISSES
    with _CACHE_LOCK:
        _CACHE.clear()
        _RULES.clear()
        _HITS = _MISSES = _RULE_HITS = _RULE_MISSES = 0
