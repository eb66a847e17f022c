"""Sagiv's decidable uniform-equivalence tests (section 3.3, Example 4).

Two programs are *uniformly equivalent* when they compute the same
least fixpoint over every input database instance — where, unlike plain
equivalence, the input may already contain facts for derived (IDB)
predicates (section 4).  Sagiv [Sagiv 87] showed uniform equivalence is
decidable and gave the chase-style test implemented here:

    A rule ``r`` may be deleted from program ``P`` iff ``P - {r}``,
    evaluated on the *frozen* body of ``r`` (each variable replaced by
    a distinct fresh constant) as the input database, derives the
    frozen head of ``r``.

Deleting under this test preserves uniform equivalence, hence also
uniform *query* equivalence and plain query equivalence.  The paper
uses it in Example 4 (the recursive rule of the projected
transitive-closure program is redundant) and shows its limitation in
Example 5 (the left-linear variant admits no uniform-equivalence
deletion at all — that takes the uniform-query-equivalence machinery of
:mod:`repro.core.deletion`).

The same frozen-body chase also yields a decision procedure for uniform
*containment* and hence uniform equivalence of two programs, and the
literal-deletion test of Sagiv's minimization algorithm.
"""

from __future__ import annotations

from typing import Sequence

from ..datalog.ast import Atom, Program, Rule
from ..datalog.builtins import has_builtins, is_builtin
from ..datalog.database import Database
from ..datalog.errors import TransformError
from ..datalog.unify import skolemize
from ..engine.evaluator import EngineOptions, evaluate_prepared
from ..engine.prepared import prepare_size_free

__all__ = [
    "derives",
    "rule_deletable_uniform",
    "literal_deletable_uniform",
    "uniformly_contains",
    "uniformly_equivalent",
    "minimize_uniform",
]

#: Chase runs use size-free plans, so there is no cost model to replan
#: from, and they never record provenance: the memoized rules of
#: :func:`~repro.engine.prepared.prepare_size_free` keep the rule index
#: of the first program that compiled them.
_CHASE_OPTIONS = EngineOptions(max_iterations=10_000, use_cost_planner=False)
assert not _CHASE_OPTIONS.record_provenance

_NEGATION = "uniform-equivalence chase tests require negation-free programs"


def derives(
    program: Program, facts: Sequence[Atom], predicate: str, row: tuple
) -> bool:
    """Does *program*, run on the ground *facts* as its input database,
    derive ``predicate(row)``?

    This is the one chase entry behind every frozen-body test (Sagiv's
    and the uniform-query-equivalence chase of :mod:`repro.core.deletion`).
    It does not validate *program*: each public test validates its input
    once, and dropping rules from a valid positive program keeps it
    valid.  Rules are planned once per process (size-free, memoized by
    the rule), so testing many sub-programs ``P - {r}`` re-plans
    nothing.
    """
    if program.has_negation():
        raise TransformError(_NEGATION)
    if has_builtins(program) or any(is_builtin(f.predicate) for f in facts):
        raise TransformError(
            "uniform-equivalence chase tests cannot evaluate comparison "
            "built-ins over frozen (skolem) constants"
        )
    db = Database.from_facts(facts)
    # The predicate may have no rules left in `program`; make sure its
    # relation exists so the membership check is well-defined.
    db.ensure(predicate, len(row))
    result = evaluate_prepared(prepare_size_free(program), db, _CHASE_OPTIONS)
    # evaluation only adds facts, so the result holds every input fact
    return row in result.db.relation(predicate)


def _derives_frozen_head(program: Program, rule: Rule) -> bool:
    """Does *program*, run on the frozen body of *rule*, derive the
    frozen head?"""
    if rule.negative:  # freezing keeps only the positive body
        raise TransformError(_NEGATION)
    ground_head, ground_body, _ = skolemize(rule)
    return derives(
        program, ground_body, ground_head.predicate, ground_head.as_fact()
    )


def sagiv_deletable(program: Program, rule_index: int) -> bool:
    """:func:`rule_deletable_uniform` without validating *program*, for
    callers that validated it (or a program it is a sub-program of)."""
    rule = program.rules[rule_index]
    return _derives_frozen_head(program.without_rule(rule_index), rule)


def rule_deletable_uniform(program: Program, rule_index: int) -> bool:
    """Sagiv's test: can rule *rule_index* be deleted while preserving
    uniform equivalence?

    Example 4 of the paper walks this test through the projected
    transitive-closure program: the frozen body of
    ``a@nd(x) :- p(x, z), a@nd(z)`` is ``{p(x, z), a@nd(z)}``, and the
    exit rule re-derives ``a@nd(x)`` from ``p(x, z)``.
    """
    return sagiv_deletable(program.validate(), rule_index)


def literal_deletable_uniform(
    program: Program, rule_index: int, body_index: int
) -> bool:
    """Can a body literal be deleted while preserving uniform
    equivalence?

    Removing a literal makes the rule fire more often, so the direction
    to check is that the *original* program subsumes the generalized
    rule: the original program, on the frozen body of the shortened
    rule, must derive the frozen head.
    """
    return _literal_deletable(program.validate(), rule_index, body_index)


def _literal_deletable(program: Program, rule_index: int, body_index: int) -> bool:
    rule = program.rules[rule_index]
    if not (0 <= body_index < len(rule.body)):
        raise TransformError(f"rule {rule_index} has no body literal {body_index}")
    shortened = Rule(
        rule.head, rule.body[:body_index] + rule.body[body_index + 1 :]
    )
    if not shortened.is_safe():
        return False
    return _derives_frozen_head(program, shortened)


def uniformly_contains(p1: Program, p2: Program) -> bool:
    """True iff the fixpoint of *p1* contains the fixpoint of *p2* on
    every input database instance.

    By Sagiv's characterization this holds iff *p1* derives the frozen
    head of every rule of *p2* from that rule's frozen body.
    """
    p1.validate()
    p2.validate()
    return all(_derives_frozen_head(p1, r) for r in p2.rules)


def uniformly_equivalent(p1: Program, p2: Program) -> bool:
    """Decidable uniform equivalence (section 4, third notion)."""
    return uniformly_contains(p1, p2) and uniformly_contains(p2, p1)


def minimize_uniform(program: Program, drop_literals: bool = True) -> Program:
    """Sagiv's minimization: greedily delete rules (and optionally body
    literals) while the program stays uniformly equivalent to itself.

    The result depends on deletion order (minimization is not unique);
    rules are tried first, in index order, then literals.  Every step
    keeps the program safe, so it is validated once, here.
    """
    program.validate()
    changed = True
    while changed:
        changed = False
        for ri in range(len(program.rules)):
            if sagiv_deletable(program, ri):
                program = program.without_rule(ri)
                changed = True
                break
        if changed or not drop_literals:
            continue
        for ri, rule in enumerate(program.rules):
            for bi in range(len(rule.body)):
                if _literal_deletable(program, ri, bi):
                    shortened = Rule(
                        rule.head, rule.body[:bi] + rule.body[bi + 1 :]
                    )
                    rules = list(program.rules)
                    rules[ri] = shortened
                    program = program.with_rules(rules)
                    changed = True
                    break
            if changed:
                break
    return program
