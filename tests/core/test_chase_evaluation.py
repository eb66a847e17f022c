"""The frozen-body chase tests' evaluation path.

Every chase test (Sagiv's, Example 4, and the uniform-query-equivalence
chase, Example 6) asks one question through
:func:`repro.core.uniform_equivalence.derives`: does ``P - {r}`` derive a
fact from a few frozen facts.  It evaluates size-free rules memoized by
the rule, so a deletion pass plans each distinct rule once.  These tests
pin three things:

- **Differential.**  Deletion reports and the uniform-equivalence tests
  match a reference in which the chase's evaluation is the public
  ``evaluate(P, D, EngineOptions(max_iterations=10_000))``.
- **Counters.**  A ``delete_rules`` call compiles each distinct rule at
  most once; optimizing a program again compiles nothing; the rule memo
  is cleared with the prepared cache and stays at its cap.
- **Validation.**  The public entries still reject unsafe and
  arity-inconsistent inputs, once per call instead of once per
  evaluation.
"""

from unittest import mock

import pytest
from hypothesis import given, settings

import repro.core.uniform_equivalence as ue
import repro.engine.prepared as prepared_mod
from repro.core.adornment import adorn
from repro.core.components import split_components
from repro.core.deletion import chase_deletable, delete_rules
from repro.core.pipeline import optimize
from repro.core.projection import push_projections
from repro.datalog import parse
from repro.datalog.errors import ArityError, SafetyError, TransformError
from repro.engine import (
    EngineOptions,
    clear_prepared_cache,
    evaluate,
    prepared_cache_stats,
)
from repro.workloads import families
from repro.workloads import paper_examples as pe

from ..property.strategies import random_programs

REFERENCE_OPTIONS = EngineOptions(max_iterations=10_000)


def _public_evaluate(prepared, db, options):
    return evaluate(prepared.program, db, REFERENCE_OPTIONS)


def reference():
    """A context in which the chase's evaluation is the public
    ``evaluate`` (full validation, size- and cost-keyed preparation)."""
    return mock.patch.object(ue, "evaluate_prepared", _public_evaluate)


def projected(program):
    """The program as the pipeline hands it to phase 3."""
    return push_projections(split_components(adorn(program)).program)


def report_log(report):
    return (
        report.program.rules,
        [(d.rule, d.reason) for d in report.deleted],
    )


def assert_same_deletions(adorned):
    try:
        got = report_log(delete_rules(adorned))
    except TransformError as exc:
        got = ("refused", str(exc))
    with reference():
        try:
            want = report_log(delete_rules(adorned))
        except TransformError as exc:
            want = ("refused", str(exc))
    assert got == want


PAPER_PROGRAMS = {
    "example1": lambda: projected(pe.example1_program()),
    "example2": lambda: projected(pe.example2_program()),
    "example5": lambda: projected(pe.example5_program()),
    "example12": lambda: projected(pe.example12_original()),
    "example12_transformed": lambda: projected(pe.example12_transformed()),
    "example5_adorned": lambda: pe.adorned_from_text(pe.example5_adorned_text()),
    "example7": pe.example7_adorned,
    "example8": pe.example8_adorned,
    "example8_empty": pe.example8_empty_adorned,
    "example9": pe.example9_adorned,
    "example10": pe.example10_adorned,
}


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(PAPER_PROGRAMS))
    def test_paper_examples(self, name):
        assert_same_deletions(PAPER_PROGRAMS[name]())

    @pytest.mark.parametrize("name", sorted(families.all_families()))
    def test_families(self, name):
        assert_same_deletions(projected(families.all_families()[name]))

    @given(random_programs())
    @settings(max_examples=100, deadline=None)
    def test_random_programs(self, program):
        assert_same_deletions(projected(program))

    @given(random_programs(), random_programs())
    @settings(max_examples=40, deadline=None)
    def test_uniform_tests_on_random_programs(self, p1, p2):
        got = [ue.uniformly_equivalent(p1, p2)] + [
            ue.rule_deletable_uniform(p1, ri) for ri in range(len(p1.rules))
        ]
        with reference():
            want = [ue.uniformly_equivalent(p1, p2)] + [
                ue.rule_deletable_uniform(p1, ri) for ri in range(len(p1.rules))
            ]
        assert got == want


@pytest.fixture
def planned(monkeypatch):
    """Every rule ``compile_rule`` plans, in order."""
    seen = []
    real = prepared_mod.compile_rule

    def spy(rule, rule_index, **kwargs):
        seen.append(rule)
        return real(rule, rule_index, **kwargs)

    monkeypatch.setattr(prepared_mod, "compile_rule", spy)
    clear_prepared_cache()
    yield seen
    clear_prepared_cache()


class TestPlanCounters:
    @pytest.mark.parametrize("name", sorted(PAPER_PROGRAMS))
    def test_each_rule_planned_at_most_once_per_call(self, name, planned):
        adorned = PAPER_PROGRAMS[name]()
        delete_rules(adorned)
        assert len(planned) == len(set(planned))
        assert set(planned) <= {r.to_rule() for r in adorned.rules}

    @pytest.mark.parametrize(
        "make", [pe.example1_program, pe.example5_program, families.guarded_items]
    )
    def test_second_optimize_plans_nothing(self, make, planned):
        first = optimize(make())
        assert planned
        planned.clear()
        assert str(optimize(make()).program) == str(first.program)
        assert planned == []

    def test_clear_empties_the_rule_memo(self, planned):
        adorned = pe.example7_adorned()
        delete_rules(adorned)
        count = len(planned)
        assert prepared_cache_stats()["rule_entries"] == count > 0
        clear_prepared_cache()
        assert prepared_cache_stats()["rule_entries"] == 0
        planned.clear()
        delete_rules(adorned)
        assert len(planned) == count

    def test_rule_memo_is_a_bounded_lru(self, monkeypatch, planned):
        cap, extra = 16, 5
        monkeypatch.setattr(prepared_mod, "_RULES_MAX", cap)

        def shape(i):  # one distinct rule per i
            return prepared_mod.prepare_size_free(
                parse(f"h(X) :- p(X, {i}).")
            ).compiled[0]

        rules = [shape(i) for i in range(cap + extra)]
        stats = prepared_cache_stats()
        assert len(prepared_mod._RULES) == stats["rule_entries"] == cap
        assert (stats["rule_misses"], stats["rule_hits"]) == (cap + extra, 0)
        assert shape(cap + extra - 1) is rules[-1]  # recent: a hit
        assert prepared_cache_stats()["rule_hits"] == 1
        shape(0)  # evicted: planned again, evicting the next oldest
        stats = prepared_cache_stats()
        assert (stats["rule_misses"], stats["rule_entries"]) == (cap + extra + 1, cap)
        assert len(planned) == cap + extra + 1


UNSAFE = "p@nd(X) :- b(Y).\np@nd(X) :- b(X).\n?- p@nd(X)."
ARITY = "q@n(X) :- b(X), b(X, Y).\n?- q@n(X)."


class TestValidation:
    """The checks moved from every evaluation to each public entry; they
    were not dropped."""

    @pytest.mark.parametrize("text, error", [(UNSAFE, SafetyError), (ARITY, ArityError)])
    def test_delete_rules(self, text, error):
        with pytest.raises(error):
            delete_rules(pe.adorned_from_text(text))

    @pytest.mark.parametrize("text, error", [(UNSAFE, SafetyError), (ARITY, ArityError)])
    def test_chase_deletable(self, text, error):
        with pytest.raises(error):
            chase_deletable(pe.adorned_from_text(text), 0)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("p(X) :- b(Y).\np(X) :- b(X).\n?- p(X).", SafetyError),
            ("q(X) :- b(X), b(X, Y).\nq(X) :- b(X).\n?- q(X).", ArityError),
        ],
    )
    def test_uniform_entries(self, text, error):
        bad, good = parse(text), parse("p(X) :- b(X).\n?- p(X).")
        for call in (
            lambda: ue.rule_deletable_uniform(bad, 1),
            lambda: ue.literal_deletable_uniform(bad, 1, 0),
            lambda: ue.uniformly_contains(bad, good),
            lambda: ue.uniformly_contains(good, bad),
            lambda: ue.minimize_uniform(bad),
        ):
            with pytest.raises(error):
                call()
