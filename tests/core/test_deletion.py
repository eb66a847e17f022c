"""Tests for rule deletion (sections 3.3 and 5): Lemma 5.1, Lemma 5.3,
the uniform-query-equivalence chase, and the cascade clean-ups."""

import pytest

from repro.datalog import TransformError
from repro.engine import evaluate
from repro.core.adornment import adorn
from repro.core.deletion import (
    cascade,
    chase_deletable,
    delete_rules,
    lemma51_deletable,
    lemma53_deletable,
)
from repro.workloads.edb import random_edb
from repro.workloads.paper_examples import (
    adorned_from_text,
    example5_adorned_text,
    example6_optimized_text,
    example7_adorned,
    example7_reduced_text,
    example8_adorned,
    example8_empty_adorned,
    example9_adorned,
    example10_adorned,
)


def normalize(text):
    return sorted(
        line.strip() for line in str(text).strip().splitlines() if line.strip()
    )


def assert_same_answers(adorned1, adorned2, seeds=range(4), rows=20, domain=8):
    p1, p2 = adorned1.to_program(), adorned2.to_program()
    for seed in seeds:
        db = random_edb(p1, rows=rows, domain=domain, seed=seed)
        assert evaluate(p1, db).answers() == evaluate(p2, db).answers(), seed


class TestLemma51:
    def test_example7_rule5_via_unit_rule(self):
        assert lemma51_deletable(example7_adorned(), 5) is not None

    def test_example7_rule6_via_trivial_identity(self):
        assert lemma51_deletable(example7_adorned(), 6) is not None

    def test_example7_exit_rules_not_deletable(self):
        program = example7_adorned()
        assert lemma51_deletable(program, 2) is None  # p@nd :- b1
        assert lemma51_deletable(program, 4) is None  # p@nn :- b1

    def test_example10_needs_lemma53(self):
        assert lemma51_deletable(example10_adorned(), 4) is None

    def test_unit_rule_cannot_justify_itself(self):
        # only the unit rule itself reaches a@nn: deleting it must not
        # be justified by itself
        program = adorned_from_text(
            """
            a@nd(X) :- a@nn(X, Y).
            a@nd(X) :- p(X, Y).
            a@nn(X, Y) :- p(X, Y).
            ?- a@nd(X).
            """
        )
        assert lemma51_deletable(program, 0) is None

    def test_requires_projected(self):
        from repro.workloads.paper_examples import example5_program

        with pytest.raises(TransformError):
            lemma51_deletable(adorn(example5_program()), 0)


class TestLemma53:
    def test_example10_rule4(self):
        assert lemma53_deletable(example10_adorned(), 4) is not None

    def test_example9_blind_without_fold(self):
        program = example9_adorned()
        for ri in range(len(program.rules)):
            assert lemma53_deletable(program, ri) is None

    def test_subsumes_lemma51_on_example7(self):
        program = example7_adorned()
        for ri in (5, 6):
            assert lemma53_deletable(program, ri) is not None


class TestChase:
    def test_example6_recursive_rule(self):
        program = adorned_from_text(example5_adorned_text())
        assert chase_deletable(program, 2) is not None

    def test_example6_needed_rules_kept(self):
        program = adorned_from_text(example5_adorned_text())
        assert chase_deletable(program, 0) is None
        assert chase_deletable(program, 1) is None

    def test_example9_without_fold(self):
        # the chase sees what summaries cannot (paper section 6)
        assert chase_deletable(example9_adorned(), 3) is not None

    def test_fact_rules_not_considered(self):
        program = adorned_from_text(
            """
            q@n(X) :- e(X, Y).
            ?- q@n(X).
            """
        )
        assert chase_deletable(program, 0) is None


class TestCascade:
    def test_undefined_predicate(self):
        program = adorned_from_text(
            """
            q@n(X) :- ghost@n(X).
            q@n(X) :- e(X).
            ?- q@n(X).
            """
        )
        report = cascade(program)
        assert len(report.program) == 1
        assert "unproductive" in report.deleted[0].reason

    def test_no_exit_rule(self):
        program = adorned_from_text(
            """
            q@n(X) :- r@n(X).
            q@n(X) :- e(X).
            r@n(X) :- r@n(X).
            ?- q@n(X).
            """
        )
        report = cascade(program)
        assert len(report.program) == 1

    def test_unreachable(self):
        program = adorned_from_text(
            """
            q@n(X) :- e(X).
            orphan@n(X) :- f(X).
            ?- q@n(X).
            """
        )
        report = cascade(program)
        assert len(report.program) == 1
        assert "unreachable" in report.deleted[0].reason

    def test_clean_program_untouched(self):
        program = adorned_from_text(example5_adorned_text())
        report = cascade(program)
        assert report.deleted == ()
        assert report.program is not None and len(report.program) == 4


class TestDriver:
    def test_example6_full_sequence(self):
        program = adorned_from_text(example5_adorned_text())
        report = delete_rules(program, use_sagiv=False)
        assert normalize(report.program) == normalize(example6_optimized_text())
        assert_same_answers(program, report.program)

    def test_example7_summary_only(self):
        program = example7_adorned()
        report = delete_rules(
            program, method="lemma51", use_chase=False, use_sagiv=False
        )
        assert normalize(report.program) == normalize(example7_reduced_text())
        assert_same_answers(program, report.program)

    def test_example7_chase_goes_further(self):
        program = example7_adorned()
        report = delete_rules(program, method="lemma51", use_sagiv=False)
        # the redundant p@nd :- b1 falls to the chase
        assert len(report.program) < 3
        assert_same_answers(program, report.program)

    def test_example8_chain(self):
        program = example8_adorned()
        report = delete_rules(
            program, method="lemma51", use_chase=False, use_sagiv=False
        )
        reasons = [d.reason for d in report.deleted]
        assert any("lemma5.1" in r for r in reasons)
        assert any("unproductive" in r for r in reasons)
        assert any("unreachable" in r for r in reasons)
        assert_same_answers(program, report.program)

    def test_example8_empty_detected(self):
        report = delete_rules(example8_empty_adorned(), use_sagiv=False, use_chase=False)
        assert len(report.program) == 0

    def test_example10_driver(self):
        program = example10_adorned()
        report = delete_rules(
            program, method="lemma53", use_chase=False, use_sagiv=False
        )
        assert report.count >= 2
        assert_same_answers(program, report.program)

    def test_lemma51_method_weaker_on_example10(self):
        program = example10_adorned()
        r51 = delete_rules(program, method="lemma51", use_chase=False, use_sagiv=False)
        r53 = delete_rules(program, method="lemma53", use_chase=False, use_sagiv=False)
        assert len(r53.program) <= len(r51.program)

    def test_unknown_method_rejected(self):
        with pytest.raises(TransformError):
            delete_rules(example7_adorned(), method="bogus")

    def test_deletion_always_equivalent(self):
        for make in (
            example7_adorned,
            example8_adorned,
            example9_adorned,
            example10_adorned,
        ):
            program = make()
            report = delete_rules(program)
            assert_same_answers(program, report.program, seeds=range(3))


class TestSagivMemo:
    """A positive program's fixpoint is monotone in its rule set, so a
    rule that failed Sagiv's test fails it on every sub-program the
    driver later reaches: one ``delete_rules`` call tests each rule at
    most once."""

    @pytest.mark.parametrize(
        "make",
        [
            example7_adorned,
            example8_adorned,
            example9_adorned,
            example10_adorned,
            lambda: adorned_from_text(example5_adorned_text()),
        ],
        ids=["example7", "example8", "example9", "example10", "example5"],
    )
    def test_each_rule_tested_at_most_once(self, make, monkeypatch):
        import repro.core.deletion as deletion

        seen = []
        real = deletion.sagiv_deletable

        def spy(plain, ri):
            seen.append(plain.rules[ri])
            return real(plain, ri)

        monkeypatch.setattr(deletion, "sagiv_deletable", spy)
        program = make()
        report = delete_rules(program)
        assert seen and len(seen) == len(set(seen))
        seen.clear()
        assert delete_rules(program) == report  # the memo is per call
        assert seen and len(seen) == len(set(seen))
