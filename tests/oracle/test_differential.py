"""Differential oracle suite: all evaluators agree, pre and post
optimizer, on curated families and on random programs.

The random half runs with a fixed Hypothesis profile
(``derandomize=True``) so CI and ``make check`` execute the same 200+
cases every time — the oracle is a regression gate, not a fuzzer; the
open-ended exploration lives in tests/property.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog import Database, parse
from repro.workloads.edb import random_edb
from repro.workloads.families import all_families
from repro.workloads.paper_examples import example1_program

from ..property.strategies import random_programs
from .harness import STRATEGIES, assert_all_agree, strategy_answers, typed

FAMILIES = all_families()


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_on_curated_families(name, seed):
    program = FAMILIES[name]
    db = random_edb(program, rows=14, domain=7, seed=seed)
    assert_all_agree(program, db)


def test_oracle_on_example1():
    program = example1_program()
    db = random_edb(program, rows=20, domain=8, seed=0)
    assert_all_agree(program, db)


def test_oracle_on_mixed_type_constants():
    """``1 == True`` in Python, but they are distinct constants: every
    strategy must answer ``(True, 3)``, not ``(1, 3)``."""
    program = parse(
        "tc(X, Y) :- edge(X, Y).\n"
        "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
        "?- tc(X, Y).\n"
    )
    db = Database.from_dict({"edge": [(1, 2), (True, 3)]})
    answers = assert_all_agree(program, db)
    assert typed(answers) == typed({(1, 2), (True, 3)})


def test_strategy_catalog_is_exercised():
    """The oracle really runs every advertised strategy (plus topdown
    on negation-free programs) — guard against a silently skipped
    engine making the agreement vacuous."""
    program = FAMILIES["right_linear_tc"]
    db = random_edb(program, rows=10, domain=5, seed=0)
    answers = strategy_answers(program, db)
    assert set(answers) == set(STRATEGIES) | {"topdown"}
    negated = FAMILIES["win_move_stratified"]
    db2 = random_edb(negated, rows=10, domain=5, seed=0)
    assert set(strategy_answers(negated, db2)) == set(STRATEGIES)


@given(random_programs(), st.integers(min_value=0, max_value=3))
@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_oracle_on_random_programs(program, seed):
    """>= 200 fixed random programs through every evaluator x pre/post
    optimizer.  Any unsound index, delta plan, join order, existential
    cut, or pipeline pass breaks the agreement."""
    program.validate()
    db = random_edb(program, rows=10, domain=5, seed=seed)
    assert_all_agree(program, db)
