"""Differential oracle for the cost-based planner: cost vs greedy.

Join order is a pure work optimization — under set semantics the
semi-naive fixpoint derives exactly the same facts whatever order each
body is probed in.  This suite pins that invariant *harder* than the
strategy-agreement oracle: not just equal answer sets, but bit-identical
**fact sets per predicate** and equal ``fact_counts``, across curated
families and 200 fixed random programs, with the adaptive replanner
both at its default cadence and forced to re-plan every round.

(Round counts are deliberately *not* compared: facts derived during a
round are immediately visible to later index probes of the same round,
so how far one naive round reaches legitimately depends on probe
order — the fixpoint, not the rounds, is the planner's contract.)

Like every oracle module it honours ``REPRO_ORACLE_BASE``, so CI's
flag matrix sweeps the planner differential across the kernel /
index / scheduler axes too.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import evaluate
from repro.workloads.edb import random_edb
from repro.workloads.families import all_families

from ..property.strategies import random_programs
from .harness import engine_options

FAMILIES = all_families()

#: planner lanes checked pairwise against the greedy baseline
LANES = {
    "greedy": {"use_cost_planner": False},
    "cost": {"use_cost_planner": True},
    "cost-eager-replan": {"use_cost_planner": True, "replan_rounds": 1},
    "cost-no-replan": {"use_cost_planner": True, "replan_rounds": 0},
}


def _lane_results(program, db):
    out = {}
    for lane, overrides in LANES.items():
        result = evaluate(program, db, engine_options(overrides))
        facts = {
            p: result.facts(p) for p in sorted(result.stats.fact_counts)
        }
        out[lane] = (
            result.answers(),
            facts,
            dict(result.stats.fact_counts),
        )
    return out


def _assert_lanes_identical(program, db, context):
    lanes = _lane_results(program, db)
    baseline = lanes["greedy"]
    for lane, got in lanes.items():
        for what, a, b in zip(
            ("answers", "facts", "fact_counts"), baseline, got
        ):
            assert a == b, (
                f"{context}: lane {lane!r} diverged from greedy "
                f"on {what}"
            )


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_planner_lanes_on_curated_families(name, seed):
    program = FAMILIES[name]
    db = random_edb(program, rows=14, domain=7, seed=seed)
    _assert_lanes_identical(program, db, f"{name}/seed={seed}")


@given(random_programs(), st.integers(min_value=0, max_value=3))
@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_planner_lanes_on_random_programs(program, seed):
    """200 fixed random programs: the DP's orders and the replanner's
    mid-fixpoint swaps never change what is derived, only the work."""
    program.validate()
    db = random_edb(program, rows=10, domain=5, seed=seed)
    _assert_lanes_identical(program, db, f"random/seed={seed}")
