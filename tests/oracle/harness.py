"""The differential-testing oracle: one program, many evaluators.

Every engine in the repo claims to compute the same thing — the answer
set of a query over a database.  The oracle exploits that redundancy:
evaluate a program under every applicable strategy, before and after
the optimization pipeline, and assert the answer sets are identical.
Any single unsound component (an index that drops rows, a delta plan
that misses a derivation, a scheduler that runs a unit too early, a
pipeline pass that changes the query) breaks the agreement and is
reported with the strategy that diverged.

Strategies covered:

``naive``
    Bottom-up, full re-evaluation each round.
``scc-scheduler``
    The default production engine: SCC-condensation scheduling over
    delta-rule specialization, hash indexes, and compiled rule kernels.
``seminaive-monolithic``
    The same engine with scheduling disabled (``use_scc=False``, the
    CLI's ``--no-scc``): each stratum runs as one monolithic semi-naive
    fixpoint — the pre-scheduler engine, so unit scheduling is
    differentially tested against the loop it replaced.
``seminaive-interp``
    The scheduled engine on the plan interpreter (``use_kernels=False``,
    the CLI's ``--no-kernel``), so every generated kernel is
    differentially tested against the interpreter it replaced.
``seminaive-scan``
    The scheduled semi-naive loops forced onto full scans
    (``use_indexes=False``, the CLI's ``--no-index``), so index probe
    answering is differentially tested against plain filtering.
``seminaive-scan-interp``
    Scans and the interpreter together — the seed engine's behaviour
    plus scheduling, covering the scan-mode codegen as well.
``greedy-planner``
    The scheduled engine with the cost-based join planner disabled
    (``use_cost_planner=False``, the CLI's ``--no-cost-planner``), so
    every DP-chosen join order — and every adaptive inter-round
    replan — is differentially tested against the greedy orders it
    replaced.
``eager-replan``
    The cost planner with re-planning forced on every round
    (``replan_rounds=1``), stressing the delta-plan swap path as hard
    as the fixpoint allows.
``topdown``
    The tabled top-down (QSQR) evaluator — a completely independent
    implementation; skipped for programs with negation, which it does
    not support.

Each strategy also runs on the *optimized* program (answers projected
onto the original query's needed positions), so the pipeline is tested
against every engine, not just the default one.

The ``REPRO_ORACLE_BASE`` environment variable overlays base engine
options under every strategy (strategy-specific overrides win), e.g.
``REPRO_ORACLE_BASE=no-kernel,parallel=4`` re-runs the whole oracle
suite with the interpreter and a 4-thread unit scheduler.  CI uses this
to sweep the engine flag matrix without duplicating the suite.

Answer sets are compared **type-exactly**: Python's ``1 == True ==
1.0`` would let a strategy that returns ``(1, 3)`` pass against one
that returns ``(True, 3)``, so every value is tagged with its type
before comparing.
"""

from __future__ import annotations

import os

from repro.core import optimize
from repro.datalog import Database, Program
from repro.engine import EngineOptions, evaluate
from repro.engine.topdown import evaluate_topdown

__all__ = [
    "STRATEGIES",
    "BASE_OVERRIDES",
    "engine_options",
    "strategy_answers",
    "assert_all_agree",
    "typed",
]

#: label -> EngineOptions overrides for the bottom-up engine
STRATEGIES: dict[str, dict] = {
    "naive": {"strategy": "naive"},
    "scc-scheduler": {},
    "seminaive-monolithic": {"use_scc": False},
    "seminaive-interp": {"use_kernels": False},
    "seminaive-scan": {"use_indexes": False},
    "seminaive-scan-interp": {"use_indexes": False, "use_kernels": False},
    "greedy-planner": {"use_cost_planner": False},
    "eager-replan": {"replan_rounds": 1},
}


def _base_overrides() -> dict:
    """Parse ``REPRO_ORACLE_BASE`` (comma-joined flags) once at import."""
    out: dict = {}
    spec = os.environ.get("REPRO_ORACLE_BASE", "")
    for token in filter(None, (t.strip() for t in spec.split(","))):
        if token == "no-scc":
            out["use_scc"] = False
        elif token == "no-kernel":
            out["use_kernels"] = False
        elif token == "no-index":
            out["use_indexes"] = False
        elif token == "no-cost-planner":
            out["use_cost_planner"] = False
        elif token.startswith("parallel="):
            out["parallel"] = int(token.split("=", 1)[1])
        else:
            raise ValueError(f"unknown REPRO_ORACLE_BASE token {token!r}")
    return out


BASE_OVERRIDES: dict = _base_overrides()


def engine_options(overrides: dict) -> EngineOptions:
    """Strategy overrides layered over the suite-wide base overrides."""
    return EngineOptions(**{**BASE_OVERRIDES, **overrides})


def strategy_answers(program: Program, db: Database) -> dict[str, frozenset]:
    """Answer sets of *program* over *db* per evaluation strategy."""
    out = {
        label: evaluate(program, db, engine_options(overrides)).answers()
        for label, overrides in STRATEGIES.items()
    }
    if not program.has_negation():
        out["topdown"] = evaluate_topdown(program, db).answers
    return out


def typed(rows) -> frozenset:
    """*rows* with every value tagged by its exact type, so equal-but-
    differently-typed constants (``1``, ``True``, ``1.0``) differ."""
    return frozenset(tuple((type(v), v) for v in row) for row in rows)


def _assert_agree(answers: dict[str, frozenset], context: str) -> None:
    baseline_label, baseline = next(iter(answers.items()))
    want = typed(baseline)
    for label, got in answers.items():
        have = typed(got)
        assert have == want, (
            f"{context}: strategy {label!r} computed {len(got)} answers "
            f"but {baseline_label!r} computed {len(baseline)}; "
            f"only-in-{label}={sorted(have - want, key=repr)[:5]} "
            f"only-in-{baseline_label}={sorted(want - have, key=repr)[:5]}"
        )


def assert_all_agree(program: Program, db: Database) -> frozenset:
    """The full differential check; returns the agreed answer set.

    1. every strategy agrees on the *original* program;
    2. every bottom-up strategy agrees on the *optimized* program;
    3. optimized answers equal the original answers projected onto the
       query's needed positions (``reference_answers``).
    """
    pre = strategy_answers(program, db)
    _assert_agree(pre, "pre-optimizer")

    # validate=True arms the pass-contract sanitizer: every differential
    # run also checks each pipeline pass against its published invariant.
    result = optimize(program, validate=True)
    post = {
        label: result.answers(db, **{**BASE_OVERRIDES, **overrides})
        for label, overrides in STRATEGIES.items()
    }
    _assert_agree(post, "post-optimizer")

    reference = result.reference_answers(db)
    assert typed(post["scc-scheduler"]) == typed(reference), (
        f"optimizer changed the answers: optimized={len(post['scc-scheduler'])} "
        f"reference={len(reference)}"
    )
    return reference
