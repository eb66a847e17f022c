"""Fault injection and the graceful-degradation ladder.

Every recoverable fault must step the engine down exactly one rung —
kernel→interpreter, index→scan, SCC→monolithic, parallel→sequential —
and still produce the exact fixpoint.  A genuine worker exception
(``unit-error``) must surface verbatim: no deadlock, no swallowed
future, no wrapping that loses the original message.
"""

import pytest

from repro.datalog import Database, parse
from repro.datalog.errors import EvaluationError
from repro.engine import (
    EngineOptions,
    FaultPlan,
    InjectedUnitError,
    evaluate,
    parse_fault_specs,
)

PROGRAM = """
    tc1(X, Y) :- e1(X, Y).
    tc1(X, Y) :- e1(X, Z), tc1(Z, Y).
    tc2(X, Y) :- e2(X, Y).
    tc2(X, Y) :- e2(X, Z), tc2(Z, Y).
    both(X, Y) :- tc1(X, Y), tc2(X, Y).
    ?- both(X, Y).
"""


def chain(n):
    return [(i, i + 1) for i in range(n)]


def edb():
    return Database.from_dict({"e1": chain(10), "e2": chain(10)})


@pytest.fixture(scope="module")
def expected():
    return evaluate(parse(PROGRAM), edb()).answers()


class TestDegradationLadder:
    def test_kernel_fault_falls_back_to_interpreter(self, expected):
        plan = FaultPlan(kernel_compile=frozenset(["*"]))
        result = evaluate(
            parse(PROGRAM), edb(), EngineOptions(fault_plan=plan)
        )
        assert result.answers() == expected
        assert result.stats.kernel_launches == 0
        assert result.stats.degradations.get("kernel->interpreter", 0) > 0
        assert result.stats.faults_injected > 0
        assert not result.is_partial

    def test_kernel_fault_single_predicate(self, expected):
        plan = FaultPlan(kernel_compile=frozenset(["tc1"]))
        faulted = evaluate(
            parse(PROGRAM), edb(), EngineOptions(fault_plan=plan)
        )
        clean = evaluate(parse(PROGRAM), edb())
        assert faulted.answers() == expected
        # only tc1's rules lost their kernels; the rest still launch
        assert 0 < faulted.stats.kernel_launches < clean.stats.kernel_launches
        assert faulted.stats.degradations == {"kernel->interpreter": 1}

    def test_index_fault_falls_back_to_scans(self, expected):
        plan = FaultPlan(index_build=True)
        result = evaluate(
            parse(PROGRAM), edb(), EngineOptions(fault_plan=plan)
        )
        assert result.answers() == expected
        assert result.stats.index_probes == 0
        assert result.stats.scan_fallbacks > 0
        assert result.stats.degradations == {"index->scan": 1}

    def test_scheduler_fault_falls_back_to_monolithic(self, expected):
        plan = FaultPlan(scheduler=True)
        result = evaluate(
            parse(PROGRAM), edb(), EngineOptions(fault_plan=plan)
        )
        assert result.answers() == expected
        assert result.stats.units_scheduled == 0
        assert result.stats.degradations == {"scc->monolithic": 1}

    def test_worker_death_retries_sequentially(self, expected):
        plan = FaultPlan(worker_death=0)
        result = evaluate(
            parse(PROGRAM), edb(),
            EngineOptions(parallel=4, fault_plan=plan),
        )
        assert result.answers() == expected
        assert result.stats.degradations == {"parallel->sequential": 1}
        assert result.stats.faults_injected == 1

    def test_worker_death_without_parallelism(self, expected):
        """The ladder also covers sequential scheduling: the unit is
        simply retried inline."""
        plan = FaultPlan(worker_death=1)
        result = evaluate(
            parse(PROGRAM), edb(), EngineOptions(fault_plan=plan)
        )
        assert result.answers() == expected
        assert result.stats.degradations == {"parallel->sequential": 1}

    def test_stacked_faults_descend_multiple_rungs(self, expected):
        plan = FaultPlan(
            kernel_compile=frozenset(["*"]),
            index_build=True,
            worker_death=0,
        )
        result = evaluate(
            parse(PROGRAM), edb(),
            EngineOptions(parallel=2, fault_plan=plan),
        )
        assert result.answers() == expected
        assert result.stats.kernel_launches == 0
        assert result.stats.index_probes == 0
        assert set(result.stats.degradations) == {
            "kernel->interpreter",
            "index->scan",
            "parallel->sequential",
        }

    def test_slow_unit_changes_nothing_but_time(self, expected):
        plan = FaultPlan(slow_unit=0, slow_s=0.01)
        result = evaluate(
            parse(PROGRAM), edb(), EngineOptions(fault_plan=plan)
        )
        assert result.answers() == expected
        assert result.stats.degradations == {}

    def test_summary_mentions_degradations(self):
        plan = FaultPlan(kernel_compile=frozenset(["*"]))
        result = evaluate(
            parse(PROGRAM), edb(), EngineOptions(fault_plan=plan)
        )
        text = result.stats.summary()
        assert "faults=" in text
        assert "kernel->interpreter" in text


class TestWorkerFailureSurfaces:
    """Satellite: a worker thread raising mid-unit must surface the
    original exception — not deadlock, not vanish into a dropped
    future — and the per-unit stats gathered before the failure must
    still merge."""

    def test_unit_error_surfaces_verbatim(self):
        plan = FaultPlan(unit_error=0)
        with pytest.raises(InjectedUnitError) as exc:
            evaluate(
                parse(PROGRAM), edb(),
                EngineOptions(parallel=4, fault_plan=plan),
            )
        # the original message, not a wrapper's
        assert "injected unit error" in str(exc.value)
        # deliberately NOT part of the ReproError hierarchy: genuine
        # defects must not be mistaken for governed outcomes
        assert not isinstance(exc.value, EvaluationError)

    @pytest.mark.parametrize("ordinal", [0, 1, 2])
    def test_unit_error_any_unit(self, ordinal):
        plan = FaultPlan(unit_error=ordinal)
        with pytest.raises(InjectedUnitError):
            evaluate(
                parse(PROGRAM), edb(),
                EngineOptions(parallel=4, fault_plan=plan),
            )

    def test_unit_error_sequential_scheduling(self):
        plan = FaultPlan(unit_error=0)
        with pytest.raises(InjectedUnitError):
            evaluate(parse(PROGRAM), edb(), EngineOptions(fault_plan=plan))

    def test_no_deadlock_or_swallow_20x(self):
        """20 repetitions: the failing future must be collected every
        time regardless of thread interleaving."""
        program = parse(PROGRAM)
        plan = FaultPlan(unit_error=1)
        for _ in range(20):
            with pytest.raises(InjectedUnitError):
                evaluate(
                    program, edb(),
                    EngineOptions(parallel=4, fault_plan=plan),
                )

    def test_sibling_unit_stats_still_merge(self):
        """Work done by units that completed before the failure is not
        lost: the barrier merges every unit's partial statistics before
        re-raising, so the shared stats object already holds the
        sibling's counters when the exception surfaces."""
        from repro.datalog.analysis import analyze
        from repro.engine.faults import FaultInjector
        from repro.engine.governor import Governor
        from repro.engine.plan import compile_rule
        from repro.engine.scheduler import run_scheduled
        from repro.engine.statistics import EvalStats

        program = parse(PROGRAM)
        # fail the second unit of the depth-0 batch (tc2); its sibling
        # tc1 completes and must be merged before the error is raised
        plan = FaultPlan(unit_error=1)
        opts = EngineOptions(parallel=4, fault_plan=plan)
        governor = Governor(opts, FaultInjector(plan))
        info = analyze(program)
        strata = [
            [compile_rule(r, i) for i, r in enumerate(program.rules)]
        ]
        db = edb().copy(mutating=program.idb_predicates())
        arities = program.arities()
        for pred in program.idb_predicates():
            db.ensure(pred, arities[pred])
        stats = EvalStats()
        with pytest.raises(InjectedUnitError):
            run_scheduled(strata, info, db, stats, {}, opts, governor)
        assert stats.units_scheduled >= 1  # sibling merged before raise
        assert "tc1" in stats.unit_rounds  # ...including its rounds
        assert stats.facts_derived > 0
        assert len(db.rows("tc1")) == 55  # tc1's fixpoint completed


class TestFaultSpecParsing:
    def test_round_trip_all_specs(self):
        plan = parse_fault_specs(
            [
                "kernel-compile:tc1",
                "index-build",
                "scheduler",
                "worker-death:2",
                "unit-error:3",
                "slow-unit:1:0.25",
            ]
        )
        assert plan.kernel_compile == frozenset(["tc1"])
        assert plan.index_build and plan.scheduler
        assert plan.worker_death == 2
        assert plan.unit_error == 3
        assert plan.slow_unit == 1 and plan.slow_s == 0.25

    def test_kernel_compile_wildcard(self):
        assert parse_fault_specs(["kernel-compile"]).kernel_compile == frozenset(
            ["*"]
        )

    def test_empty_specs_mean_no_faults(self):
        assert not parse_fault_specs([]).any()

    @pytest.mark.parametrize(
        "spec",
        # "columnar" named the retired columnar->tuple rung
        ["bogus", "columnar", "worker-death", "worker-death:x", "slow-unit:0:x"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(EvaluationError):
            parse_fault_specs([spec])
