"""Regenerate the EXPERIMENTS.md measurement tables in one shot.

Unlike ``pytest benchmarks/ --benchmark-only`` (statistically careful,
slow), this script runs each configuration once with a warm-up and
prints paper-shaped tables: experiment id, configurations, wall-clock,
and the work counters the paper's arguments are about.

Usage::

    python benchmarks/run_report.py            # all experiments
    python benchmarks/run_report.py e3 e6 p5   # a selection
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.core.pipeline import optimize
from repro.datalog.parser import parse
from repro.engine import EngineOptions, evaluate
from repro.engine.topdown import evaluate_topdown
from repro.rewriting import magic_sets

import bench_durability as dur
import bench_example2_cut as e2
import bench_example3_projection as e3
import bench_example6_uqe as e6
import bench_example12_transform as e12
import bench_arity_sweep as p5
import bench_incremental as ivm
import bench_magic_composition as p4
import bench_planner as plan
import bench_scheduler as sched
import bench_topdown_vs_magic as td


#: optimized configurations that derived MORE facts than their
#: unoptimized baseline — populated by the reports, checked by main(),
#: which exits nonzero if any appear (the paper's "at least as well"
#: claim, enforced on every regenerated table).
VIOLATIONS: list[str] = []

#: informational findings — printed at the end but never failing the
#: build.  Wall-clock ratios live here: they measure the machine under
#: the bench (CPU, filesystem, thermal state) as much as the engine,
#: so gating on them makes CI flaky.  Hard gates use work counters
#: (join work, fact counts), which are machine-independent.
WARNINGS: list[str] = []


def warn(message: str) -> None:
    WARNINGS.append(message)


def check_no_extra_facts(experiment: str, label: str, optimized: int, baseline: int) -> None:
    if optimized > baseline:
        VIOLATIONS.append(
            f"{experiment}: {label} derived {optimized} facts "
            f"vs {baseline} for its unoptimized baseline"
        )


def load_baseline(path: Path) -> "dict | None":
    """The committed ``BENCH_*.json`` baseline, or ``None`` with a warning.

    A missing or malformed baseline (fresh checkout, interrupted earlier
    run, merge damage) must not crash the report or fail the build — it
    just means there is nothing to diff against this time.  Only *real*
    regressions (fact-count increases vs a readable baseline) exit
    nonzero.
    """
    try:
        with open(path) as f:
            data = json.load(f)
    except FileNotFoundError:
        print(
            f"warning: no baseline {path.name}; skipping regression "
            f"comparison (it will be written fresh)",
            file=sys.stderr,
        )
        return None
    except (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
        print(
            f"warning: baseline {path.name} is unreadable ({exc}); "
            f"skipping regression comparison and rewriting it",
            file=sys.stderr,
        )
        return None
    if not isinstance(data, dict):
        print(
            f"warning: baseline {path.name} is not a JSON object; "
            f"skipping regression comparison and rewriting it",
            file=sys.stderr,
        )
        return None
    return data


def check_against_baseline(experiment: str, baseline: "dict | None",
                           family: str, config: str, facts: int) -> None:
    """Fact-count regression vs the committed baseline, if comparable.

    Entries the baseline lacks (new family/config, or a hand-edited
    file missing keys) are skipped silently — absence of a baseline
    number is not a regression.
    """
    if baseline is None:
        return
    entry = baseline.get(family, {})
    if not isinstance(entry, dict):
        return
    cfg = entry.get(config, {})
    if not isinstance(cfg, dict):
        return
    recorded = cfg.get("facts_derived")
    if isinstance(recorded, int):
        check_no_extra_facts(
            experiment, f"{config} on {family} vs committed baseline",
            facts, recorded,
        )


def timed(fn):
    fn()  # warm-up
    start = time.perf_counter()
    out = fn()
    return (time.perf_counter() - start) * 1000.0, out


def table(title: str, headers: list[str], rows: list[list]) -> None:
    print()
    print(f"== {title} ==")
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def fmt(ms: float) -> str:
    return f"{ms:9.1f} ms"


def report_e2() -> None:
    rows = []
    for n in e2.SIZES:
        db = e2.make_db(n)
        for label, (prog, opts) in e2.configs(n).items():
            ms, res = timed(lambda p=prog, o=opts: evaluate(p, db, o))
            rows.append([f"n={n}", label, fmt(ms), res.stats.rows_scanned])
    table("E2 — boolean cut (Example 2)", ["size", "config", "time", "rows scanned"], rows)


def report_e3() -> None:
    original, projected = e3.programs()
    rows = []
    for n in e3.SIZES:
        db = e3.make_db(n)
        facts = {}
        for label, prog in (("binary (original)", original), ("unary (projected)", projected)):
            ms, res = timed(lambda p=prog: evaluate(p, db))
            facts[label] = res.stats.facts_derived
            rows.append([f"V={n}", label, fmt(ms), res.stats.facts_derived, res.stats.duplicates])
        check_no_extra_facts(
            "e3", f"unary (projected) V={n}",
            facts["unary (projected)"], facts["binary (original)"],
        )
    table(
        "E3/P2 — projection pushing (Example 3)",
        ["size", "config", "time", "facts", "dups"],
        rows,
    )


def report_e6() -> None:
    original, optimized = e6.programs()
    rows = []
    for n in e6.SIZES:
        db = e6.make_db(n)
        facts = {}
        for label, prog in (("4 rules (original)", original), ("1 rule (optimized)", optimized)):
            ms, res = timed(lambda p=prog: evaluate(p, db))
            facts[label] = res.stats.facts_derived
            rows.append([f"V={n}", label, fmt(ms), res.stats.facts_derived])
        check_no_extra_facts(
            "e6", f"1 rule (optimized) V={n}",
            facts["1 rule (optimized)"], facts["4 rules (original)"],
        )
    table("E6 — uniform query equivalence (Example 6)", ["size", "config", "time", "facts"], rows)


def report_e12() -> None:
    rows = []
    for height, tags in e12.SIZES:
        db = e12.make_db(height, tags)
        facts = {}
        for label, prog in (
            ("arity-3 (original)", e12.example12_original()),
            ("arity-2 (transformed)", e12.example12_transformed()),
        ):
            ms, res = timed(lambda p=prog: evaluate(p, db))
            facts[label] = res.stats.facts_derived
            rows.append([f"h={height} tags={tags}", label, fmt(ms), res.stats.facts_derived])
        check_no_extra_facts(
            "e12", f"arity-2 (transformed) h={height} tags={tags}",
            facts["arity-2 (transformed)"], facts["arity-3 (original)"],
        )
    table("E12 — section-6 transformation", ["size", "config", "time", "facts"], rows)


def report_p4() -> None:
    rows = []
    for layers, width in p4.SIZES:
        db = p4.make_db(layers, width)
        for label, (prog, opts) in p4.configurations().items():
            ms, res = timed(lambda p=prog, o=opts: evaluate(p, db, o))
            rows.append([f"{layers}x{width}", label, fmt(ms), res.stats.facts_derived])
    table("P4 — magic composition", ["dag", "config", "time", "facts"], rows)


def report_p5() -> None:
    rows = []
    for k in (0, 1, 2):
        prog = p5.program_with_payload(k)
        db = p5.make_db(k)
        result = optimize(prog)
        ms_o, res_o = timed(lambda: evaluate(prog, db))
        ms_x, res_x = timed(lambda: result.evaluate(db))
        check_no_extra_facts(
            "p5", f"optimized k={k}",
            res_x.stats.facts_derived, res_o.stats.facts_derived,
        )
        rows.append([f"k={k}", fmt(ms_o), fmt(ms_x)])
    table("P5 — arity sweep", ["payload", "original", "optimized"], rows)


def report_td() -> None:
    rows = []
    for n in td.SIZES:
        prog = td.program(n - 10)
        db = td.make_db(n)
        ms_bu, _ = timed(lambda: evaluate(prog, db))
        ms_m, _ = timed(lambda: evaluate(magic_sets(prog).program, db))
        ms_td, _ = timed(lambda: evaluate_topdown(prog, db))
        rows.append([f"n={n}", fmt(ms_bu), fmt(ms_m), fmt(ms_td)])
    table(
        "TD — goal direction (bottom-up / magic / tabled top-down)",
        ["size", "bottom-up", "magic", "top-down"],
        rows,
    )


def report_ix() -> None:
    """Indexed semi-naive engine vs the ``--no-index`` scan baseline."""
    from harness import Workload, index_ablation

    original, _ = e3.programs()
    n = e3.SIZES[-1]
    cases = [
        Workload(f"e3 binary TC V={n}", original, e3.make_db(n)),
        Workload("p5 payload k=2", p5.program_with_payload(2), p5.make_db(2)),
    ]
    rows = []
    for wl in cases:
        indexed, scan = index_ablation(wl)
        ratio = scan.join_work / max(1, indexed.join_work)
        rows.append([
            wl.label, "indexed", indexed.rows_scanned, indexed.index_probes,
            indexed.index_builds, indexed.join_work, "",
        ])
        rows.append([
            wl.label, "scan (--no-index)", scan.rows_scanned, 0,
            0, scan.join_work, f"x{ratio:.1f}",
        ])
    table(
        "IX — hash indexes vs full scans (identical answers)",
        ["workload", "engine", "rows scanned", "index probes", "builds", "join work", "speedup"],
        rows,
    )


#: machine-readable engine trajectory, regenerated by report_engine()
#: and committed so future engine PRs have a baseline to diff against
ENGINE_JSON = Path(__file__).parent / "BENCH_engine.json"

#: per-family engine configurations: compiled kernels (default engine),
#: the plan interpreter (--no-kernel), and the scan baseline (--no-index)
ENGINE_CONFIGS = {
    "kernel": {},
    "interpreter": {"use_kernels": False},
    "no-index": {"use_indexes": False, "use_kernels": False},
}


def _engine_families():
    original, _ = e3.programs()
    n = e3.SIZES[-1]
    fams = {f"e3-binary-tc-V{n}": (original, lambda n=n: e3.make_db(n))}
    for k in (0, 1, 2):
        fams[f"p5-arity-k{k}"] = (
            p5.program_with_payload(k),
            lambda k=k: p5.make_db(k),
        )
    return fams


def report_engine() -> None:
    """Kernel / interpreter / scan ablation; writes BENCH_engine.json.

    Every configuration of a family must reach the same fixpoint; a
    fact-count divergence is reported through the same gate as the
    optimizer regressions.
    """
    payload = {
        "_meta": {
            "configs": {
                name: (overrides or "engine defaults")
                for name, overrides in ENGINE_CONFIGS.items()
            },
            "note": "wall-clock is one warmed run on this machine; the "
            "work counters are deterministic and the quantities to "
            "diff across PRs",
        }
    }
    baseline = load_baseline(ENGINE_JSON)
    rows = []
    for family, (program, make_db) in _engine_families().items():
        payload[family] = {}
        fact_counts = {}
        times = {}
        for config, overrides in ENGINE_CONFIGS.items():
            db = make_db()  # fresh (cold) database per configuration
            opts = EngineOptions(**overrides)
            ms, res = timed(lambda p=program, d=db, o=opts: evaluate(p, d, o))
            times[config] = ms
            fact_counts[config] = res.stats.facts_derived
            payload[family][config] = {
                "wall_ms": round(ms, 3),
                **res.stats.as_dict(),
            }
            check_against_baseline(
                "engine", baseline, family, config, res.stats.facts_derived
            )
            rows.append([family, config, fmt(ms), res.stats.facts_derived,
                         res.stats.rows_scanned, res.stats.kernel_launches])
        for config in ("interpreter", "no-index"):
            check_no_extra_facts(
                "engine", f"kernel vs {config} on {family}",
                fact_counts["kernel"], fact_counts[config],
            )
        speedup = times["interpreter"] / max(times["kernel"], 1e-9)
        rows.append([family, "=> kernel speedup", f"x{speedup:.1f}", "", "", ""])
    with open(ENGINE_JSON, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    table(
        "ENGINE — compiled kernels vs interpreter vs scans",
        ["family", "config", "time", "facts", "rows scanned", "kernels"],
        rows,
    )
    print(f"(wrote {ENGINE_JSON.name})")


#: machine-readable scheduler ablation, regenerated by report_scheduler()
SCHEDULER_JSON = Path(__file__).parent / "BENCH_scheduler.json"

#: monolithic stratum loop (--no-scc) vs SCC scheduling vs SCC with a
#: 4-thread pool for same-depth units (--parallel 4)
SCHEDULER_CONFIGS = {
    "monolithic": {"use_scc": False},
    "scc": {},
    "scc-parallel": {"parallel": 4},
}


def report_scheduler() -> None:
    """Monolithic / SCC / SCC+parallel ablation; writes BENCH_scheduler.json.

    Every configuration of a workload must reach the same fixpoint; a
    fact-count divergence is reported through the same gate as the
    optimizer regressions.  Wall-clock for the parallel configuration
    is honest for *this* machine (core count recorded in the metadata):
    the scheduler's thread pool only helps when sibling units can run
    on distinct cores, and pure-Python joins serialize on the GIL, so
    the deterministic work counters are the portable quantities.
    """
    import os

    n = sched.SIZES[-1]
    workloads = {
        f"{name}-n{n}": (make_program(), lambda mk=make_db: mk(n))
        for name, (make_program, make_db) in sched.WORKLOADS.items()
    }
    payload = {
        "_meta": {
            "configs": {
                name: (overrides or "engine defaults")
                for name, overrides in SCHEDULER_CONFIGS.items()
            },
            "cpu_count": os.cpu_count(),
            "note": "wall-clock is one warmed run on this machine; "
            "scc-parallel wall-clock needs multiple cores (and a "
            "GIL-free interpreter) to beat scc, so the work counters "
            "are the quantities to diff across PRs",
        }
    }
    baseline = load_baseline(SCHEDULER_JSON)
    rows = []
    for family, (program, make_db) in workloads.items():
        payload[family] = {}
        fact_counts = {}
        join_work = {}
        for config, overrides in SCHEDULER_CONFIGS.items():
            db = make_db()  # fresh (cold) database per configuration
            opts = EngineOptions(**overrides)
            ms, res = timed(lambda p=program, d=db, o=opts: evaluate(p, d, o))
            fact_counts[config] = res.stats.facts_derived
            join_work[config] = res.stats.join_work
            payload[family][config] = {
                "wall_ms": round(ms, 3),
                **res.stats.as_dict(),
            }
            check_against_baseline(
                "scheduler", baseline, family, config, res.stats.facts_derived
            )
            rows.append([
                family, config, fmt(ms), res.stats.iterations,
                res.stats.join_work, res.stats.units_scheduled,
                res.stats.units_parallel,
            ])
        for config in ("scc", "scc-parallel"):
            check_no_extra_facts(
                "scheduler", f"{config} vs monolithic on {family}",
                fact_counts[config], fact_counts["monolithic"],
            )
        ratio = join_work["monolithic"] / max(1, join_work["scc"])
        rows.append([family, "=> scc join-work win", f"x{ratio:.1f}", "", "", "", ""])
    with open(SCHEDULER_JSON, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    table(
        "SCHED — SCC scheduling vs the monolithic stratum loop",
        ["workload", "config", "time", "iters", "join work", "units", "parallel"],
        rows,
    )
    print(f"(wrote {SCHEDULER_JSON.name})")


#: machine-readable governor-overhead measurement, regenerated by
#: report_governor()
GOVERNOR_JSON = Path(__file__).parent / "BENCH_governor.json"

#: the governed configuration arms every limit far above what the
#: workloads need, so every checkpoint runs its full check path but no
#: limit ever trips — the worst case for pure bookkeeping overhead
GOVERNOR_LIMITS = {
    "deadline_s": 3600.0,
    "max_facts": 10**12,
    "max_delta_rows": 10**12,
    "max_iterations": 10**9,
    "max_unit_iterations": 10**9,
}

GOVERNOR_CONFIGS = {
    "ungoverned": {},
    "governed-unhit": dict(GOVERNOR_LIMITS),
}


def report_governor() -> None:
    """Resource-governor overhead; writes BENCH_governor.json.

    Measures the scheduler workloads with no limits vs every limit set
    but never hit (the cost of the checkpoints themselves).  The target
    is <3% wall-clock overhead.  The difference being measured is a few
    hundred microseconds, so the harness is stricter than the other
    reports: trials are *interleaved* (ungoverned, governed,
    ungoverned, ...) with the per-config minimum taken, the cyclic
    garbage collector is paused during timing (a collection landing in
    one arm of a pair would swamp the difference), and statistics are
    harvested from separate untimed runs so the timed region retains
    nothing.  Answers must be bit-identical — a governed run that
    derives a different fact count is reported through the regression
    gate.
    """
    import gc

    TRIALS = 25

    n = sched.SIZES[-1]
    workloads = {
        f"{name}-n{n}": (make_program(), lambda mk=make_db: mk(n))
        for name, (make_program, make_db) in sched.WORKLOADS.items()
    }
    payload = {
        "_meta": {
            "limits": GOVERNOR_LIMITS,
            "note": "wall-clock is min-of-5 warmed runs on this machine; "
            "overhead_pct is governed-unhit vs ungoverned — the cost of "
            "cooperative checkpoints when no limit trips",
        }
    }
    rows = []
    overheads = []
    for family, (program, make_db) in workloads.items():
        payload[family] = {}
        times = {name: float("inf") for name in GOVERNOR_CONFIGS}
        facts = {}
        results = {}
        opts_by_config = {
            name: EngineOptions(**overrides)
            for name, overrides in GOVERNOR_CONFIGS.items()
        }
        for config, opts in opts_by_config.items():  # warm both paths
            evaluate(program, make_db(), opts)
        gc.collect()
        gc.disable()
        try:
            for _ in range(TRIALS):
                for config, opts in opts_by_config.items():
                    db = make_db()  # fresh (cold) database per trial
                    start = time.perf_counter()
                    evaluate(program, db, opts)
                    times[config] = min(
                        times[config], (time.perf_counter() - start) * 1000.0
                    )
        finally:
            gc.enable()
            gc.collect()
        for config, opts in opts_by_config.items():  # untimed stats run
            results[config] = evaluate(program, make_db(), opts)
        for config, res in results.items():
            facts[config] = res.stats.facts_derived
            payload[family][config] = {
                "wall_ms": round(times[config], 3),
                **res.stats.as_dict(),
            }
            rows.append([
                family, config, fmt(times[config]), res.stats.facts_derived,
                res.stats.governor_checks,
            ])
        # the governed run must reach the identical fixpoint (both
        # directions: neither more nor fewer facts)
        check_no_extra_facts(
            "governor", f"governed-unhit on {family}",
            facts["governed-unhit"], facts["ungoverned"],
        )
        check_no_extra_facts(
            "governor", f"ungoverned on {family} (governed lost facts)",
            facts["ungoverned"], facts["governed-unhit"],
        )
        overhead = (times["governed-unhit"] / max(times["ungoverned"], 1e-9) - 1.0) * 100.0
        overheads.append((times["ungoverned"], times["governed-unhit"]))
        payload[family]["overhead_pct"] = round(overhead, 2)
        rows.append([family, "=> overhead", f"{overhead:+.1f}%", "", ""])
    # runtime-weighted aggregate: per-workload percentages on sub-ms
    # workloads swing with scheduler noise; total-time ratio is the
    # stable quantity
    total_plain = sum(p for p, _ in overheads)
    total_gov = sum(g for _, g in overheads)
    aggregate = (total_gov / max(total_plain, 1e-9) - 1.0) * 100.0
    payload["_meta"]["aggregate_overhead_pct"] = round(aggregate, 2)
    with open(GOVERNOR_JSON, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    table(
        "GOV — governor overhead (limits armed, never hit)",
        ["workload", "config", "time", "facts", "checks"],
        rows,
    )
    print(
        f"aggregate overhead {aggregate:+.1f}% "
        f"({total_gov:.1f} ms governed vs {total_plain:.1f} ms ungoverned; target < 3%)"
    )
    print(f"(wrote {GOVERNOR_JSON.name})")


#: machine-readable incremental-vs-scratch measurement, regenerated by
#: report_incremental()
INCREMENTAL_JSON = Path(__file__).parent / "BENCH_incremental.json"

#: the acceptance floor, on *work*: a 1%-update batch must do at least
#: this factor less join work than a from-scratch re-evaluation.  The
#: measured ratios sit between ~9x (siblings retract, where DRed
#: overdeletes and rederives) and ~480x, so 5x has headroom without
#: being vacuous — and unlike wall-clock it cannot flake with the
#: machine.
INCREMENTAL_MIN_WORK_RATIO = 5.0

#: the wall-clock expectation (informational only — see WARNINGS)
INCREMENTAL_MIN_SPEEDUP = 5.0


def report_incremental() -> None:
    """Incremental maintenance vs from-scratch on 1%-update workloads;
    writes BENCH_incremental.json.

    For each workload and update direction, the from-scratch column
    re-evaluates the program over the *updated* EDB; the incremental
    column applies the same batch to an already-materialized
    :class:`IncrementalSession` (session construction excluded — that
    cost is the one-off the session exists to amortize, and the
    prepared-program cache makes repeat constructions cheap anyway).
    Both sides must land on identical fact sets, checked per run.

    The acceptance floor is on join work: the incremental batch must
    do at least ``INCREMENTAL_MIN_WORK_RATIO`` times less join work
    than the from-scratch run — a machine-independent gate through the
    same violation channel as the fact-count regressions.  The x5
    wall-clock speedup is reported as an informational warning only:
    on a loaded or slow-I/O CI box the wall ratio flakes while the
    work ratio cannot.
    """
    from repro.datalog import Database
    from repro.engine import IncrementalSession

    payload = {
        "_meta": {
            "note": "wall_ms_* are one warmed run on this machine; the "
            "speedup is informational; the acceptance gate is the "
            "join-work ratio.  Update batches are ~1% of the base EDB.",
            "min_speedup_informational": INCREMENTAL_MIN_SPEEDUP,
            "min_work_ratio": INCREMENTAL_MIN_WORK_RATIO,
        }
    }
    baseline = load_baseline(INCREMENTAL_JSON)
    rows = []
    for family, wl in ivm.WORKLOADS.items():
        payload[family] = {}
        for kind in ("insert", "retract"):
            updated = wl.updated_rows(kind)
            scratch_db = Database.from_dict(
                {p: sorted(r) for p, r in updated.items() if r}
            )
            ms_scratch, scratch = timed(
                lambda d=scratch_db: evaluate(wl.program, d)
            )

            def maintained():
                session = IncrementalSession(wl.program, wl.make_db())
                batch = wl.batch(kind)
                start = time.perf_counter()
                if kind == "insert":
                    session.insert(batch)
                else:
                    session.retract(batch)
                return (time.perf_counter() - start) * 1000.0, session

            maintained()  # warm-up (indexes, kernels, prepared cache)
            ms_inc, session = maintained()
            for pred in wl.program.idb_predicates():
                assert session.facts(pred) == scratch.db.rows(pred), (
                    f"incremental diverged from scratch on {family}/{kind}: "
                    f"{pred}"
                )
            speedup = ms_scratch / max(ms_inc, 1e-6)
            stats = session.last_stats
            work_ratio = scratch.stats.join_work / max(1, stats.join_work)
            if work_ratio < INCREMENTAL_MIN_WORK_RATIO:
                VIOLATIONS.append(
                    f"incremental: {family}/{kind} join-work ratio "
                    f"x{work_ratio:.1f} is below the "
                    f"x{INCREMENTAL_MIN_WORK_RATIO:.0f} acceptance floor"
                )
            if speedup < INCREMENTAL_MIN_SPEEDUP:
                warn(
                    f"incremental: {family}/{kind} wall-clock speedup "
                    f"x{speedup:.1f} is below the informational "
                    f"x{INCREMENTAL_MIN_SPEEDUP:.0f} expectation "
                    f"(work ratio x{work_ratio:.1f} is the gate)"
                )
            payload[family][kind] = {
                "wall_ms_incremental": round(ms_inc, 3),
                "wall_ms_scratch": round(ms_scratch, 3),
                "speedup": round(speedup, 2),
                "work_ratio": round(work_ratio, 2),
                "join_work_scratch": scratch.stats.join_work,
                **stats.as_dict(),
            }
            check_against_baseline(
                "incremental", baseline, family, kind, stats.facts_derived
            )
            rows.append([
                family, kind, fmt(ms_scratch), fmt(ms_inc),
                f"x{speedup:.1f}", f"x{work_ratio:.0f}",
                stats.facts_derived,
                stats.facts_retracted, stats.facts_rederived,
                f"{stats.units_reactivated}/{stats.units_scheduled}",
            ])
    with open(INCREMENTAL_JSON, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    table(
        "IVM — incremental maintenance vs from-scratch (1% updates)",
        ["workload", "update", "scratch", "incremental", "speedup",
         "work win", "derived", "retracted", "rederived", "units"],
        rows,
    )
    print(f"(wrote {INCREMENTAL_JSON.name})")


#: machine-readable planner ablation, regenerated by report_planner()
PLANNER_JSON = Path(__file__).parent / "BENCH_planner.json"

#: greedy heuristic vs the bound-driven DP planner vs the planner with
#: the adaptive replanner at its most aggressive cadence
PLANNER_CONFIGS = {
    "greedy": {"use_cost_planner": False},
    "cost": {},
    "cost-replan": {"replan_rounds": 1},
}


def report_planner() -> None:
    """Greedy vs cost-based join ordering; writes BENCH_planner.json.

    Every configuration of a workload must reach the same fixpoint
    with the same answers — join order is a pure work optimization.
    On the skewed families (``fanout-trap``, ``skew-star``) the cost
    planner must cut join work at least 3x below greedy; on the
    parity control it must stay within 10% of greedy.  Both gates
    report through the same violation channel as the fact-count
    regressions, so a planner that silently degrades fails the build.
    """
    payload = {
        "_meta": {
            "configs": {
                name: (overrides or "engine defaults")
                for name, overrides in PLANNER_CONFIGS.items()
            },
            "note": "join_work = rows_scanned + index_probes; the 3x "
            "gate applies to the skewed families, the 1.1x parity "
            "gate to the control — wall-clock is one warmed run",
        }
    }
    baseline = load_baseline(PLANNER_JSON)
    rows = []
    for family, (make_program, make_db) in sorted(plan.WORKLOADS.items()):
        program = make_program()
        payload[family] = {}
        join_work = {}
        fact_counts = {}
        for config, overrides in PLANNER_CONFIGS.items():
            db = make_db()  # fresh (cold) database per configuration
            opts = EngineOptions(**overrides)
            ms, res = timed(lambda p=program, d=db, o=opts: evaluate(p, d, o))
            join_work[config] = res.stats.join_work
            fact_counts[config] = res.stats.facts_derived
            payload[family][config] = {
                "wall_ms": round(ms, 3),
                **res.stats.as_dict(),
            }
            check_against_baseline(
                "planner", baseline, family, config, res.stats.facts_derived
            )
            rows.append([
                family, config, fmt(ms), res.stats.join_work,
                res.stats.plans_costed, res.stats.replans,
                f"{res.stats.bound_overestimate_max:.1f}",
            ])
        for config in ("cost", "cost-replan"):
            check_no_extra_facts(
                "planner", f"{config} vs greedy on {family}",
                fact_counts[config], fact_counts["greedy"],
            )
            if fact_counts[config] != fact_counts["greedy"]:
                VIOLATIONS.append(
                    f"planner: {config} on {family} derived "
                    f"{fact_counts[config]} facts vs "
                    f"{fact_counts['greedy']} under greedy"
                )
        ratio = join_work["greedy"] / max(1, join_work["cost"])
        if family in plan.SKEWED and ratio < 3.0:
            VIOLATIONS.append(
                f"planner: cost join-work win on skewed family "
                f"{family} is only x{ratio:.2f} (gate: >= x3)"
            )
        if family not in plan.SKEWED and ratio < 1 / 1.1:
            VIOLATIONS.append(
                f"planner: cost join work on parity family {family} "
                f"is x{1 / ratio:.2f} greedy's (gate: <= x1.1)"
            )
        rows.append([
            family, "=> cost join-work win", f"x{ratio:.1f}", "", "", "", "",
        ])
    with open(PLANNER_JSON, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    table(
        "PLAN — bound-driven cost planner vs the greedy heuristic",
        ["workload", "config", "time", "join work", "plans", "replans",
         "overest"],
        rows,
    )
    print(f"(wrote {PLANNER_JSON.name})")


#: machine-readable durability measurement, regenerated by
#: report_durability()
DURABILITY_JSON = Path(__file__).parent / "BENCH_durability.json"

#: informational wall expectations (see WARNINGS): WAL overhead per
#: batch at fsync=batch, and recovery speedup over from-scratch at a
#: ~1% replay tail
WAL_MAX_OVERHEAD = 1.10
RECOVERY_MIN_SPEEDUP = 5.0

#: the hard gate for recovery: replaying the ~1% tail must do at least
#: this factor less join work than evaluating the final database from
#: scratch (snapshot load does no joins, so the recovered session's
#: counters are pure replay work)
RECOVERY_MIN_WORK_RATIO = 5.0


def report_durability() -> None:
    """WAL overhead and recovery-vs-scratch; writes BENCH_durability.json.

    **Overhead**: the same update script through a plain and a durable
    session (``fsync=batch``, snapshots off) — the hard gate is that
    the work counters and fact sets are identical (logging must not
    change evaluation); wall overhead beyond ~10% is an informational
    warning.  ``fsync=always`` and ``off`` are measured for the table
    but ungated: their cost is the filesystem's, not the engine's.

    **Recovery**: a checkpoint anchors all but the script's final ~1%;
    recovery (snapshot load + tail replay) is compared against
    evaluating the final database from scratch.  Hard gates: the
    recovered fact sets match scratch exactly, and the replay join
    work times the acceptance factor stays below scratch join work.
    The >= 5x wall speedup is informational.
    """
    import os
    import tempfile

    from repro.datalog import Database
    from repro.engine import DurabilityConfig, IncrementalSession, recover

    payload = {
        "_meta": {
            "note": "hard gates are on work counters (identical work "
            "under logging; replay work x"
            f"{RECOVERY_MIN_WORK_RATIO:.0f} below scratch); wall "
            "overhead and recovery speedup are informational",
            "wal_max_overhead_informational": WAL_MAX_OVERHEAD,
            "recovery_min_speedup_informational": RECOVERY_MIN_SPEEDUP,
            "recovery_min_work_ratio": RECOVERY_MIN_WORK_RATIO,
        }
    }
    overhead_rows = []
    recovery_rows = []

    def run_script(wl, config):
        session = IncrementalSession(
            wl.program, wl.make_db(), durable=config
        )
        start = time.perf_counter()
        for kind, batch in wl.script:
            if kind == "insert":
                session.insert(batch)
            else:
                session.retract(batch)
        ms = (time.perf_counter() - start) * 1000.0
        return ms, session

    for family, wl in dur.WORKLOADS.items():
        payload[family] = {}
        with tempfile.TemporaryDirectory() as d:

            def cfg(name, fsync):
                return DurabilityConfig(
                    wal_path=os.path.join(d, f"{name}.wal"),
                    fsync=fsync,
                    snapshot_every=0,
                )

            run_script(wl, None)  # warm-up (indexes, kernels, caches)
            ms_plain, plain = run_script(wl, None)
            configs = {
                "fsync=batch": cfg("batch", "batch"),
                "fsync=always": cfg("always", "always"),
                "fsync=off": cfg("off", "off"),
            }
            for label, config in configs.items():
                ms_durable, durable = run_script(wl, config)
                overhead = ms_durable / max(ms_plain, 1e-6)
                if durable.stats.join_work != plain.stats.join_work:
                    VIOLATIONS.append(
                        f"durability: {family} {label} changed join work "
                        f"({durable.stats.join_work} vs "
                        f"{plain.stats.join_work} plain) — logging must "
                        f"not change evaluation"
                    )
                for pred in wl.program.idb_predicates():
                    if durable.facts(pred) != plain.facts(pred):
                        VIOLATIONS.append(
                            f"durability: {family} {label} diverged from "
                            f"the plain session on {pred}"
                        )
                if label == "fsync=batch" and overhead > WAL_MAX_OVERHEAD:
                    warn(
                        f"durability: {family} WAL overhead at "
                        f"fsync=batch is x{overhead:.2f} (informational "
                        f"expectation <= x{WAL_MAX_OVERHEAD:.2f})"
                    )
                payload[family][label] = {
                    "wall_ms_plain": round(ms_plain, 3),
                    "wall_ms_durable": round(ms_durable, 3),
                    "overhead": round(overhead, 3),
                    "wal_bytes": os.path.getsize(config.wal_path),
                    **durable.stats.as_dict(),
                }
                overhead_rows.append([
                    family, label, fmt(ms_plain), fmt(ms_durable),
                    f"x{overhead:.2f}", durable.stats.wal_appends,
                    os.path.getsize(config.wal_path),
                ])
                durable.close()

            # recovery: checkpoint before the final ~1% of batches
            config = cfg("recover", "batch")
            tail = max(1, len(wl.script) // 100)
            session = IncrementalSession(
                wl.program, wl.make_db(), durable=config
            )
            for kind, batch in wl.script[:-tail]:
                getattr(session, kind)(batch)
            session.checkpoint()
            for kind, batch in wl.script[-tail:]:
                getattr(session, kind)(batch)
            session.close()

            final_db = Database.from_dict(
                {p: sorted(r) for p, r in wl.final_rows().items() if r}
            )
            ms_scratch, scratch = timed(
                lambda d=final_db, p=wl.program: evaluate(p, d)
            )
            start = time.perf_counter()
            recovered, rec_report = recover(wl.program, config)
            ms_recover = (time.perf_counter() - start) * 1000.0
            for pred in wl.program.idb_predicates():
                if recovered.facts(pred) != scratch.db.rows(pred):
                    VIOLATIONS.append(
                        f"durability: {family} recovery diverged from "
                        f"scratch on {pred}"
                    )
            replay_work = recovered.stats.join_work
            work_ratio = scratch.stats.join_work / max(1, replay_work)
            speedup = ms_scratch / max(ms_recover, 1e-6)
            if work_ratio < RECOVERY_MIN_WORK_RATIO:
                VIOLATIONS.append(
                    f"durability: {family} recovery join-work ratio "
                    f"x{work_ratio:.1f} is below the "
                    f"x{RECOVERY_MIN_WORK_RATIO:.0f} acceptance floor"
                )
            if speedup < RECOVERY_MIN_SPEEDUP:
                warn(
                    f"durability: {family} recovery speedup x{speedup:.1f} "
                    f"is below the informational "
                    f"x{RECOVERY_MIN_SPEEDUP:.0f} expectation "
                    f"(work ratio x{work_ratio:.1f} is the gate)"
                )
            payload[family]["recovery"] = {
                "wall_ms_scratch": round(ms_scratch, 3),
                "wall_ms_recover": round(ms_recover, 3),
                "speedup": round(speedup, 2),
                "work_ratio": round(work_ratio, 2),
                "join_work_scratch": scratch.stats.join_work,
                "join_work_replay": replay_work,
                "replayed_batches": rec_report.replayed_batches,
                "snapshot_seq": rec_report.snapshot_seq,
                "source": rec_report.source,
            }
            recovery_rows.append([
                family, fmt(ms_scratch), fmt(ms_recover),
                f"x{speedup:.1f}", f"x{work_ratio:.0f}",
                rec_report.replayed_batches, rec_report.source,
            ])
            recovered.close()

    with open(DURABILITY_JSON, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    table(
        "DUR — WAL overhead per update script (snapshots off)",
        ["workload", "policy", "plain", "durable", "overhead",
         "appends", "wal bytes"],
        overhead_rows,
    )
    table(
        "DUR — recovery (snapshot + ~1% replay tail) vs from-scratch",
        ["workload", "scratch", "recover", "speedup", "work win",
         "replayed", "source"],
        recovery_rows,
    )
    print(f"(wrote {DURABILITY_JSON.name})")


#: machine-readable deletion-pass cost, regenerated by report_deletion()
DELETION_JSON = Path(__file__).parent / "BENCH_deletion.json"
#: timed repetitions per program; each starts from cold caches
DELETION_REPEATS = 5


def _deletion_programs() -> dict:
    """Phase 3's input for every paper example and positive catalogue
    family: the adorned program, split and projected as the pipeline
    hands it to ``delete_rules``."""
    from repro.core.adornment import adorn
    from repro.core.components import split_components
    from repro.core.projection import push_projections
    from repro.workloads import families
    from repro.workloads import paper_examples as pe

    def projected(program):
        return push_projections(split_components(adorn(program)).program)

    programs = {
        "example1": projected(pe.example1_program()),
        "example2": projected(pe.example2_program()),
        "example5": projected(pe.example5_program()),
        "example5_adorned": pe.adorned_from_text(pe.example5_adorned_text()),
        "example7": pe.example7_adorned(),
        "example8": pe.example8_adorned(),
        "example8_empty": pe.example8_empty_adorned(),
        "example9": pe.example9_adorned(),
        "example10": pe.example10_adorned(),
        "example12": projected(pe.example12_original()),
    }
    for name, program in sorted(families.all_families().items()):
        if not program.has_negation():  # phase 3 refuses negation
            programs[f"family/{name}"] = projected(program)
    return programs


def report_deletion() -> None:
    """Cost of one ``delete_rules`` pass; writes BENCH_deletion.json.

    Per program: the chase evaluations the pass runs (Sagiv's test and
    the Example-6 chase), the rules it plans, the whole-program
    preparations it misses, and its wall-clock as the minimum of
    ``DELETION_REPEATS`` cold-cache runs in this process.  The hard
    gate is machine-independent: a pass plans each distinct rule of its
    input at most once, however many sub-programs ``P - {r}`` it
    evaluates.
    """
    import repro.core.uniform_equivalence as ue
    from repro.core.deletion import delete_rules
    from repro.engine import clear_prepared_cache, prepared_cache_stats
    from repro.engine.kernel import clear_kernel_cache

    chase_evals = 0
    real = ue.evaluate_prepared

    def counted(*args):
        nonlocal chase_evals
        chase_evals += 1
        return real(*args)

    payload = {
        "_meta": {
            "repeats": DELETION_REPEATS,
            "note": "delete_ms is the min over cold-cache runs (prepared "
            "and kernel caches cleared before each); counters are per "
            "delete_rules call; gate: rules_planned <= distinct_rules",
        }
    }
    rows = []
    ue.evaluate_prepared = counted
    try:
        for name, program in _deletion_programs().items():
            distinct = len({r.to_rule() for r in program.rules})
            best = float("inf")
            counters = None
            for _ in range(DELETION_REPEATS):
                clear_prepared_cache()
                clear_kernel_cache()
                chase_evals = 0
                start = time.perf_counter()
                report = delete_rules(program)
                best = min(best, (time.perf_counter() - start) * 1000.0)
                stats = prepared_cache_stats()
                run = {
                    "chase_evaluations": chase_evals,
                    "rules_planned": stats["rule_misses"],
                    "prepared_misses": stats["misses"],
                    "distinct_rules": distinct,
                    "rules_in": len(program.rules),
                    "rules_out": len(report.program.rules),
                }
                if counters not in (None, run):
                    VIOLATIONS.append(
                        f"deletion: counters of {name} differ between "
                        f"cold runs: {counters} vs {run}"
                    )
                counters = run
            if counters["rules_planned"] > distinct:
                VIOLATIONS.append(
                    f"deletion: {name} planned {counters['rules_planned']} "
                    f"rules for {distinct} distinct rules"
                )
            payload[name] = {"delete_ms": round(best, 3), **counters}
            rows.append([
                name, f"{counters['rules_in']}->{counters['rules_out']}",
                counters["chase_evaluations"], counters["rules_planned"],
                distinct, counters["prepared_misses"], fmt(best),
            ])
    finally:
        ue.evaluate_prepared = real
        clear_prepared_cache()
    with open(DELETION_JSON, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    table(
        "DEL — one delete_rules pass: chase evaluations and planning",
        ["program", "rules", "chase evals", "planned", "distinct",
         "prep misses", "time"],
        rows,
    )
    print(f"(wrote {DELETION_JSON.name})")


REPORTS = {
    "e2": report_e2,
    "e3": report_e3,
    "e6": report_e6,
    "e12": report_e12,
    "p4": report_p4,
    "p5": report_p5,
    "td": report_td,
    "ix": report_ix,
    "engine": report_engine,
    "planner": report_planner,
    "scheduler": report_scheduler,
    "governor": report_governor,
    "incremental": report_incremental,
    "durability": report_durability,
    "deletion": report_deletion,
}


def main(argv: list[str]) -> int:
    chosen = [a.lower() for a in argv] or list(REPORTS)
    unknown = [c for c in chosen if c not in REPORTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; known: {sorted(REPORTS)}", file=sys.stderr)
        return 2
    VIOLATIONS.clear()
    WARNINGS.clear()
    for c in chosen:
        REPORTS[c]()
    if WARNINGS:
        print(file=sys.stderr)
        for w in WARNINGS:
            print(f"warning (informational): {w}", file=sys.stderr)
    if VIOLATIONS:
        print(file=sys.stderr)
        for v in VIOLATIONS:
            print(f"FACT-COUNT REGRESSION: {v}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
