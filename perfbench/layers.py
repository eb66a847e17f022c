"""The traced run and its per-layer metrics.

The traced run measures one operation sequence twice from the same
set-up: pass A untraced for half of ``--seconds``, then pass B with the
span wrappers of :mod:`spans` installed, over exactly the operations
pass A ran.  Per-layer metrics come from pass B; ``trace.overhead_ratio``
is pass B's operation time over pass A's.

Unless noted, a ``_ms`` metric is self time per operation (job or
batch) in reference-speed ms (see :mod:`calibrate`), a count is per
operation, and a ratio is taken over the whole pass.  Layers a workload
bypasses report 0.
"""

from __future__ import annotations

import statistics
from collections import Counter

from repro.datalog.columnar import global_dictionary

from calibrate import REFERENCE_MS
from spans import Tracer
from workloads import CACHE_COUNTERS, measure, timed_setups

#: (metric, unit) in report order; the names BENCHMARK.json lists
PER_LAYER = [
    ("parser.parse_ms", "ms"),
    ("lints.lint_ms", "ms"),
    ("pipeline.optimize_ms", "ms"),
    ("pipeline.adorn_ms", "ms"),
    ("pipeline.split_components_ms", "ms"),
    ("pipeline.push_projections_ms", "ms"),
    ("pipeline.delete_rules_ms", "ms"),
    ("pipeline.add_covering_unit_rules_ms", "ms"),
    ("pipeline.unfold_nonrecursive_ms", "ms"),
    ("pipeline.minimize_rule_bodies_ms", "ms"),
    ("pipeline.answers_ms", "ms"),
    ("evaluator.answers_ms", "ms"),
    ("pipeline.rules_in", "count"),
    ("pipeline.rules_out", "count"),
    ("pipeline.idb_arity_in", "count"),
    ("pipeline.idb_arity_out", "count"),
    ("prepared.prepare_ms", "ms"),
    ("prepared.hit_ratio", "ratio"),
    ("prepared.misses", "count"),
    ("kernel.compiles", "count"),
    ("kernel.hit_ratio", "ratio"),
    ("evaluator.evaluate_ms", "ms"),
    ("scheduler.run_scheduled_ms", "ms"),
    ("scheduler.run_seeded_ms", "ms"),
    ("evaluator.join_work", "count"),
    ("evaluator.facts_derived", "count"),
    ("evaluator.dup_ratio", "ratio"),
    ("evaluator.iterations", "count"),
    ("evaluator.index_builds", "count"),
    ("evaluator.bound_overestimate_max", "ratio"),
    ("batch_kernel.batch_rows", "count"),
    ("batch_kernel.batch_probes", "count"),
    ("batch_kernel.fallback_ratio", "ratio"),
    ("database.column_store_ms", "ms"),
    ("database.column_store_calls", "count"),
    ("database.packed_runs_ms", "ms"),
    ("database.packed_runs_calls", "count"),
    ("columnar.dict_size", "count"),
    ("incremental.insert_ms", "ms"),
    ("incremental.retract_ms", "ms"),
    ("incremental.read_ms", "ms"),
    ("incremental.reactivated_ratio", "ratio"),
    ("incremental.join_work_per_batch", "count"),
    ("incremental.rederive_ratio", "ratio"),
    ("incremental.index_builds_per_batch", "count"),
    ("durability.append_ms", "ms"),
    ("durability.wal_bytes_per_batch", "bytes"),
    ("durability.snapshot_ms", "ms"),
    ("durability.snapshots_written", "count"),
    ("recovery.recover_ms", "ms"),
    ("recovery.read_wal_ms", "ms"),
    ("recovery.load_snapshot_ms", "ms"),
    ("recovery.replay_ms", "ms"),
    ("recovery.replayed_batches", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

#: per-layer metrics that repeat exactly for one seed and operation count
DETERMINISTIC = [
    "pipeline.rules_in", "pipeline.rules_out", "pipeline.idb_arity_in",
    "pipeline.idb_arity_out", "prepared.misses", "kernel.compiles",
    "evaluator.join_work", "evaluator.facts_derived", "evaluator.iterations",
    "batch_kernel.batch_rows", "database.column_store_calls",
    "database.packed_runs_calls", "incremental.join_work_per_batch",
    "durability.wal_bytes_per_batch", "durability.snapshots_written",
    "recovery.replayed_batches",
]


class Counters:
    """Work counters read off the return values of wrapped calls."""

    def __init__(self):
        self.evaluated = Counter()
        self.bound_overestimate_max = 0.0
        self.batches = Counter()
        self.optimized = Counter()
        self.wal_bytes = 0
        self.wal_appends = 0

    def hooks(self) -> dict:
        batch = (None, self._batch)
        return {
            "evaluator.evaluate": (None, self._evaluate),
            "incremental.insert": batch,
            "incremental.retract": batch,
            "pipeline.optimize": (None, self._optimize),
            "durability.append": (lambda args: args[0].size(), self._append),
        }

    def _evaluate(self, args, result, token) -> None:
        s = result.stats
        self.evaluated.update(
            calls=1, join_work=s.join_work, facts_derived=s.facts_derived,
            duplicates=s.duplicates, iterations=s.iterations, index_builds=s.index_builds,
            batch_rows=s.batch_rows, batch_probes=s.batch_probes,
            columnar_fallbacks=s.columnar_fallbacks, rule_firings=s.rule_firings,
        )
        self.bound_overestimate_max = max(self.bound_overestimate_max,
                                          s.bound_overestimate_max)

    def _batch(self, args, stats, token) -> None:
        self.batches.update(
            calls=1, units_reactivated=stats.units_reactivated,
            units_scheduled=stats.units_scheduled, join_work=stats.join_work,
            facts_rederived=stats.facts_rederived, facts_retracted=stats.facts_retracted,
            index_builds=stats.index_builds,
        )

    def _optimize(self, args, result, token) -> None:
        def idb_arity(program) -> int:
            arities = program.arities()
            return sum(arities[p] for p in program.idb_predicates())

        final = result.program
        self.optimized.update(
            rules_in=len(result.original.rules), rules_out=len(final.rules),
            idb_arity_in=idb_arity(result.original), idb_arity_out=idb_arity(final),
        )

    def _append(self, args, seq, size_before) -> None:
        self.wal_bytes += args[0].size() - size_before
        self.wal_appends += 1


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(workload, args, out_dir) -> dict:
    # pass A: untraced, sets the operation count
    state, _ = timed_setups(workload.setup, 1)
    untraced = measure(workload, state, args.seconds / 2, args.ops)

    # pass B: the same operations, traced
    counters = Counters()
    tracer = Tracer(counters.hooks())
    state, _ = timed_setups(workload.setup, 1)
    caches0 = CACHE_COUNTERS.totals()
    tracer.install()
    try:
        traced = measure(workload, state, 0, untraced.loop_ops, tracer)
    finally:
        tracer.remove()
    caches = CACHE_COUNTERS.totals()
    caches.subtract(caches0)

    ops = max(1, len(traced.latencies_ms))
    ev, ivm, opt = counters.evaluated, counters.batches, counters.optimized
    hits, misses = caches["prepared_hits"], caches["prepared_misses"]
    kernel_hits, compiles = caches["kernel_hits"], caches["kernel_compiles"]
    t = tracer
    per_op = {
        "parser.parse_ms": t.self_ms("parser.parse"),
        "lints.lint_ms": t.self_ms("lints.lint_program"),
        "pipeline.optimize_ms": t.self_ms("pipeline.optimize"),
        "pipeline.answers_ms": t.self_ms("pipeline.answers"),
        "evaluator.answers_ms": t.self_ms("evaluator.answers"),
        "prepared.prepare_ms": t.self_ms("prepared.prepare"),
        "evaluator.evaluate_ms": t.self_ms("evaluator.evaluate"),
        "scheduler.run_scheduled_ms": t.self_ms("scheduler.run_scheduled"),
        "scheduler.run_seeded_ms": t.self_ms("scheduler.run_seeded_unit"),
        "database.column_store_ms": t.self_ms("database.column_store"),
        "database.column_store_calls": t.calls("database.column_store"),
        "database.packed_runs_ms": t.self_ms("database.packed_runs"),
        "database.packed_runs_calls": t.calls("database.packed_runs"),
        "durability.append_ms": t.self_ms("durability.append"),
        "pipeline.rules_in": opt["rules_in"],
        "pipeline.rules_out": opt["rules_out"],
        "pipeline.idb_arity_in": opt["idb_arity_in"],
        "pipeline.idb_arity_out": opt["idb_arity_out"],
        "prepared.misses": misses,
        "kernel.compiles": compiles,
        "evaluator.join_work": ev["join_work"],
        "evaluator.facts_derived": ev["facts_derived"],
        "evaluator.iterations": ev["iterations"],
        "evaluator.index_builds": ev["index_builds"],
        "batch_kernel.batch_rows": ev["batch_rows"],
        "batch_kernel.batch_probes": ev["batch_probes"],
    }
    for name in ("adorn", "split_components", "push_projections", "delete_rules",
                 "add_covering_unit_rules", "unfold_nonrecursive", "minimize_rule_bodies"):
        per_op[f"pipeline.{name}_ms"] = t.self_ms(f"pipeline.{name}")
    values = {k: v / ops for k, v in per_op.items()}
    # one host-speed factor for the traced pass (see calibrate.py)
    factor = REFERENCE_MS / statistics.median(ms for _, ms in traced.calibrations)

    coverage_ns = traced.op_ns + traced.extra.get("recover_ns", 0)
    values.update({
        "prepared.hit_ratio": _ratio(hits, hits + misses),
        "kernel.hit_ratio": _ratio(kernel_hits, kernel_hits + compiles),
        "evaluator.dup_ratio": _ratio(ev["duplicates"], ev["duplicates"] + ev["facts_derived"]),
        "evaluator.bound_overestimate_max": counters.bound_overestimate_max,
        "batch_kernel.fallback_ratio": _ratio(ev["columnar_fallbacks"], ev["rule_firings"]),
        "columnar.dict_size": len(global_dictionary()),
        # per call: one session update or read
        "incremental.insert_ms": _ratio(t.self_ms("incremental.insert"),
                                        t.calls("incremental.insert")),
        "incremental.retract_ms": _ratio(t.self_ms("incremental.retract"),
                                         t.calls("incremental.retract")),
        "incremental.read_ms": _ratio(t.self_ms("incremental.query"),
                                      t.calls("incremental.query")),
        "incremental.reactivated_ratio": _ratio(ivm["units_reactivated"],
                                                ivm["units_scheduled"]),
        "incremental.join_work_per_batch": _ratio(ivm["join_work"], ivm["calls"]),
        "incremental.rederive_ratio": _ratio(ivm["facts_rederived"], ivm["facts_retracted"]),
        "incremental.index_builds_per_batch": _ratio(ivm["index_builds"], ivm["calls"]),
        "durability.wal_bytes_per_batch": _ratio(counters.wal_bytes, counters.wal_appends),
        # per snapshot written during the loop
        "durability.snapshot_ms": _ratio(t.self_ms("durability.snapshot"),
                                         t.calls("durability.snapshot")),
        "durability.snapshots_written": t.calls("durability.snapshot"),
        # the one closing recovery (inclusive times)
        "recovery.recover_ms": t.total_ms("recovery.recover"),
        "recovery.read_wal_ms": t.total_ms("recovery.read_wal"),
        "recovery.load_snapshot_ms": t.total_ms("recovery.load_snapshot"),
        "recovery.replay_ms": t.total_ms("recovery.replay"),
        "recovery.replayed_batches": traced.extra.get("replayed_batches", 0),
        "trace.coverage": _ratio(t.top_level_ns, coverage_ns),
        "trace.overhead_ratio": _ratio(sum(traced.reference_ms()), sum(untraced.reference_ms())),
    })
    for name, unit in PER_LAYER:
        if unit == "ms":
            values[name] *= factor

    stem = f"{workload.name}-seed{args.seed}"
    tracer.write_chrome(out_dir / f"trace-{stem}.json")
    table = tracer.table()
    (out_dir / f"layers-{stem}.txt").write_text(table + "\n")
    print(f"# {workload.name} seed={args.seed} traced ops={ops} "
          f"spans={sum(a.calls for a in t.aggregates.values())}")
    for line in table.splitlines():
        print(f"#   {line}")
    for name, unit in PER_LAYER:
        print(f"#   {name:40s} {values[name]:14.4f} {unit}")
    return {
        "correct": untraced.failed == 0 and traced.failed == 0,
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
    }
