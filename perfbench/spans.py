"""Span recorder for the traced run.

:class:`Tracer` replaces the public callables listed in :data:`TARGETS`
with timing wrappers and restores the originals on :meth:`Tracer.remove`.
Only the traced run calls :meth:`Tracer.install`; the untraced run never
imports a wrapper into the program.

A span's *self time* is its duration minus the time of the wrapped calls
it made.  Spans opened inside ``pipeline.delete_rules`` are not recorded:
the engine runs that deletion performs (phase 3 evaluates candidate
programs) are charged to the deletion pass by self time.  Session
updates inside ``recovery.recover`` are recorded as ``recovery.replay``.

Spans are kept in memory and written when the run ends, as Chrome
trace-event JSON (load it in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Optional

#: (span name, module, attribute or ``Class.method``).  Modules that
#: import a callable by name hold their own reference, so a callable is
#: patched where its callers look it up.
TARGETS = [
    ("parser.parse", "repro.datalog.parser", "parse"),
    ("lints.lint_program", "repro.analysis", "lint_program"),
    ("pipeline.optimize", "repro.core.pipeline", "optimize"),
    ("pipeline.adorn", "repro.core.pipeline", "adorn"),
    ("pipeline.split_components", "repro.core.pipeline", "split_components"),
    ("pipeline.push_projections", "repro.core.pipeline", "push_projections"),
    ("pipeline.delete_rules", "repro.core.pipeline", "delete_rules"),
    ("pipeline.add_covering_unit_rules", "repro.core.pipeline", "add_covering_unit_rules"),
    # imported inside optimize() at call time, so patched at the source
    ("pipeline.unfold_nonrecursive", "repro.core.unfolding", "unfold_nonrecursive"),
    ("pipeline.minimize_rule_bodies", "repro.core.minimization", "minimize_rule_bodies"),
    ("pipeline.answers", "repro.core.pipeline", "OptimizationResult.answers"),
    ("evaluator.evaluate", "repro.core.pipeline", "evaluate"),
    # the query's selection/projection over the result rows, called by
    # EvalResult.answers (a job's answers) and IncrementalSession.query
    ("evaluator.answers", "repro.engine.evaluator", "answers_of"),
    ("evaluator.answers", "repro.engine.incremental", "answers_of"),
    ("evaluator.evaluate", "repro.engine.incremental", "evaluate"),
    ("prepared.prepare", "repro.engine.evaluator", "prepare"),
    ("prepared.prepare", "repro.engine.prepared", "prepare"),
    ("scheduler.run_scheduled", "repro.engine.evaluator", "run_scheduled"),
    ("scheduler.run_seeded_unit", "repro.engine.incremental", "run_seeded_unit"),
    ("database.column_store", "repro.datalog.database", "Relation.column_store"),
    ("database.packed_runs", "repro.datalog.database", "Relation.packed_runs"),
    ("incremental.insert", "repro.engine.incremental", "IncrementalSession.insert"),
    ("incremental.retract", "repro.engine.incremental", "IncrementalSession.retract"),
    ("incremental.query", "repro.engine.incremental", "IncrementalSession.query"),
    ("durability.append", "repro.engine.durability", "WriteAheadLog.append"),
    ("durability.snapshot", "repro.engine.durability", "DurableLog.checkpoint"),
    ("recovery.recover", "repro.engine.recovery", "recover"),
    ("recovery.read_wal", "repro.engine.recovery", "read_wal"),
    ("recovery.load_snapshot", "repro.engine.recovery", "load_snapshot"),
]

#: spans whose wrapped callees are charged to them (not recorded)
ABSORBING = frozenset({"pipeline.delete_rules"})
#: (enclosing span, span) -> name the inner span is recorded under
RENAMED = {
    ("recovery.recover", "incremental.insert"): "recovery.replay",
    ("recovery.recover", "incremental.retract"): "recovery.replay",
}
#: at most this many spans are kept for the Chrome trace; aggregates
#: count every span
MAX_EVENTS = 200_000


class Aggregate:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Records spans around the :data:`TARGETS` while installed.

    Spans count only while :attr:`active` is set (the benchmark sets it
    around each timed operation), so set-up and answer checking leave no
    spans.  ``hooks`` maps a span name to ``(before, after)``: ``before(args)``
    runs as the span opens and ``after(args, result, token)`` after it
    closes, with ``token`` what ``before`` returned; either may be None.
    They read counters off arguments and return values.
    """

    def __init__(self, hooks: Optional[dict[str, tuple]] = None):
        self.hooks = hooks or {}
        self.active = False
        self.aggregates: dict[str, Aggregate] = {}
        self.top_level_ns = 0
        self.events: list[tuple] = []
        self.dropped_events = 0
        self._stack: list[list] = []  # [name, child_ns]
        self._absorbing = 0
        self._saved: list[tuple] = []
        self._origin = time.perf_counter_ns()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        hooks = self.hooks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or self._absorbing:
                return fn(*args, **kwargs)
            span = name
            if stack:
                span = RENAMED.get((stack[-1][0], name), name)
            before, after = hooks.get(span, (None, None))
            token = before(args) if before is not None else None
            frame = [span, 0]
            stack.append(frame)
            absorbing = span in ABSORBING
            if absorbing:
                self._absorbing += 1
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                if absorbing:
                    self._absorbing -= 1
                stack.pop()
                self._close(span, t0, t1, frame[1], len(stack))
            if after is not None:
                after(args, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, span: str, t0: int, t1: int, child_ns: int, depth: int) -> None:
        duration = t1 - t0
        agg = self.aggregates.get(span)
        if agg is None:
            agg = self.aggregates[span] = Aggregate()
        agg.calls += 1
        agg.total_ns += duration
        agg.self_ns += duration - child_ns
        if depth:
            self._stack[-1][1] += duration
        else:
            self.top_level_ns += duration
        if len(self.events) < MAX_EVENTS:
            self.events.append((span, t0, duration, depth))
        else:
            self.dropped_events += 1

    # -- results ------------------------------------------------------------

    def self_ms(self, span: str) -> float:
        agg = self.aggregates.get(span)
        return agg.self_ns / 1e6 if agg else 0.0

    def total_ms(self, span: str) -> float:
        agg = self.aggregates.get(span)
        return agg.total_ns / 1e6 if agg else 0.0

    def calls(self, span: str) -> int:
        agg = self.aggregates.get(span)
        return agg.calls if agg else 0

    def write_chrome(self, path) -> None:
        """Chrome trace-event JSON: one complete ("X") event per span."""
        with open(path, "w") as out:
            out.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for i, (span, t0, duration, depth) in enumerate(self.events):
                event = {
                    "name": span,
                    "cat": span.split(".", 1)[0],
                    "ph": "X",
                    "ts": (t0 - self._origin) / 1e3,
                    "dur": duration / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": {"depth": depth},
                }
                out.write(("," if i else "") + json.dumps(event) + "\n")
            out.write(f'], "otherData": {{"dropped_events": {self.dropped_events}}}}}\n')

    def table(self) -> str:
        """Per-span aggregate table, largest self time first."""
        rows = sorted(self.aggregates.items(), key=lambda kv: -kv[1].self_ns)
        lines = [f"{'span':36s} {'calls':>9s} {'total_ms':>11s} {'self_ms':>11s}"]
        for span, agg in rows:
            lines.append(
                f"{span:36s} {agg.calls:9d} {agg.total_ns / 1e6:11.2f} {agg.self_ns / 1e6:11.2f}"
            )
        return "\n".join(lines)
