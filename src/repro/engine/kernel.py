"""Compiled rule kernels: the join hot path as generated Python.

:func:`~repro.engine.plan.match_plan` is a recursive generator
interpreter; correct, but every binding step allocates a generator
frame and :meth:`LiteralPlan.bind` copies the whole substitution dict
per candidate row.  On the fixpoint loop's hot path that interpretation
overhead is the constant factor multiplying every optimization the
paper's pipeline buys.

This module compiles each ``(CompiledRule, plan)`` pair to a
specialized generator function — one flat nest of ``for`` loops with
**slot-based registers**:

- every variable is assigned an integer slot at compile time and
  becomes a plain local ``r<slot>`` in the generated function (Python
  locals are array slots in the frame, so a "register file" needs no
  allocation at all);
- constants are inlined as literals, index keys as tuple displays, and
  index lookups as direct ``rel.lookup(...)`` calls;
- repeated-variable consistency checks compile to ``!=`` guards;
- the existential first-match cut compiles to a ``break``;
- built-in filters, negation checks, and head construction are emitted
  into the kernel body, so one ``yield`` per rule firing is the only
  interpreter traffic left.

Kernels are *bit-identical* to the interpreter: same answers, same
provenance (row enumeration order is preserved), and the same
``EvalStats`` counters (``join_probes``, ``index_probes``,
``scan_fallbacks``, ``rows_scanned``, ``rule_firings``) — the
interpreter stays available as the differential oracle via
``EngineOptions(use_kernels=False)`` / the CLI's ``--no-kernel``.

Generated functions are cached globally by source text (the source *is*
the plan signature: predicate names, slot assignments, bound-position
keys, inlined constants, and flags all appear in it), so repeated
``evaluate()`` calls over the same program shapes skip ``compile()``.
This process-wide cache is also what keeps adaptive replanning
amortized: a :func:`~repro.engine.plan.replan_delta_plans` clone is a
fresh ``CompiledRule`` whose per-object memo starts empty, but any
re-ranked plan whose join order was generated before — including a
replan that toggles back to an earlier order — hits the source-text
cache and costs string generation only, no ``compile()``.
Use :func:`kernel_source` to read the generated code when debugging.

These kernels are the top rung of the engine ladder: every rule runs
here unless a kernel cannot be generated for it or an injected
``kernel-compile`` fault forbids it, in which case it falls back to
the plan interpreter.  Relations keep one data plane — the row set and
its lazy hash indexes — which the generated loops read directly.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..datalog.builtins import BUILTINS
from ..datalog.terms import Constant, Variable
from .plan import CompiledRule, LiteralPlan

__all__ = [
    "KernelError",
    "kernel_source",
    "rule_kernel",
    "kernel_cache_stats",
    "clear_kernel_cache",
]


class KernelError(Exception):
    """A rule cannot be compiled to a kernel (e.g. a constant with no
    safe literal representation); the engine falls back to the
    interpreter for that rule."""


def _const(value) -> str:
    if type(value) in (int, str, bool, float) or value is None:
        return repr(value)
    raise KernelError(f"constant {value!r} has no inline literal form")


def _tuple_display(parts: list[str]) -> str:
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


class _Emitter:
    """Accumulates indented source lines."""

    def __init__(self):
        self.lines: list[str] = []

    def w(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def kernel_source(
    cr: CompiledRule,
    plan_id: Optional[int] = None,
    *,
    use_indexes: bool = True,
    record_rows: bool = False,
) -> str:
    """Generate the kernel source for one plan of *cr*.

    *plan_id* is ``None`` for the naive plan or the index of a delta
    plan (the semi-naive specialization whose first step reads the
    delta frontier).  With *record_rows* the kernel yields
    ``(head_values, body_rows)`` for provenance recording; otherwise it
    yields bare ``head_values`` tuples.  Raises :class:`KernelError`
    for rules the compiler cannot specialize.
    """
    plans = cr.plan if plan_id is None else cr.delta_plans[plan_id]
    delta = plan_id is not None
    n = len(plans)

    # -- register allocation: first binding order across plan steps ----
    slots: dict[Variable, int] = {}
    for plan in plans:
        for _, var in plan.free_positions:
            if var not in slots:
                slots[var] = len(slots)

    def term(t) -> str:
        if isinstance(t, Constant):
            return _const(t.value)
        if t not in slots:
            raise KernelError(f"variable {t} is never bound by the plan")
        return f"r{slots[t]}"

    out = _Emitter()
    sig = f"plan={'naive' if plan_id is None else f'delta[{plan_id}]'}"
    out.w(0, f"def _kernel(db, stats, delta):")
    out.w(1, f"# rule {cr.rule_index}: {cr.rule}")
    out.w(1, f"# {sig} use_indexes={use_indexes} record_rows={record_rows}")
    registers = ", ".join(
        f"r{s}={v.name}" for v, s in sorted(slots.items(), key=lambda kv: kv[1])
    )
    out.w(1, f"# registers: {registers or '(none)'}")

    # -- prelude: hoist relation dict lookups (identities are stable
    # for the lifetime of a fixpoint run; emptiness is re-checked at
    # the step's position so counters match the interpreter exactly)
    for i, plan in enumerate(plans):
        if delta and i == 0:
            continue
        out.w(1, f"rel{i} = db.relation({plan.atom.predicate!r})")
        if use_indexes and plan.bound_positions and plan.free_positions:
            out.w(1, f"ix{i} = None")
    for k, atom in enumerate(cr.rule.negative):
        out.w(1, f"nrel{k} = db.relation({atom.predicate!r})")

    def fail(depth_in_loops: int) -> str:
        return "continue" if depth_in_loops > 0 else "return"

    def emit_step(i: int, depth: int) -> None:
        if i == n:
            emit_tail(depth, loops=n)
            return
        plan = plans[i]
        looped = True  # cleared by the loop-free membership fast path
        if delta and i == 0:
            out.w(depth, "stats.join_probes += 1")
            if not plan.bound_positions:
                out.w(depth, f"for row{i} in delta.all_rows():")
            else:
                positions = _tuple_display([str(p) for p in plan.bound_positions])
                key = _tuple_display(
                    [term(plan.atom.args[p]) for p in plan.bound_positions]
                )
                out.w(depth, f"for row{i} in delta.lookup({positions}, {key}):")
            body = depth + 1
            out.w(body, "stats.rows_scanned += 1")
            emit_binds(plan, i, body)
        elif use_indexes and plan.bound_positions and not plan.free_positions:
            # fully bound: the key *is* the candidate row, so the row
            # set answers the probe directly — the mirror of
            # match_plan's fast path, keeping kernel counters
            # bit-identical (no index build, at most one row).  Emitted
            # as a guarded block, NOT an early exit: a miss must fall
            # through to an enclosing existential cut exactly the way
            # an exhausted loop would, or the cut would be skipped and
            # further (identically doomed) candidates probed.
            key = _tuple_display(
                [term(plan.atom.args[p]) for p in plan.bound_positions]
            )
            out.w(depth, f"if rel{i} is not None:")
            out.w(depth + 1, "stats.join_probes += 1")
            out.w(depth + 1, "stats.index_probes += 1")
            out.w(depth + 1, f"row{i} = {key}")
            out.w(depth + 1, f"if row{i} in rel{i}:")
            body = depth + 2
            out.w(body, "stats.rows_scanned += 1")
            looped = False
        else:
            out.w(depth, f"if rel{i} is None: {fail(i)}")
            out.w(depth, "stats.join_probes += 1")
            if not plan.bound_positions:
                out.w(depth, "stats.scan_fallbacks += 1")
                out.w(depth, f"for row{i} in list(rel{i}):")
                body = depth + 1
                out.w(body, "stats.rows_scanned += 1")
                emit_binds(plan, i, body)
            elif use_indexes:
                positions = _tuple_display([str(p) for p in plan.bound_positions])
                key = _tuple_display(
                    [term(plan.atom.args[p]) for p in plan.bound_positions]
                )
                # the index is fetched at the step's first probe (so a
                # lazy build is counted exactly when the interpreter
                # would build it) and reused by every later probe
                out.w(depth, "stats.index_probes += 1")
                out.w(depth, f"if ix{i} is None: ix{i} = rel{i}.index_for({positions})")
                out.w(depth, f"for row{i} in ix{i}.get({key}, ()):")
                body = depth + 1
                out.w(body, "stats.rows_scanned += 1")
                emit_binds(plan, i, body)
            else:
                # --no-index: enumerate the whole relation, filter on
                # the bound positions (every enumerated row is charged
                # exactly once, as in _scan_filter + the outer loop)
                out.w(depth, "stats.scan_fallbacks += 1")
                out.w(depth, f"for row{i} in list(rel{i}):")
                body = depth + 1
                out.w(body, "stats.rows_scanned += 1")
                for p in plan.bound_positions:
                    out.w(body, f"if row{i}[{p}] != {term(plan.atom.args[p])}: continue")
                emit_binds(plan, i, body)
        emit_step(i + 1, body)
        if plan.existential and looped:
            out.w(body, "break  # existential cut: one witness is enough")

    def emit_binds(plan: LiteralPlan, i: int, depth: int) -> None:
        seen: set[Variable] = set()
        for p, var in plan.free_positions:
            if var in seen:
                out.w(depth, f"if row{i}[{p}] != r{slots[var]}: continue")
            else:
                out.w(depth, f"r{slots[var]} = row{i}[{p}]")
                seen.add(var)

    def emit_tail(depth: int, loops: int) -> None:
        for atom in cr.builtins:
            a, b = (term(t) for t in atom.args)
            out.w(depth, f"if not _bi_{atom.predicate}({a}, {b}): {fail(loops)}")
        for k, atom in enumerate(cr.rule.negative):
            out.w(depth, "stats.join_probes += 1")
            key = _tuple_display([term(t) for t in atom.args]) if atom.args else "()"
            out.w(depth, f"if nrel{k} is not None and {key} in nrel{k}: {fail(loops)}")
        out.w(depth, "stats.rule_firings += 1")
        head = _tuple_display([term(t) for t in cr.rule.head.args]) \
            if cr.rule.head.args else "()"
        if record_rows:
            rows = [""] * len(cr.relational_body)
            for i, plan in enumerate(plans):
                rows[plan.body_index] = f"row{i}"
            rows_tuple = _tuple_display(rows) if rows else "()"
            out.w(depth, f"yield {head}, {rows_tuple}")
        else:
            out.w(depth, f"yield {head}")

    emit_step(0, 1)
    return out.source()


# -- compilation cache -------------------------------------------------------

#: the module-level namespace every kernel executes in: the evaluable
#: built-ins under stable names (direct calls, no dict lookup per row)
_KERNEL_GLOBALS = {f"_bi_{name}": fn for name, fn in BUILTINS.items()}

#: source text -> compiled kernel function.  The source is the cache
#: key: it embeds predicate names, slot numbering, inlined constants,
#: bound-position keys, and the use_indexes / record_rows flags, so two
#: plans share a kernel exactly when they are structurally identical.
_FN_CACHE: dict[str, Callable] = {}
_CACHE_STATS = {"compiles": 0, "hits": 0}


def _compile_source(source: str) -> Callable:
    fn = _FN_CACHE.get(source)
    if fn is not None:
        _CACHE_STATS["hits"] += 1
        return fn
    namespace = dict(_KERNEL_GLOBALS)
    code = compile(source, "<repro-kernel>", "exec")
    exec(code, namespace)
    fn = namespace["_kernel"]
    _FN_CACHE[source] = fn
    _CACHE_STATS["compiles"] += 1
    return fn


def kernel_cache_stats() -> dict:
    """Global cache counters: ``{"compiles": ..., "hits": ...}``."""
    return dict(_CACHE_STATS)


def clear_kernel_cache() -> None:
    """Drop every compiled kernel (tests / memory pressure)."""
    _FN_CACHE.clear()
    _CACHE_STATS["compiles"] = 0
    _CACHE_STATS["hits"] = 0


def rule_kernel(
    cr: CompiledRule,
    plan_id: Optional[int] = None,
    *,
    use_indexes: bool = True,
    record_rows: bool = False,
) -> Optional[Callable]:
    """The compiled kernel for one plan of *cr*, or ``None`` when the
    rule cannot be specialized (the caller falls back to the
    interpreter).  Kernels are memoized on the compiled rule, so each
    ``(plan, flags)`` pair is generated at most once per rule object.
    """
    cache = cr.__dict__.get("_kernels")
    if cache is None:
        cache = {}
        object.__setattr__(cr, "_kernels", cache)
    key = (plan_id, use_indexes, record_rows)
    if key in cache:
        return cache[key]
    try:
        fn = _compile_source(
            kernel_source(
                cr, plan_id, use_indexes=use_indexes, record_rows=record_rows
            )
        )
    except KernelError:
        fn = None
    cache[key] = fn
    return fn
