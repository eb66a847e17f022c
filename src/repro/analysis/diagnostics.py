"""The diagnostics engine: stable codes, severities, and renderers.

A :class:`Diagnostic` is one finding of the static analyzer — a paper
lemma the program fails, an optimization the pipeline will miss, or a
construct that can only be a mistake.  Every diagnostic carries a
*stable code* (``DL001`` …) so scripts can filter and suppress by code,
a severity, an anchor (predicate and/or rule index, plus the source
span threaded through the parser), and a fix hint.

:class:`LintReport` aggregates the diagnostics of one program and
renders them as human-readable text (``file:line:col: severity[code]
name: message``) or as JSON for tooling; its :meth:`exit_code` encodes
the CLI contract (0 clean, 2 on errors — warnings too under
``--strict``).

The code registry :data:`CODES` is the single source of truth for code
→ name → severity → paper grounding; the documentation table in
``docs/api.md`` is tested against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional

from ..datalog.ast import Span

__all__ = ["Severity", "CodeInfo", "CODES", "Diagnostic", "LintReport"]


class Severity(Enum):
    """How bad a finding is.

    ``ERROR`` — the program violates a precondition of the pipeline
    (it would crash or be rejected).  ``WARNING`` — almost certainly a
    mistake, but the program is evaluable.  ``INFO`` — a structural
    observation: an optimization the pipeline will apply or that is
    available (never a defect).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one diagnostic code."""

    code: str
    name: str
    severity: Severity
    summary: str
    #: the paper result the check is grounded in ("" when purely practical)
    paper: str = ""
    #: a retired code is never emitted; it stays registered so the
    #: code is never reused for a different finding
    retired: bool = False


def _info(
    code: str, name: str, severity: Severity, summary: str, paper: str = "",
    retired: bool = False,
) -> CodeInfo:
    return CodeInfo(code, name, severity, summary, paper, retired)


#: Every diagnostic code the analyzer has ever emitted, in code order
#: (retired codes included, so no code number is ever reused).
CODES: dict[str, CodeInfo] = {
    c.code: c
    for c in (
        _info(
            "DL001", "unsafe-rule", Severity.ERROR,
            "a head or negated variable is not bound by the positive body "
            "(range restriction)",
            "section 1.1 safety convention",
        ),
        _info(
            "DL002", "arity-mismatch", Severity.ERROR,
            "a predicate is used with two different arities",
        ),
        _info(
            "DL003", "unstratified-negation", Severity.ERROR,
            "a predicate recurses through its own negation; no stratified "
            "least-fixpoint semantics exists",
            "section 6 extension (stratified semantics)",
        ),
        _info(
            "DL004", "no-query", Severity.WARNING,
            "the program has no ?- query; the pipeline cannot adorn it",
            "section 2 (adornment starts from the query)",
        ),
        _info(
            "DL005", "undefined-query-predicate", Severity.ERROR,
            "the query predicate has no defining rules (and no facts); "
            "there is nothing to adorn or answer",
            "section 2",
        ),
        _info(
            "DL006", "undefined-body-predicate", Severity.WARNING,
            "a body predicate has no defining rules and no facts; it "
            "evaluates as an empty relation, so its rule can never fire",
            "Examples 7 and 8 (dead rules after deletion)",
        ),
        _info(
            "DL007", "unreachable-rule", Severity.WARNING,
            "the rule's head predicate is not reachable from the query; "
            "the rule is dead code the cascade cleanup would delete",
            "section 5 cascade (Examples 7 and 8)",
        ),
        _info(
            "DL008", "duplicate-rule", Severity.WARNING,
            "the rule is identical (up to variable renaming) to an "
            "earlier rule",
        ),
        _info(
            "DL009", "redundant-literal", Severity.WARNING,
            "a body literal occurs twice in the same rule body; the "
            "duplicate multiplies join work without changing the result",
            "conjunctive-query minimization (section 3.2 work bound)",
        ),
        _info(
            "DL010", "existential-position", Severity.INFO,
            "the adornment algorithm marks argument positions of this "
            "predicate existential (d); projection pushing shrinks its "
            "arity",
            "Lemma 2.2 / Lemma 3.2",
        ),
        _info(
            "DL011", "boolean-subquery", Severity.INFO,
            "a body component is disconnected from every needed head "
            "variable; the optimizer extracts it as a boolean subquery "
            "evaluated once and cut",
            "Lemma 3.1",
        ),
        _info(
            "DL012", "cross-product", Severity.WARNING,
            "the rule body splits into variable-disjoint components that "
            "each bind head variables; the join is a Cartesian product",
            "section 3.1 connectivity",
        ),
        _info(
            "DL013", "chain-regular", Severity.INFO,
            "the program is a binary chain program whose grammar is "
            "regular; an equivalent monadic (unary) recursion exists",
            "Theorem 3.3 / Lemma 4.1",
        ),
        _info(
            "DL014", "negated-undefined", Severity.WARNING,
            "a negated predicate has no defining rules and no facts; the "
            "negation is always true and the literal is a no-op",
        ),
        _info(
            "DL015", "fact-in-program", Severity.INFO,
            "a ground fact appears among the rules; the paper's "
            "convention keeps all facts in the EDB",
            "section 1.1 (P = (Q, EDB, IDB))",
        ),
        _info(
            "DL016", "dictionary-overhead", Severity.WARNING,
            "retired, never emitted: warned that a boolean query over "
            "many constants paid interning cost on the columnar tier, "
            "which no longer exists",
            retired=True,
        ),
        _info(
            "DL017", "bound-blowup", Severity.WARNING,
            "a rule's cardinality upper bound blows up past the "
            "blowup threshold under the planner's synthetic EDB "
            "profile: even the best join order materializes a huge "
            "intermediate result, typically a needed Cartesian "
            "product or a long weakly-connected chain",
            "section 2 adorned bounds; engine cost planner",
        ),
        _info(
            "DL018", "empty-join", Severity.WARNING,
            "sort inference derives an empty value set for a body "
            "position: the join is statically empty and the rule can "
            "never fire",
            "abstract interpretation over the adorned program",
        ),
        _info(
            "DL019", "sort-mismatch", Severity.WARNING,
            "a variable joins argument positions whose inferred sorts "
            "are type-disjoint; the unification is ill-typed and "
            "always fails",
            "abstract interpretation over the adorned program",
        ),
        _info(
            "DL020", "constant-position", Severity.INFO,
            "a derived predicate's argument position always carries "
            "one single constant; a selection could specialize the "
            "predicate away from that column",
            "section 3.2 (argument projections)",
        ),
        _info(
            "DL021", "measured-bound-blowup", Severity.WARNING,
            "a rule's cardinality upper bound blows up under the "
            "*measured* degree sketches of the loaded EDB: even the "
            "best join order materializes an intermediate result past "
            "the blowup threshold on this actual data",
            "section 2 adorned bounds; measured degree sketches",
        ),
        _info(
            "DL022", "skewed-degree", Severity.INFO,
            "a measured relation position is dominated by a hub key: "
            "one value matches a large fraction of the rows, so plans "
            "binding that position inherit the worst-case fanout",
            "section 2 adorned bounds; measured degree sketches",
        ),
        _info(
            "DL023", "bounded-recursion", Severity.INFO,
            "every recursive rule of the component consumes only "
            "bindings already exposed in its head (no fresh frontier "
            "variables); the fixpoint closes in a bounded number of "
            "rounds and a nonrecursive unrolling exists",
            "Theorem 3.3 (monadic rewrite); boundedness analysis",
        ),
        _info(
            "DL024", "no-base-case", Severity.WARNING,
            "a recursive component has no derivable non-recursive "
            "rule: its least fixpoint is provably empty whatever the "
            "EDB holds",
            "section 5 (compile-time emptiness)",
        ),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding, anchored to a predicate and/or rule."""

    code: str
    severity: Severity
    message: str
    predicate: Optional[str] = None
    rule_index: Optional[int] = None
    span: Optional[Span] = None
    hint: Optional[str] = None

    @property
    def name(self) -> str:
        return CODES[self.code].name

    def render(self, source: str = "<program>") -> str:
        """One- or two-line human-readable form."""
        where = f"{source}:{self.span}" if self.span is not None else source
        line = f"{where}: {self.severity}[{self.code}] {self.name}: {self.message}"
        if self.hint:
            line += f"\n  hint: {self.hint}"
        return line

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "name": self.name,
            "severity": str(self.severity),
            "message": self.message,
            "predicate": self.predicate,
            "rule_index": self.rule_index,
            "span": [self.span.line, self.span.column] if self.span else None,
            "hint": self.hint,
        }


_SEVERITY_ORDER = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


@dataclass(frozen=True)
class LintReport:
    """All diagnostics of one program, ordered errors-first.

    ``source`` names the program for rendering (a file path, or the
    default ``<program>`` placeholder).
    """

    diagnostics: tuple[Diagnostic, ...]
    source: str = "<program>"

    def __post_init__(self):
        ordered = tuple(
            sorted(
                self.diagnostics,
                key=lambda d: (
                    _SEVERITY_ORDER[d.severity],
                    d.code,
                    d.rule_index if d.rule_index is not None else -1,
                    d.predicate or "",
                ),
            )
        )
        object.__setattr__(self, "diagnostics", ordered)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is severity)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return self.by_severity(Severity.INFO)

    def codes(self) -> frozenset[str]:
        return frozenset(d.code for d in self.diagnostics)

    def exit_code(self, strict: bool = False) -> int:
        """The CLI contract: 2 when errors are present (with ``strict``
        warnings count as errors), else 0."""
        failing: Iterable[Diagnostic] = (
            self.errors if not strict else self.errors + self.warnings
        )
        return 2 if tuple(failing) else 0

    def summary(self) -> str:
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info(s)"
        )

    def render_text(self) -> str:
        """The full human-readable report, summary line last."""
        lines = [d.render(self.source) for d in self.diagnostics]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "info": len(self.infos),
            },
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)
