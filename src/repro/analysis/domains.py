"""Abstract domains for the monotone-framework analyzer.

Three domains ship with the framework (:mod:`repro.analysis.absint`),
each a small lattice with a monotone rule transfer function:

- :class:`SortDomain` — per-argument-position *sorts*: a finite set of
  constants (up to :data:`MAX_SORT_CONSTANTS`, overflowing to a set of
  Python type names) under subset order with ``TOP`` = "any value".
  Seeded from stored EDB rows and in-program ground facts; the meet of
  the sorts a variable joins proves joins statically empty (DL018),
  unifications ill-typed (DL019), and head columns constant (DL020).
- :class:`CardinalityDomain` — :class:`DegreeSketch` values: a
  relation's log-bucketed size plus, per position, the log-bucketed
  **max degree** (most rows any one value matches there).  EDB sketches
  are *measured* from the stored rows and hash indexes
  (:meth:`repro.datalog.database.Relation.degree_profile`); IDB
  sketches are propagated through rule bodies with the Lemma 3.1
  existential-component drop, exactly the arithmetic of
  :class:`repro.engine.cost.BoundCostModel`.  Findings: DL021
  (measured bound blowup) and DL022 (hub-key skew).  Sketches persist
  as JSON (:func:`save_profiles` / :func:`load_profiles`).
- :class:`BoundednessDomain` — a two-point derivability lattice
  (``False`` = provably empty) plus structural bounded-recursion
  detection.  Findings: DL023 (bounded recursion — the fixpoint closes
  in a constant number of rounds) and DL024 (a recursive component
  with no derivable base case).

Every domain implements the :class:`AbstractDomain` contract; values
must be comparable with ``==`` so the fixpoint driver can detect
stabilization, and ``join`` must be monotone with ``bottom`` as its
identity.  ``top`` is the sound escape hatch the driver widens to if a
component fails to stabilize within its iteration budget.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence

from ..datalog.ast import Atom, Rule
from ..datalog.builtins import is_builtin
from ..datalog.terms import Constant, Variable
from ..engine.cost import (
    DEFAULT_FANOUT,
    DEFAULT_SIZE,
    BoundCostModel,
    RelationProfile,
    _component_vars,
    bucket_size,
)
from .diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datalog.database import Relation
    from .absint import AnalysisContext, RuleView

__all__ = [
    "TOP",
    "MAX_SORT_CONSTANTS",
    "sort_of_values",
    "sort_join",
    "sort_meet",
    "sort_types",
    "render_sort",
    "DegreeSketch",
    "CARD_CAP",
    "SKEW_MIN_SIZE",
    "save_profiles",
    "load_profiles",
    "PROFILE_FORMAT_VERSION",
    "AbstractDomain",
    "SortDomain",
    "CardinalityDomain",
    "BoundednessDomain",
]


# ---------------------------------------------------------------------------
# the sort lattice
# ---------------------------------------------------------------------------

#: a finite sort wider than this many distinct constants collapses to
#: the set of the constants' type names
MAX_SORT_CONSTANTS = 16


class _Top:
    """The lattice top: any value may occur at the position."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()

#: a sort is ``TOP`` or a frozenset of ``("const", value)`` /
#: ``("type", typename)`` items; the empty frozenset is bottom
Sort = Any


def _type_name(value: Any) -> str:
    return type(value).__name__


def _normalize(items: Iterable[tuple[str, Any]]) -> frozenset:
    """Drop constants covered by a type item; collapse overflowing
    constant sets to their types."""
    out = set(items)
    types = {val for kind, val in out if kind == "type"}
    if types:
        out = {
            it for it in out
            if it[0] == "type" or _type_name(it[1]) not in types
        }
    consts = [it for it in out if it[0] == "const"]
    if len(consts) > MAX_SORT_CONSTANTS:
        for it in consts:
            out.discard(it)
            out.add(("type", _type_name(it[1])))
    return frozenset(out)


def sort_of_values(values: Iterable[Any]) -> Sort:
    """The tightest sort covering *values* (bottom for no values)."""
    items: set[tuple[str, Any]] = set()
    types: set[str] = set()
    for v in values:
        if types:
            types.add(_type_name(v))
            continue
        items.add(("const", v))
        if len(items) > MAX_SORT_CONSTANTS:
            types = {_type_name(it[1]) for it in items}
    if types:
        return frozenset(("type", t) for t in types)
    return frozenset(items)


def sort_join(a: Sort, b: Sort) -> Sort:
    if a is TOP or b is TOP:
        return TOP
    return _normalize(a | b)


def sort_meet(a: Sort, b: Sort) -> Sort:
    """Greatest lower bound: the values both sorts admit."""
    if a is TOP:
        return b
    if b is TOP:
        return a
    out = set()
    b_types = {val for kind, val in b if kind == "type"}
    a_types = {val for kind, val in a if kind == "type"}
    for kind, val in a:
        if kind == "const":
            if ("const", val) in b or _type_name(val) in b_types:
                out.add((kind, val))
        else:
            if val in b_types:
                out.add((kind, val))
            else:
                out.update(
                    it for it in b
                    if it[0] == "const" and _type_name(it[1]) == val
                )
    return frozenset(out)


def sort_types(s: Sort) -> Optional[frozenset[str]]:
    """The Python type names a sort admits (``None`` for TOP = all)."""
    if s is TOP:
        return None
    return frozenset(
        val if kind == "type" else _type_name(val) for kind, val in s
    )


def render_sort(s: Sort) -> str:
    if s is TOP:
        return "any"
    if not s:
        return "empty"
    consts = sorted(
        (repr(val) for kind, val in s if kind == "const"), key=str
    )
    types = sorted(val for kind, val in s if kind == "type")
    return "{" + ", ".join(types + consts) + "}"


# ---------------------------------------------------------------------------
# degree sketches
# ---------------------------------------------------------------------------

#: propagated cardinalities saturate here, so recursive sketch
#: iteration climbs at most ~40 buckets per position before stabilizing
CARD_CAP = float(1 << 40)

#: relations smaller than this are never reported as skewed (DL022)
SKEW_MIN_SIZE = 16

#: on-disk sketch format version (see docs/api.md "Program analysis")
PROFILE_FORMAT_VERSION = 1


class DegreeSketch:
    """A relation's measured-or-propagated cardinality abstraction.

    ``size`` and ``degree[p]`` are log-bucketed (:func:`bucket_size`)
    exactly like :class:`repro.engine.cost.RelationProfile`, so a
    sketch converts losslessly into the planner's profile.  ``measured``
    is ``True`` only when every input the value was computed from was
    counted on real rows (and no saturation occurred) — synthetic
    defaults and saturated recursive estimates are not "measured", and
    DL021/DL022 only ever fire on measured sketches.  ``raw_size`` /
    ``raw_degree`` keep the exact pre-bucket counts for measured EDB
    seeds (0/() otherwise); they do not participate in equality or
    signatures.
    """

    __slots__ = ("size", "degree", "measured", "raw_size", "raw_degree")

    def __init__(
        self,
        size: int,
        degree: tuple[int, ...],
        measured: bool = False,
        raw_size: int = 0,
        raw_degree: tuple[int, ...] = (),
    ):
        self.size = size
        self.degree = degree
        self.measured = measured
        self.raw_size = raw_size
        self.raw_degree = raw_degree

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DegreeSketch)
            and self.size == other.size
            and self.degree == other.degree
            and self.measured == other.measured
        )

    def __hash__(self) -> int:
        return hash((self.size, self.degree, self.measured))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "measured" if self.measured else "synthetic"
        return f"DegreeSketch({self.size}, {self.degree}, {tag})"

    def signature(self) -> tuple:
        return (self.size, self.degree, self.measured)

    def to_profile(self) -> RelationProfile:
        return RelationProfile(self.size, self.degree)

    def join(self, other: "DegreeSketch") -> "DegreeSketch":
        degree = tuple(
            max(a, b) for a, b in zip(self.degree, other.degree)
        )
        if len(self.degree) != len(other.degree):
            longer = max((self.degree, other.degree), key=len)
            degree = degree + longer[len(degree):]
        return DegreeSketch(
            max(self.size, other.size), degree,
            self.measured and other.measured,
        )

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "degree": list(self.degree),
            "measured": self.measured,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DegreeSketch":
        return cls(
            int(data["size"]),
            tuple(int(d) for d in data["degree"]),
            bool(data.get("measured", False)),
        )

    @classmethod
    def from_counts(cls, size: int, degrees: Sequence[int]) -> "DegreeSketch":
        """A measured sketch from exact (row count, max degree) counts —
        the shape :meth:`Relation.degree_profile` returns."""
        return cls(
            bucket_size(size),
            tuple(bucket_size(d) for d in degrees),
            measured=True,
            raw_size=size,
            raw_degree=tuple(degrees),
        )

    @classmethod
    def synthetic(cls, arity: int) -> "DegreeSketch":
        """The planner's synthetic default, bucketed (the fallback when
        no EDB is loaded)."""
        return cls(
            bucket_size(DEFAULT_SIZE),
            tuple(bucket_size(DEFAULT_FANOUT) for _ in range(arity)),
            measured=False,
        )


def save_profiles(path: str, sketches: Mapping[str, DegreeSketch]) -> None:
    """Persist *sketches* as JSON (format in docs/api.md)."""
    payload = {
        "version": PROFILE_FORMAT_VERSION,
        "sketches": {
            pred: sketches[pred].to_dict() for pred in sorted(sketches)
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def load_profiles(path: str) -> dict[str, DegreeSketch]:
    """Load sketches persisted by :func:`save_profiles`."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    version = payload.get("version")
    if version != PROFILE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported profile format version {version!r} "
            f"(expected {PROFILE_FORMAT_VERSION})"
        )
    return {
        pred: DegreeSketch.from_dict(data)
        for pred, data in payload.get("sketches", {}).items()
    }


# ---------------------------------------------------------------------------
# the domain contract
# ---------------------------------------------------------------------------


class AbstractDomain:
    """One pluggable analysis: a lattice plus a rule transfer function.

    The driver seeds every EDB predicate (:meth:`seed`), starts every
    IDB predicate at :meth:`bottom`, and Kleene-iterates
    :meth:`transfer` over each SCC of the adorned program's
    condensation, joining each rule's contribution into its head's
    value until the environment stabilizes (widening to :meth:`top`
    past the iteration budget).  :meth:`diagnostics` then reads the
    final environment off the :class:`AnalysisContext`.
    """

    #: the key this domain's values live under in the environment
    name: str = "domain"

    def seed(self, predicate: str, arity: int,
             relation: Optional["Relation"]) -> Any:
        """The EDB value: measured from *relation* when stored,
        an unknown-but-sound default when ``None``."""
        raise NotImplementedError

    def bottom(self, predicate: str, arity: int) -> Any:
        raise NotImplementedError

    def top(self, predicate: str, arity: int) -> Any:
        raise NotImplementedError

    def join(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def transfer(self, view: "RuleView", env: Mapping[str, Any]) -> Any:
        """The head value this rule contributes under *env*."""
        raise NotImplementedError

    def settle(self, predicate: str, value: Any, arity: int,
               recursive: bool, adom: Optional[int]) -> Any:
        """Post-stabilization adjustment for one component member.

        *recursive* marks members of recursive components; *adom* is
        the size of the active domain (distinct EDB constants plus
        program constants) when an EDB was loaded, else ``None``.  The
        default keeps the fixpoint value unchanged."""
        return value

    def diagnostics(self, ctx: "AnalysisContext") -> list[Diagnostic]:
        return []


# ---------------------------------------------------------------------------
# sort inference
# ---------------------------------------------------------------------------

#: rows sampled per relation when seeding sorts; beyond the cap the
#: constant sets have long collapsed to type sets anyway
SORT_SEED_ROW_LIMIT = 4096


class SortDomain(AbstractDomain):
    """Per-position constant/type sorts; DL018 / DL019 / DL020."""

    name = "sorts"

    def seed(self, predicate: str, arity: int,
             relation: Optional["Relation"]) -> tuple:
        if relation is None:
            return tuple(TOP for _ in range(arity))
        columns: list[set] = [set() for _ in range(arity)]
        for i, row in enumerate(relation):
            if i >= SORT_SEED_ROW_LIMIT:
                break
            for p in range(arity):
                columns[p].add(row[p])
        if len(relation) > SORT_SEED_ROW_LIMIT:
            # sampled: keep only the (closed) type information
            return tuple(
                frozenset(("type", t) for t in {_type_name(v) for v in col})
                for col in columns
            )
        return tuple(sort_of_values(col) for col in columns)

    def bottom(self, predicate: str, arity: int) -> tuple:
        return tuple(frozenset() for _ in range(arity))

    def top(self, predicate: str, arity: int) -> tuple:
        return tuple(TOP for _ in range(arity))

    def join(self, a: tuple, b: tuple) -> tuple:
        return tuple(sort_join(x, y) for x, y in zip(a, b))

    # -- propagation --------------------------------------------------------

    def _propagate(
        self,
        view: "RuleView",
        env: Mapping[str, Any],
        findings: Optional[list] = None,
        is_idb=None,
    ) -> tuple:
        """One pass over *view*'s body: returns the head sort tuple,
        optionally appending ``(kind, atom, position, detail)`` finding
        candidates (kinds: ``const``, ``unify``, ``empty``)."""
        rule = view.rule
        var_sorts: dict[Variable, Sort] = {}
        empty = False
        for atom in rule.body:
            if is_builtin(atom.predicate):
                continue
            sorts = env.get(atom.predicate)
            if sorts is None:
                sorts = self.top(atom.predicate, len(atom.args))
            for p, arg in enumerate(atom.args):
                pos_sort = sorts[p] if p < len(sorts) else TOP
                if pos_sort is not TOP and not pos_sort:
                    # the position admits no value at all
                    empty = True
                    if findings is not None and not (
                        is_idb and is_idb(atom.predicate)
                    ):
                        findings.append(("empty", atom, p, pos_sort))
                    continue
                if isinstance(arg, Constant):
                    met = sort_meet(
                        frozenset({("const", arg.value)}), pos_sort
                    )
                    if not met and met is not TOP:
                        empty = True
                        if findings is not None:
                            findings.append(("const", atom, p, pos_sort))
                else:
                    old = var_sorts.get(arg, TOP)
                    met = sort_meet(old, pos_sort)
                    if (
                        met is not TOP
                        and not met
                        and (old is TOP or old)
                        and pos_sort
                    ):
                        empty = True
                        if findings is not None:
                            findings.append(("unify", atom, p, old))
                    var_sorts[arg] = met
        if empty:
            return self.bottom(rule.head.predicate, len(rule.head.args))
        head = []
        for arg in rule.head.args:
            if isinstance(arg, Constant):
                head.append(frozenset({("const", arg.value)}))
            else:
                head.append(var_sorts.get(arg, TOP))
        return tuple(head)

    def transfer(self, view: "RuleView", env: Mapping[str, Any]) -> tuple:
        return self._propagate(view, env)

    # -- findings -----------------------------------------------------------

    def diagnostics(self, ctx: "AnalysisContext") -> list[Diagnostic]:
        out: list[Diagnostic] = []
        env = ctx.env[self.name]
        for view in ctx.views:
            findings: list = []
            self._propagate(view, env, findings, is_idb=ctx.is_idb)
            for kind, atom, p, detail in findings:
                base = ctx.base_of(atom.predicate)
                if kind == "const":
                    const = atom.args[p]
                    out.append(Diagnostic(
                        "DL018", Severity.WARNING,
                        f"constant {const} never occurs at position {p} "
                        f"of {base} (inferred sort "
                        f"{render_sort(detail)}); the rule cannot fire",
                        predicate=ctx.base_of(view.base),
                        rule_index=view.index,
                        span=view.span,
                        hint="drop the rule or fix the constant",
                    ))
                elif kind == "empty":
                    out.append(Diagnostic(
                        "DL018", Severity.WARNING,
                        f"position {p} of {base} admits no value (the "
                        f"stored relation is empty there); the rule "
                        f"cannot fire",
                        predicate=ctx.base_of(view.base),
                        rule_index=view.index,
                        span=view.span,
                        hint="load facts for the predicate or drop "
                             "the rule",
                    ))
                else:
                    var = atom.args[p]
                    pos_sort = env.get(atom.predicate)
                    pos_sort = (
                        pos_sort[p]
                        if pos_sort is not None and p < len(pos_sort)
                        else TOP
                    )
                    types_a = sort_types(detail)
                    types_b = sort_types(pos_sort)
                    disjoint_types = (
                        types_a is not None
                        and types_b is not None
                        and not (types_a & types_b)
                    )
                    if disjoint_types:
                        out.append(Diagnostic(
                            "DL019", Severity.WARNING,
                            f"variable {var} unifies type-disjoint "
                            f"sorts {render_sort(detail)} and "
                            f"{render_sort(pos_sort)} at position {p} "
                            f"of {base}; the join always fails",
                            predicate=ctx.base_of(view.base),
                            rule_index=view.index,
                            span=view.span,
                            hint="the joined columns hold different "
                                 "types of values; check the rule",
                        ))
                    else:
                        out.append(Diagnostic(
                            "DL018", Severity.WARNING,
                            f"variable {var} joins value-disjoint "
                            f"sorts {render_sort(detail)} and "
                            f"{render_sort(pos_sort)} at position {p} "
                            f"of {base}; the join is statically empty",
                            predicate=ctx.base_of(view.base),
                            rule_index=view.index,
                            span=view.span,
                            hint="no value occurs in both joined "
                                 "columns",
                        ))
        # DL020: constant head columns of derived predicates (fact-only
        # predicates are EDB-in-disguise — DL015's territory, and a
        # single fact would always "pin" its columns)
        for base, sorts in sorted(ctx.merged(self.name).items()):
            if not ctx.is_idb_base(base) or ctx.fact_only(base):
                continue
            for p, s in enumerate(sorts):
                if s is TOP or len(s) != 1:
                    continue
                (kind, val), = s
                if kind != "const":
                    continue
                view = ctx.first_view(base)
                out.append(Diagnostic(
                    "DL020", Severity.INFO,
                    f"every {base} fact carries the constant {val!r} "
                    f"at position {p}; a selection could specialize "
                    f"the column away",
                    predicate=base,
                    rule_index=view.index if view else None,
                    span=view.span if view else None,
                ))
        return out


# ---------------------------------------------------------------------------
# cardinality sketches
# ---------------------------------------------------------------------------

#: a rule blows up when its best-order intermediate bound exceeds this
#: multiple of its largest input relation (the measured analogue of
#: lints.BOUND_BLOWUP_FACTOR over DEFAULT_SIZE)
MEASURED_BLOWUP_FACTOR = 100


class CardinalityDomain(AbstractDomain):
    """Measured/propagated :class:`DegreeSketch` values; DL021 / DL022."""

    name = "cardinality"

    def __init__(self,
                 preloaded: Optional[Mapping[str, DegreeSketch]] = None):
        self.preloaded = dict(preloaded or {})

    def seed(self, predicate: str, arity: int,
             relation: Optional["Relation"]) -> DegreeSketch:
        loaded = self.preloaded.get(predicate)
        if loaded is not None:
            return loaded
        if relation is None:
            return DegreeSketch.synthetic(arity)
        size, degrees = relation.degree_profile()
        return DegreeSketch.from_counts(size, degrees)

    def bottom(self, predicate: str, arity: int) -> DegreeSketch:
        return DegreeSketch(0, (0,) * arity, measured=True)

    def top(self, predicate: str, arity: int) -> DegreeSketch:
        cap = int(CARD_CAP)
        return DegreeSketch(cap, (cap,) * arity, measured=False)

    def join(self, a: DegreeSketch, b: DegreeSketch) -> DegreeSketch:
        return a.join(b)

    # -- propagation --------------------------------------------------------

    def _pricing(
        self, view: "RuleView", env: Mapping[str, Any]
    ) -> tuple[list[Atom], BoundCostModel, frozenset, bool]:
        """The priced body: relational literals with the Lemma 3.1
        existential components dropped, a cost model over the body's
        sketches, the needed-variable seed, and whether every priced
        sketch is measured."""
        rule = view.rule
        relational = [
            a for a in rule.body if not is_builtin(a.predicate)
        ]
        needed = view.needed_vars | frozenset(
            v
            for atom in (*rule.negative,
                         *(a for a in rule.body
                           if is_builtin(a.predicate)))
            for v in atom.args
            if isinstance(v, Variable)
        )
        relational = [
            a for a in relational
            if _component_vars(a, relational) & needed
        ]
        profiles: dict[str, RelationProfile] = {}
        measured = True
        for a in relational:
            sketch = env.get(a.predicate)
            if sketch is None:
                sketch = DegreeSketch.synthetic(len(a.args))
            measured = measured and sketch.measured
            profiles.setdefault(a.predicate, sketch.to_profile())
        return relational, BoundCostModel(profiles), needed, measured

    @staticmethod
    def _propagate(
        relational: Sequence[Atom],
        model: BoundCostModel,
        needed: frozenset,
        bound: frozenset = frozenset(),
    ) -> tuple[float, float]:
        """(final, worst) intermediate cardinality bound along the
        model's best order, starting from *bound* variables."""
        if not relational:
            return 1.0, 1.0
        order = model.order_remaining(
            relational, tuple(range(len(relational))), bound, needed
        )
        if order is None:
            order = tuple(range(len(relational)))
        bound_vars = set(bound)
        card = 1.0
        worst = 0.0
        for pos, i in enumerate(order):
            atom = relational[i]
            matches = model.literal_bound(atom, frozenset(bound_vars))
            new_vars = {
                v for v in atom.args if isinstance(v, Variable)
            } - bound_vars
            if new_vars:
                later = set(needed)
                for j in order[pos + 1:]:
                    later.update(
                        v for v in relational[j].args
                        if isinstance(v, Variable)
                    )
                if not (new_vars & later):
                    matches = min(matches, 1.0)
            card = min(card * matches, CARD_CAP)
            worst = max(worst, card)
            bound_vars |= new_vars
        return card, worst

    def transfer(self, view: "RuleView",
                 env: Mapping[str, Any]) -> DegreeSketch:
        rule = view.rule
        arity = len(rule.head.args)
        relational, model, needed, measured = self._pricing(view, env)
        if not relational:
            # a fact rule, or a body retired entirely by the Lemma 3.1
            # cut: at most one row per evaluation
            return DegreeSketch(
                bucket_size(1), tuple(bucket_size(1) for _ in range(arity)),
                measured=measured,
            )
        final, _ = self._propagate(relational, model, needed)
        size = bucket_size(int(min(final, CARD_CAP)))
        degree = []
        for arg in rule.head.args:
            if isinstance(arg, Variable) and any(
                arg in a.args for a in relational
            ):
                fixed, _ = self._propagate(
                    relational, model, needed, frozenset({arg})
                )
                degree.append(
                    min(size, bucket_size(int(min(fixed, CARD_CAP))))
                )
            else:
                # a constant column (every row shares it) or an unsafe
                # head variable: the degree is the full size
                degree.append(size)
        return DegreeSketch(
            size, tuple(degree),
            measured=measured and final < CARD_CAP,
        )

    def settle(self, predicate: str, value: DegreeSketch, arity: int,
               recursive: bool, adom: Optional[int]) -> DegreeSketch:
        """Recursive members accumulate rows across rounds, so the
        per-round transfer bound does not bound their fixpoint.  What
        *does* bound it is the active domain: a derived fact's
        constants all come from the EDB and the program, so at most
        ``adom ** arity`` distinct rows exist (``adom ** (arity - 1)``
        per fixed value at one position).  With a loaded EDB the
        sketch is clamped there — still a measured quantity; without
        one the value keeps its (synthetic-seeded, unmeasured)
        per-round estimate."""
        if not recursive:
            return value
        if adom is None:
            return DegreeSketch(value.size, value.degree, measured=False)
        size = bucket_size(int(min(float(adom) ** arity, CARD_CAP)))
        per_key = bucket_size(
            int(min(float(adom) ** max(arity - 1, 0), CARD_CAP))
        )
        return DegreeSketch(
            max(value.size, size),
            tuple(min(max(value.size, size), max(d, per_key))
                  for d in value.degree),
            measured=value.measured,
        )

    # -- findings -----------------------------------------------------------

    def diagnostics(self, ctx: "AnalysisContext") -> list[Diagnostic]:
        out: list[Diagnostic] = []
        env = ctx.env[self.name]
        # DL021: measured bound blowup per rule
        for view in ctx.views:
            relational, model, needed, measured = self._pricing(view, env)
            if not measured or not relational:
                continue
            _, worst = self._propagate(relational, model, needed)
            largest = max(
                (env[a.predicate].size for a in relational
                 if a.predicate in env),
                default=0,
            )
            threshold = MEASURED_BLOWUP_FACTOR * max(1, largest)
            if worst > threshold:
                out.append(Diagnostic(
                    "DL021", Severity.WARNING,
                    f"measured intermediate bound {int(worst)} exceeds "
                    f"{MEASURED_BLOWUP_FACTOR}x the largest input "
                    f"relation ({largest} rows) even under the best "
                    f"join order",
                    predicate=ctx.base_of(view.base),
                    rule_index=view.index,
                    span=view.span,
                    hint="the rule multiplies its inputs on this EDB; "
                         "add a join condition or shrink the inputs",
                ))
        # DL022: hub-key skew in measured EDB relations
        for pred in sorted(ctx.edb_predicates()):
            sketch = env.get(pred)
            if sketch is None or not sketch.measured:
                continue
            if sketch.raw_size < SKEW_MIN_SIZE:
                continue
            for p, d in enumerate(sketch.raw_degree):
                if d > 1 and 2 * d >= sketch.raw_size:
                    out.append(Diagnostic(
                        "DL022", Severity.INFO,
                        f"position {p} of {pred} is dominated by a hub "
                        f"key: one value matches {d} of "
                        f"{sketch.raw_size} rows",
                        predicate=pred,
                    ))
        return out


# ---------------------------------------------------------------------------
# boundedness / derivability
# ---------------------------------------------------------------------------


class BoundednessDomain(AbstractDomain):
    """Two-point derivability lattice; DL023 / DL024."""

    name = "boundedness"

    def seed(self, predicate: str, arity: int,
             relation: Optional["Relation"]) -> bool:
        # an unknown EDB is assumed nonempty; a *loaded* empty relation
        # is known-empty
        return relation is None or len(relation) > 0

    def bottom(self, predicate: str, arity: int) -> bool:
        return False

    def top(self, predicate: str, arity: int) -> bool:
        return True

    def join(self, a: bool, b: bool) -> bool:
        return a or b

    def transfer(self, view: "RuleView", env: Mapping[str, Any]) -> bool:
        # negation over an empty relation is true, so negative literals
        # never block derivability; builtins are assumed satisfiable
        return all(
            env.get(a.predicate, True)
            for a in view.rule.body
            if not is_builtin(a.predicate)
        )

    def diagnostics(self, ctx: "AnalysisContext") -> list[Diagnostic]:
        out: list[Diagnostic] = []
        env = ctx.env[self.name]
        for scc in ctx.recursive_components():
            members = sorted(scc)
            views = [v for v in ctx.views
                     if v.rule.head.predicate in scc]
            if not views:
                continue
            bases = sorted({ctx.base_of(m) for m in members})
            label = ", ".join(bases)
            if not any(env.get(m, False) for m in members):
                anchor = views[0]
                out.append(Diagnostic(
                    "DL024", Severity.WARNING,
                    f"recursive component {{{label}}} has no derivable "
                    f"non-recursive rule; its least fixpoint is empty "
                    f"on every EDB",
                    predicate=ctx.base_of(anchor.base),
                    rule_index=anchor.index,
                    span=anchor.span,
                    hint="add a base-case rule (or facts for the "
                         "predicates it depends on)",
                ))
                continue
            bounded = True
            anchor = None
            for view in views:
                recursive = [
                    a for a in view.rule.body
                    if a.predicate in scc
                ]
                if not recursive:
                    continue
                anchor = anchor or view
                head_vars = set(view.rule.head.variables())
                frontier = {
                    v
                    for a in recursive
                    for v in a.args
                    if isinstance(v, Variable) and v not in head_vars
                }
                if frontier:
                    bounded = False
                    break
            if bounded and anchor is not None:
                out.append(Diagnostic(
                    "DL023", Severity.INFO,
                    f"recursive component {{{label}}} consumes only "
                    f"bindings its heads already expose; the fixpoint "
                    f"is bounded and a nonrecursive unrolling exists",
                    predicate=ctx.base_of(anchor.base),
                    rule_index=anchor.index,
                    span=anchor.span,
                ))
        return out
