"""Differential suite for the query selection/projection.

:func:`reference_answers` is the straightforward per-row, per-argument
loop: it reads every row of the relation and checks each argument in
turn.  :func:`~repro.engine.evaluator.answers_of` answers from a
maintained hash index or a filtered scan with C-level getters; the two
must agree *type-exactly* (``1`` and ``True`` are different answers)
on every query atom and every relation, and a read must never build an
index.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Database
from repro.datalog.ast import Atom
from repro.datalog.terms import Constant, Variable
from repro.engine.evaluator import answers_of, project_rows

#: values that collide under ``==``/``hash`` across types (1, True,
#: 1.0 is left out: the parser never emits floats), bigints past any
#: machine word, and non-ASCII strings
VALUES = [0, 1, 2, True, False, 2**70, -(2**65), "a", "é", "日本", "1"]


def reference_answers(db: Database, query: Atom) -> frozenset:
    var_positions: list[int] = []
    seen_vars: dict = {}
    for p, arg in enumerate(query.args):
        if isinstance(arg, Variable) and arg not in seen_vars:
            seen_vars[arg] = p
            var_positions.append(p)
    out = set()
    for row in db.rows(query.predicate):
        ok = True
        for p, arg in enumerate(query.args):
            if isinstance(arg, Constant):
                if row[p] != arg.value:
                    ok = False
                    break
            else:
                if row[seen_vars[arg]] != row[p]:
                    ok = False
                    break
        if ok:
            out.add(tuple(row[p] for p in var_positions))
    return frozenset(out)


def typed(answers) -> set:
    """Answers with every value tagged by its type, so ``(1,)`` and
    ``(True,)`` compare different."""
    return {tuple((type(v), v) for v in row) for row in answers}


@st.composite
def query_atoms(draw, arity: int):
    """A query atom mixing constants, repeated named variables and
    anonymous variables (one fresh ``_k`` per occurrence, as the parser
    emits for ``_``)."""
    args = []
    for i in range(arity):
        kind = draw(st.sampled_from(["const", "var", "anon"]))
        if kind == "const":
            args.append(Constant(draw(st.sampled_from(VALUES))))
        elif kind == "var":
            args.append(Variable(draw(st.sampled_from(["X", "Y"]))))
        else:
            args.append(Variable(f"_{i + 1}"))
    return Atom("r", tuple(args))


@st.composite
def cases(draw):
    arity = draw(st.integers(min_value=0, max_value=3))
    rows = draw(
        st.lists(
            st.tuples(*[st.sampled_from(VALUES)] * arity), max_size=30
        )
    )
    query = draw(query_atoms(arity))
    const_positions = tuple(
        p for p, a in enumerate(query.args) if isinstance(a, Constant)
    )
    # None: no index; otherwise how many rows go in before the index
    # on the constant positions is built (the rest are maintained)
    index_after = draw(
        st.none() | st.integers(min_value=0, max_value=len(rows))
    )
    other_index = draw(st.sets(st.integers(0, max(arity - 1, 0)), max_size=arity))
    return arity, rows, query, const_positions, index_after, tuple(sorted(other_index))


@settings(max_examples=300, deadline=None)
@given(cases())
def test_answers_match_reference_loop(case):
    arity, rows, query, const_positions, index_after, other_index = case
    db = Database()
    rel = db.ensure("r", arity)
    split = len(rows) if index_after is None else index_after
    rel.update(rows[:split])
    if index_after is not None and const_positions:
        rel.index_for(const_positions)
    if other_index and arity:
        rel.index_for(other_index)
    rel.update(rows[split:])
    builds = rel.index_builds
    got = answers_of(db, query)
    assert rel.index_builds == builds
    assert typed(got) == typed(reference_answers(db, query))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(*[st.sampled_from(VALUES)] * 3), max_size=30),
    st.lists(st.integers(0, 2), max_size=3),
)
def test_projection_matches_reference_loop(rows, positions):
    """Pipeline answers project with :func:`project_rows`; projecting
    can merge ``1`` and ``True`` rows, and the survivor must be the one
    the per-row loop keeps."""
    answers = frozenset(rows)
    expected = frozenset(tuple(row[i] for i in positions) for row in answers)
    assert typed(project_rows(answers, tuple(positions))) == typed(expected)
