"""Extensional database storage: relations, hash indexes, databases.

A :class:`Relation` is a set of equal-length tuples of plain Python
values (the values of :class:`~repro.datalog.terms.Constant` terms).
Hash indexes over argument-position subsets are built lazily and cached;
the evaluation engine asks for the index matching the bound positions of
each join step.

A :class:`Database` maps predicate names to relations and is the *EDB*
of the paper's program triple ``P = (Q, EDB, IDB)``.  Databases are
mutable (the engine inserts derived facts into a working database), but
:meth:`Database.copy` and value-semantics equality make it cheap to use
them functionally in tests.
"""

from __future__ import annotations

import threading
from collections import Counter
from operator import itemgetter
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from .ast import Atom
from .errors import ArityError, ValidationError

__all__ = ["Relation", "Database"]

Row = Tuple


class Relation:
    """A set of fixed-arity tuples with lazily built hash indexes."""

    __slots__ = ("arity", "_rows", "_indexes", "index_builds", "_build_lock")

    def __init__(self, arity: int, rows: Iterable[Sequence] = ()):
        self.arity = arity
        self._rows: set[Row] = set()
        self._indexes: dict[tuple[int, ...], dict[Row, list[Row]]] = {}
        #: number of hash indexes materialized over this relation's
        #: lifetime (lazy builds only; incremental maintenance on
        #: insert does not count)
        self.index_builds: int = 0
        #: serializes lazy index builds: parallel evaluation units may
        #: probe the same read-only relation concurrently, and exactly
        #: one of them must materialize (and count) each missing index
        self._build_lock = threading.Lock()
        for row in rows:
            self.add(tuple(row))

    # -- mutation ----------------------------------------------------------

    def add(self, row: Row) -> bool:
        """Insert *row*; return True iff it was new.

        Maintains any already-built indexes incrementally.
        """
        if len(row) != self.arity:
            raise ArityError(
                f"row of length {len(row)} inserted into relation of arity {self.arity}"
            )
        rows = self._rows
        if row in rows:
            return False
        rows.add(row)
        for positions, index in self._indexes.items():
            key = tuple(row[p] for p in positions)
            posting = index.get(key)
            if posting is None:
                index[key] = [row]
            else:
                posting.append(row)
        return True

    def update(self, rows: Iterable[Row]) -> int:
        """Insert many rows; return the number actually added."""
        return sum(1 for row in rows if self.add(tuple(row)))

    def bulk_load(self, rows: Iterable[Row]) -> int:
        """Fill an **empty** relation in one pass — the snapshot-restore
        fast path: rows land directly in the raw set with no per-row
        index upkeep (nothing derived exists yet to maintain; indexes
        build lazily later).
        """
        if self._rows or self._indexes:
            raise ValidationError("bulk_load requires an empty relation")
        loaded = set(map(tuple, rows))
        arity = self.arity
        for row in loaded:
            if len(row) != arity:
                raise ArityError(
                    f"row of length {len(row)} bulk-loaded into relation "
                    f"of arity {arity}"
                )
        self._rows = loaded
        return len(loaded)

    def discard(self, row: Row) -> bool:
        """Remove *row*; return True iff it was present.

        Maintains any already-built indexes incrementally (the row is
        removed from each posting list; an emptied list is dropped so
        index contents stay equal to a fresh build over the remaining
        rows).
        """
        row = tuple(row)
        if row not in self._rows:
            return False
        self._rows.discard(row)
        for positions, index in self._indexes.items():
            key = tuple(row[p] for p in positions)
            posting = index.get(key)
            if posting is not None:
                try:
                    posting.remove(row)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not posting:
                    del index[key]
        return True

    # -- lookup -------------------------------------------------------------

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> frozenset[Row]:
        return frozenset(self._rows)

    def index_for(self, positions: tuple[int, ...]) -> dict[Row, list[Row]]:
        """Return (building if necessary) the hash index on *positions*.

        The index maps a key tuple (the row values at *positions*, in
        that order) to the list of full rows having those values.
        """
        index = self._indexes.get(positions)
        if index is None:
            # Double-checked locking: the unlocked fast path above is
            # safe because dict reads are atomic and a published index
            # is never mutated concurrently with probes (parallel units
            # only probe relations that are read-only at their depth).
            with self._build_lock:
                index = self._indexes.get(positions)
                if index is None:
                    index = {}
                    for row in self._rows:
                        key = tuple(row[p] for p in positions)
                        index.setdefault(key, []).append(row)
                    self._indexes[positions] = index
                    self.index_builds += 1
        return index

    def has_index(self, positions: tuple[int, ...]) -> bool:
        """True iff the index on *positions* is currently materialized."""
        return positions in self._indexes

    def indexed_position_sets(self) -> frozenset[tuple[int, ...]]:
        """The position subsets currently carrying a hash index."""
        return frozenset(self._indexes)

    def invalidate_indexes(self) -> None:
        """Drop every materialized index (they rebuild lazily).

        Inserts normally maintain indexes incrementally, so this is
        only needed when rows are mutated behind the relation's back
        (tests) or to bound memory between evaluation phases.
        """
        self._indexes.clear()

    def lookup(self, positions: tuple[int, ...], key: Row) -> list[Row]:
        """Rows whose values at *positions* equal *key* (empty list if none).

        With empty *positions* this returns all rows.
        """
        if not positions:
            return list(self._rows)
        return self.index_for(positions).get(tuple(key), [])

    def degree_profile(self) -> tuple[int, tuple[int, ...]]:
        """Measured ``(row count, per-position max degree)`` statistics.

        Degrees are read from an existing single-position hash index
        (posting lengths) when one is built, else from one C-level
        count over the rows.  This never *builds* an index — profiling
        must not bump the index-build counters, so the engine's work
        statistics are identical with and without profiling.
        """
        rows = self._rows
        degrees: list[int] = []
        for p in range(self.arity):
            index = self._indexes.get((p,))
            if index is not None:
                degrees.append(max(map(len, index.values()), default=0))
            else:
                counts = Counter(map(itemgetter(p), rows))
                degrees.append(max(counts.values(), default=0))
        return len(rows), tuple(degrees)

    # perfbench compatibility — drop with the next benchmark PR.  The
    # benchmark's traced run wraps these two names; nothing calls them.
    def column_store(self) -> None:
        return None

    def packed_runs(self) -> None:
        return None

    def copy(self) -> "Relation":
        """An independent copy carrying the materialized indexes.

        Rows and per-key posting lists are copied (cheap: the tuples
        themselves are shared), so the copy starts with every index the
        original had built instead of rebuilding them lazily from
        scratch.  The copy's ``index_builds`` counter starts at zero —
        carried indexes were not built by the copy.
        """
        out = Relation.__new__(Relation)
        out.arity = self.arity
        out._rows = set(self._rows)
        out._indexes = {
            positions: {key: list(rows) for key, rows in index.items()}
            for positions, index in self._indexes.items()
        }
        out.index_builds = 0
        out._build_lock = threading.Lock()
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.arity == other.arity and self._rows == other._rows

    def __hash__(self):  # relations are mutable containers
        raise TypeError("Relation is unhashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sample = sorted(self._rows, key=repr)[:4]
        more = "..." if len(self._rows) > 4 else ""
        return f"Relation(arity={self.arity}, {len(self._rows)} rows: {sample}{more})"


class Database:
    """A mapping from predicate names to :class:`Relation` objects."""

    __slots__ = ("_relations",)

    def __init__(self, relations: Optional[Mapping[str, Relation]] = None):
        self._relations: Dict[str, Relation] = {}
        if relations:
            for name, rel in relations.items():
                self._relations[name] = rel.copy()

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable[Sequence]]) -> "Database":
        """Build a database from ``{"pred": [(a, b), ...], ...}``.

        Arity is inferred from the first tuple of each relation; an
        empty iterable is rejected because its arity is unknown (use
        :meth:`ensure` for empty relations).
        """
        db = cls()
        for name, rows in data.items():
            rows = [tuple(r) for r in rows]
            if not rows:
                raise ValidationError(
                    f"cannot infer arity of empty relation {name!r}; use ensure()"
                )
            rel = Relation(len(rows[0]))
            rel.update(rows)
            db._relations[name] = rel
        return db

    @classmethod
    def from_facts(cls, facts: Iterable[Atom]) -> "Database":
        """Build a database from ground atoms."""
        db = cls()
        for fact in facts:
            db.add_fact(fact)
        return db

    def ensure(self, predicate: str, arity: int) -> Relation:
        """Return the relation for *predicate*, creating it empty if absent."""
        rel = self._relations.get(predicate)
        if rel is None:
            rel = Relation(arity)
            self._relations[predicate] = rel
        elif rel.arity != arity:
            raise ArityError(
                f"relation {predicate} has arity {rel.arity}, requested {arity}"
            )
        return rel

    def add_fact(self, fact: Atom) -> bool:
        """Insert a ground atom; returns True iff new."""
        rel = self.ensure(fact.predicate, fact.arity)
        return rel.add(fact.as_fact())

    def add(self, predicate: str, *values) -> bool:
        """Insert a row given as positional values."""
        rel = self.ensure(predicate, len(values))
        return rel.add(tuple(values))

    # -- access --------------------------------------------------------------

    def relation(self, predicate: str) -> Optional[Relation]:
        return self._relations.get(predicate)

    def rows(self, predicate: str) -> frozenset[Row]:
        """All rows of *predicate* (empty frozenset if absent)."""
        rel = self._relations.get(predicate)
        return rel.rows() if rel is not None else frozenset()

    def predicates(self) -> frozenset[str]:
        return frozenset(self._relations)

    def __contains__(self, predicate: str) -> bool:
        return predicate in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def facts(self) -> Iterator[tuple[str, Row]]:
        """Iterate over all ``(predicate, row)`` pairs."""
        for name, rel in self._relations.items():
            for row in rel:
                yield name, row

    def fact_count(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def relation_sizes(self) -> Dict[str, int]:
        """Current row count per predicate (the planner's selectivity
        input)."""
        return {name: len(rel) for name, rel in self._relations.items()}

    def index_builds(self) -> int:
        """Total lazy index builds across all relations."""
        return sum(rel.index_builds for rel in self._relations.values())

    def active_domain(self) -> frozenset:
        """All constant values occurring anywhere in the database."""
        return frozenset(v for _, row in self.facts() for v in row)

    def copy(self, mutating: Optional[Iterable[str]] = None) -> "Database":
        """An independent copy (indexes carried, see :meth:`Relation.copy`).

        With *mutating* given, only the named relations are copied;
        every other relation object is **shared by reference**.  This
        is the evaluation-engine fast path: the fixpoint loop inserts
        only into rule-head relations, so base relations can be shared
        — and any hash index built lazily on a shared relation during
        one evaluation stays materialized for the next one over the
        same database.  Callers who may mutate arbitrary relations must
        use the default full copy.
        """
        if mutating is None:
            return Database(self._relations)
        mutable = set(mutating)
        out = Database()
        for name, rel in self._relations.items():
            out._relations[name] = rel.copy() if name in mutable else rel
        return out

    def privatize(self, predicate: str) -> Optional[Relation]:
        """Replace *predicate*'s relation with an independent copy and
        return it (None if absent).

        The copy-on-write counterpart of ``copy(mutating=...)``: a
        database holding relations *shared by reference* with another
        database (the evaluation fast path) must privatize a relation
        before mutating it in place — in particular before
        :meth:`Relation.discard` — so retractions in one session can
        never reach the EDB relations other sessions still read.
        """
        rel = self._relations.get(predicate)
        if rel is None:
            return None
        rel = rel.copy()
        self._relations[predicate] = rel
        return rel

    def merged_with(self, other: "Database") -> "Database":
        """A new database containing the facts of both operands."""
        out = self.copy()
        for name, row in other.facts():
            out.ensure(name, len(row)).add(row)
        return out

    def restrict(self, predicates: Iterable[str]) -> "Database":
        """A new database containing only the named relations."""
        keep = set(predicates)
        return Database({n: r for n, r in self._relations.items() if n in keep})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine = {n: r for n, r in self._relations.items() if len(r)}
        theirs = {n: r for n, r in other._relations.items() if len(r)}
        return mine == theirs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{n}:{len(r)}" for n, r in sorted(self._relations.items()))
        return f"Database({parts})"
