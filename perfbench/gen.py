"""Seeded input generators for the three workloads.

Everything here is a pure function of its arguments: the same seed
gives the same job catalogue, program text, EDB rows and batch script.
Nothing in this module times or evaluates anything.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from repro.workloads import families, graphs, paper_examples


def rng_for(seed: int, *salt) -> random.Random:
    """A generator stream derived from *seed* and a salt, so adding a
    stream never reshuffles another one."""
    return random.Random(f"{seed}:{':'.join(map(str, salt))}")


# ---------------------------------------------------------------------------
# query-mix: a fixed catalogue of existential-query families over
# seeded graph EDBs at two or three sizes


@dataclass(frozen=True)
class Job:
    """One ``run -O`` job: program text plus the name of its EDB."""

    name: str
    source: str
    edb: str


def _dag(seed: int, key: str, layers: int, width: int, fanout: int) -> list:
    return graphs.layered_dag(layers, width, fanout, seed=rng_for(seed, key).randrange(1 << 30))


def query_mix_edbs(seed: int) -> dict[str, dict[str, list]]:
    """EDB name -> {predicate: rows}.  Several catalogue jobs share an
    EDB, as ``repro run`` jobs over one facts file would."""
    out: dict[str, dict[str, list]] = {}
    # wide frontiers (columnar batches pay off) at two sizes, plus one
    # deep, narrow frontier (a chain: one row per round)
    out["dag-s"] = {"edge": _dag(seed, "dag-s", 5, 50, 3)}
    out["dag-m"] = {"edge": _dag(seed, "dag-m", 6, 80, 3)}
    out["chain"] = {"edge": graphs.chain(48)}
    out["dag-xs"] = {"edge": _dag(seed, "dag-xs", 4, 16, 2)}
    for size, (layers, width) in {"s": (5, 40), "m": (6, 64)}.items():
        rng = rng_for(seed, "payload", size)
        edges = _dag(seed, f"payload-{size}", layers, width, 3)
        nodes = layers * width
        out[f"payload-{size}"] = {
            "edge": edges,
            "tag0": [(n, rng.randrange(4)) for n in range(nodes)],
            "tag1": [(n, rng.randrange(3)) for n in range(nodes) if rng.random() < 0.7],
        }
    for size, (layers, width) in {"s": (4, 30), "m": (5, 50)}.items():
        out[f"siblings-{size}"] = {
            f"edge{i}": _dag(seed, f"siblings-{size}-{i}", layers, width, 2)
            for i in (1, 2, 3)
        }
    for size, n in {"s": 127, "m": 511}.items():
        rng = rng_for(seed, "sg", size)
        tree = graphs.tree(n, 2)
        depth = {0: 0}
        for parent, child in tree:
            depth[child] = depth[parent] + 1
        by_depth: dict[int, list] = {}
        for node, d in depth.items():
            by_depth.setdefault(d, []).append(node)
        flat = {(a, a) for a in by_depth[max(by_depth)]}
        for level in by_depth.values():
            for _ in range(len(level) // 4):
                flat.add((rng.choice(level), rng.choice(level)))
        out[f"sg-{size}"] = {
            "up": [(c, p) for p, c in tree],
            "down": list(tree),
            "flat": sorted(flat),
        }
    for size, (items, layers, width) in {"s": (200, 5, 30), "m": (800, 6, 60)}.items():
        rng = rng_for(seed, "guarded", size)
        link = _dag(seed, f"guarded-{size}", layers, width, 2)
        nodes = layers * width
        out[f"guarded-{size}"] = {
            "item": [(i, rng.randrange(50)) for i in range(items)],
            "link": link,
            "mark": [(n,) for n in sorted(rng.sample(range(nodes - width, nodes), width // 10))],
        }
    for size, n in {"s": 255, "m": 1023}.items():
        rng = rng_for(seed, "bom", size)
        names = [f"part{i}" for i in range(n)]
        rng.shuffle(names)
        tree = graphs.tree(n, 3)
        internal = sorted({p for p, _ in tree})
        out[f"bom-{size}"] = {
            "part_of": [(names[c], names[p]) for p, c in tree],
            "assembly": [(names[p],) for p in sorted(rng.sample(internal, len(internal) // 2))],
        }
    # the planner's skewed shapes (bench_planner.py), seeded hub names
    rng = rng_for(seed, "planner")
    hub = f"hub{rng.randrange(1000)}"
    out["fanout-trap"] = {
        "dim": [(f"d{i}", hub) for i in range(40)],
        "mid": [(hub, f"z{j}") for j in range(2000)],
        "sel": [(f"z{j}", f"w{j}") for j in range(60)],
    }
    chain, fanout, pad = 60, 20, 2000
    out["skew-star"] = {
        "seed": [(0, 1)],
        "a": [(i, i + 1) for i in range(chain)]
        + [(i, 10_000 + i * fanout + j) for i in range(chain) for j in range(fanout)],
        "b": [(i, i + 1) for i in range(chain)]
        + [(100_000 + k, 200_000 + k) for k in range(pad)],
    }
    return out


FANOUT_TRAP = "q(X, W) :- dim(X, Y), mid(Y, Z), sel(Z, W).\n?- q(X, _)."
SKEW_STAR = """
grow(X, Y) :- seed(X, Y).
grow(X, Z) :- grow(X, Y), a(Y, Z), b(Y, Z).
?- grow(X, _).
"""


def query_mix_catalogue() -> list[Job]:
    """The fixed job catalogue: (family, EDB) pairs.  There are 25, so
    that the median and the 90th percentile of a run's latencies each
    fall in the middle of one job's latencies (the 13th and the 3rd
    costliest), not on the boundary between two jobs."""
    text = {
        "right_linear_tc": str(families.right_linear_tc()),
        "left_linear_tc": str(families.left_linear_tc()),
        "nonlinear_tc": str(families.nonlinear_tc()),
        "tc_sources": str(families.tc_sources()),
        "sg_sources": str(families.same_generation_sources()),
        "payload2": str(families.reachability_with_payload(2)),
        "siblings": str(families.sibling_components(3)),
        "guarded_items": str(families.guarded_items()),
        "bill_of_materials": str(families.bill_of_materials()),
        "bounded_source_tc": str(families.bounded_source_tc(0)),
        "fanout_trap": FANOUT_TRAP,
        "skew_star": SKEW_STAR,
    }
    pairs = [
        ("right_linear_tc", "dag-s"),
        ("right_linear_tc", "dag-m"),
        ("right_linear_tc", "chain"),
        ("left_linear_tc", "dag-s"),
        ("left_linear_tc", "dag-m"),
        ("left_linear_tc", "chain"),
        ("nonlinear_tc", "dag-xs"),
        ("tc_sources", "dag-s"),
        ("tc_sources", "dag-m"),
        ("tc_sources", "chain"),
        ("bounded_source_tc", "dag-s"),
        ("bounded_source_tc", "dag-m"),
        ("bounded_source_tc", "chain"),
        ("sg_sources", "sg-s"),
        ("sg_sources", "sg-m"),
        ("payload2", "payload-s"),
        ("payload2", "payload-m"),
        ("siblings", "siblings-s"),
        ("siblings", "siblings-m"),
        ("guarded_items", "guarded-s"),
        ("guarded_items", "guarded-m"),
        ("bill_of_materials", "bom-s"),
        ("bill_of_materials", "bom-m"),
        ("fanout_trap", "fanout-trap"),
        ("skew_star", "skew-star"),
    ]
    return [Job(f"{fam}@{edb}", text[fam], edb) for fam, edb in pairs]


def round_order(seed: int, round_no: int, count: int) -> list[int]:
    """A seeded permutation of ``range(count)``: every round runs each
    catalogue entry once, so every run sees the same mix."""
    order = list(range(count))
    rng_for(seed, "order", round_no).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# compile-mix: random safe programs with existential queries


#: The program shapes come from this fixed stream so that every seed
#: measures the same mix of shapes (compile cost varies 1000x between
#: shapes); ``--seed`` renames predicates and redraws the EDB rows.
SHAPE_STREAM = 0


def random_program(rng: random.Random) -> str:
    """A safe program of 3-8 rules over EDB ``e*`` / IDB ``p*``
    predicates with a partly existential query.  Every IDB predicate
    gets an exit rule whose body uses only EDB and lower IDB predicates,
    so no predicate is trivially empty."""
    n_edb = rng.randint(1, 3)
    n_idb = rng.randint(1, 3)
    edb = [(f"e{i}", rng.randint(1, 3)) for i in range(n_edb)]
    idb = [(f"p{i}", rng.randint(1, 3)) for i in range(n_idb)]
    lines = []
    for r in range(rng.randint(max(3, n_idb), 8)):
        head_index = r if r < n_idb else rng.randrange(n_idb)
        head_pred, head_arity = idb[head_index]
        candidates = edb + (idb[:head_index] if r < n_idb else idb)
        pool = [f"V{i}" for i in range(rng.randint(2, 4))]
        body = []
        used: list[str] = []
        for _ in range(rng.randint(1, 3)):
            pred, arity = rng.choice(candidates)
            args = [rng.choice(pool) for _ in range(arity)]
            used.extend(a for a in args if a not in used)
            body.append(f"{pred}({', '.join(args)})")
        head = [rng.choice(used) for _ in range(head_arity)]
        lines.append(f"{head_pred}({', '.join(head)}) :- {', '.join(body)}.")
    query_pred, query_arity = idb[rng.randrange(n_idb)]
    args = ["_" if rng.random() < 0.5 else f"Q{i}" for i in range(query_arity)]
    lines.append(f"?- {query_pred}({', '.join(args)}).")
    return "\n".join(lines)


def compile_mix_shapes(count: int) -> list[tuple[str, str]]:
    """``count`` (name, program text) shapes: the four paper examples
    that are plain programs, then random programs from the fixed
    :data:`SHAPE_STREAM`."""
    shapes = [
        ("example1", str(paper_examples.example1_program())),
        ("example2", str(paper_examples.example2_program())),
        ("example5", str(paper_examples.example5_program())),
        ("example12", str(paper_examples.example12_original())),
    ]
    rng = random.Random(SHAPE_STREAM)
    while len(shapes) < count:
        shapes.append((f"random{len(shapes)}", random_program(rng)))
    return shapes[:count]


_IDENT = re.compile(r"\b([a-z][A-Za-z0-9_]*)\s*\(")


def rename_predicates(source: str, suffix: str) -> str:
    """Append *suffix* to every predicate name, so a reused shape is a
    new program to every cache keyed on program text or names."""
    return _IDENT.sub(lambda m: f"{m.group(1)}_{suffix}(", source)


# ---------------------------------------------------------------------------
# serve-churn: tc over four cold chains plus one hot chain


TC_PROGRAM = """
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
?- tc(X, Y).
"""


def hotcold_edges(n: int) -> tuple[list, int, int]:
    """The tc-hotcold EDB (``bench_incremental.tc_hotcold``): four
    n-edge cold chains and one hot chain a tenth as long.  Returns
    ``(edges, hot_first_node, hot_length)``."""
    cold, hot = 4, max(4, n // 10)
    spacing = n + 2
    edges = [(j * spacing + i, j * spacing + i + 1) for j in range(cold) for i in range(n)]
    start = cold * spacing
    edges += [(start + i, start + i + 1) for i in range(hot)]
    return edges, start, hot


@dataclass(frozen=True)
class Batch:
    """One serve-protocol batch and the selective read that follows."""

    line: str  # protocol text: "+edge(1, 2). edge(2, 3)." or "-..."
    kind: str  # "insert" | "retract"
    rows: tuple
    read_node: int


def serve_script(seed: int, round_no, n: int, state: dict, inserts: int,
                 retracts: int) -> list[Batch]:
    """One round of batches on the hot chain: *inserts* tail extensions
    of 1 to 1%-of-EDB rows, and *retracts* head cuts that remove as many
    rows in total, so the hot chain keeps its length round after round.

    Every round has the same batch sizes and the same number of hot and
    cold reads; the seed picks their order and the nodes read.  *state*
    holds the hot chain's current ``head`` and ``tail`` nodes and the
    ``debt`` of rows a retract could not cut yet (a retract never cuts
    the last hot edge); it is advanced in place."""
    rng = rng_for(seed, "serve", round_no)
    edges, _, _ = hotcold_edges(n)
    one_percent = max(1, len(edges) // 100)
    sizes = [1 + i % one_percent for i in range(inserts)]
    total = sum(sizes)
    insert_sizes = iter(sizes)
    retract_sizes = iter(total // retracts + (i < total % retracts) for i in range(retracts))
    kinds = ["insert"] * inserts + ["retract"] * retracts
    rng.shuffle(kinds)
    hot_reads = [i % 2 == 0 for i in range(len(kinds))]
    rng.shuffle(hot_reads)
    out = []
    for kind, hot_read in zip(kinds, hot_reads):
        if kind == "insert":
            k = next(insert_sizes)
        else:
            want = next(retract_sizes) + state["debt"]
            k = min(want, state["tail"] - state["head"] - 1)
            state["debt"] = want - k
            if k == 0:  # nothing cuttable yet: extend by one row instead
                kind, k = "insert", 1
        if kind == "insert":
            rows = tuple((state["tail"] + i, state["tail"] + i + 1) for i in range(k))
            state["tail"] += k
        else:
            rows = tuple((state["head"] + i, state["head"] + i + 1) for i in range(k))
            state["head"] += k
        sign = "+" if kind == "insert" else "-"
        text = " ".join(f"edge({a}, {b})." for a, b in rows)
        if hot_read:
            read = rng.randrange(state["head"], state["tail"] + 1)
        else:
            read = rng.randrange(4) * (n + 2) + rng.randrange(n)
        out.append(Batch(f"{sign}{text}", kind, rows, read))
    return out
