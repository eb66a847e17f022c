"""The three workloads: set-up, reference answers, and the timed loop.

Each workload is one client in a closed loop: the next operation starts
when the previous one has returned.  Operations come in *rounds* with
the same mix every round, and a run ends on a round boundary once its
time is spent, so every run measures the same mix whatever the seed or
the speed of the code.

The program under test is reached only through module attributes
(``P.parse``, ``pipeline.optimize``, ...) so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import repro.analysis as analysis
import repro.datalog.parser as P
import repro.engine.recovery as recovery
from repro.core import pipeline
from repro.datalog import Database, Variable
from repro.datalog.columnar import global_dictionary
from repro.engine import (
    DurabilityConfig,
    EngineOptions,
    IncrementalSession,
    clear_prepared_cache,
    evaluate,
    kernel_cache_stats,
    prepared_cache_stats,
)
from repro.engine.batch_kernel import clear_batch_kernel_cache
from repro.engine.kernel import clear_kernel_cache
from repro.workloads.edb import random_edb

import gen
from calibrate import calibration_ms, scale

#: the reference path: the original program on the naive-strategy plan
#: interpreter, which the timed jobs (semi-naive, compiled, columnar)
#: never take
REFERENCE_OPTIONS = EngineOptions(strategy="naive", use_kernels=False, use_columnar=False)
#: wall time between two host-speed calibrations in the closed loop
CALIBRATE_EVERY_S = 0.5


class CacheCounters:
    """Prepared-program and kernel cache counters that survive
    :func:`clear_caches` (which resets the program's own counters)."""

    def __init__(self):
        self.cleared = Counter()

    def totals(self) -> Counter:
        prepared, kernel = prepared_cache_stats(), kernel_cache_stats()
        now = Counter(prepared_hits=prepared["hits"], prepared_misses=prepared["misses"],
                      kernel_hits=kernel["hits"], kernel_compiles=kernel["compiles"])
        return self.cleared + now


CACHE_COUNTERS = CacheCounters()


def clear_caches() -> None:
    """Start from a cold process state: no prepared programs, no
    compiled kernels, an empty constant dictionary."""
    CACHE_COUNTERS.cleared = CACHE_COUNTERS.totals()
    clear_prepared_cache()
    clear_kernel_cache()
    clear_batch_kernel_cache()
    global_dictionary().clear()


# ---------------------------------------------------------------------------
# the `repro run -O` job and its independent reference


def run_job(name: str, source: str, db: Database) -> frozenset:
    """parse -> lint -> optimize -> answers, as ``repro run -O`` does
    (``_warn_diagnostics`` renders errors and warnings; here the text is
    built and dropped instead of printed)."""
    program, _ = P.split_facts(P.parse(source))
    report = analysis.lint_program(program, edb=db.predicates(), source=name)
    for diag in (*report.errors, *report.warnings):
        diag.render(name)
    return pipeline.optimize(program).answers(db)


def reference_answers(source: str, db: Database) -> frozenset:
    """The original program's answers on the reference path, projected
    onto the query's named variables (anonymous ``_`` positions are
    existential and constants are selections), in first-occurrence
    order — what an optimized ``run -O`` job must return."""
    program, _ = P.split_facts(P.parse(source))
    result = evaluate(program, db, REFERENCE_OPTIONS)
    args = program.query.args
    first: dict[str, int] = {}
    for pos, arg in enumerate(args):
        if isinstance(arg, Variable):
            first.setdefault(arg.name, pos)
    keep = [pos for name, pos in first.items() if not name.startswith("_")]

    def selected(row) -> bool:
        return all(
            row[pos] == row[first[arg.name]] if isinstance(arg, Variable)
            else row[pos] == arg.value
            for pos, arg in enumerate(args)
        )

    out = {tuple(row[pos] for pos in keep)
           for row in result.db.rows(program.query.predicate) if selected(row)}
    return frozenset(out)


# ---------------------------------------------------------------------------
# the shared closed loop


@dataclass
class Op:
    """One timed operation and the check of its output."""

    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Outcome:
    #: wall time of each completed operation
    latencies_ms: list = field(default_factory=list)
    #: (number of latencies recorded so far, calibration ms) pairs
    calibrations: list = field(default_factory=list)
    attempted: int = 0
    wrong: int = 0
    errors: int = 0
    op_ns: int = 0
    #: operations of the timed rounds, before the workload's closing ones
    loop_ops: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.wrong + self.errors

    def calibrate(self) -> None:
        self.calibrations.append((len(self.latencies_ms), calibration_ms()))

    def reference_ms(self) -> list:
        """The latencies in reference-speed ms, each scaled by the
        calibrations taken just before and just after it."""
        out: list = []
        for (start, before), (end, after) in zip(self.calibrations, self.calibrations[1:]):
            factor = scale(before, after)
            out.extend(ms * factor for ms in self.latencies_ms[start:end])
        return out


def closed_loop(rounds: Iterator[list], seconds: float, max_ops: Optional[int],
                tracer=None, outcome: Optional[Outcome] = None) -> Outcome:
    """Run rounds until *seconds* of loop time have passed (finishing the
    round in flight) or *max_ops* operations were attempted.

    A wrong answer, an exception or a ``ResourceExhausted`` counts as a
    failed operation and the loop goes on.  A failed operation's time
    counts like any other's."""
    out = outcome or Outcome()
    gc.collect()
    out.calibrate()
    start = calibrated = time.perf_counter()
    while max_ops is None or out.attempted < max_ops:
        for op in next(rounds):
            if max_ops is not None and out.attempted >= max_ops:
                break
            if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                out.calibrate()
                calibrated = time.perf_counter()
            out.attempted += 1
            if tracer is not None:
                tracer.active = True
            raised = False
            t0 = time.perf_counter_ns()
            try:
                result = op.run()
            except Exception:  # noqa: BLE001 - a failed op must not stop the run
                raised = True
                out.errors += 1
                if out.errors <= 3:
                    traceback.print_exc(file=sys.stderr)
            finally:
                elapsed = time.perf_counter_ns() - t0
                if tracer is not None:
                    tracer.active = False
            out.op_ns += elapsed
            out.latencies_ms.append(elapsed / 1e6)
            if not raised and not op.check(result):
                out.wrong += 1
        if max_ops is None and time.perf_counter() - start >= seconds:
            break
    out.calibrate()
    return out


def measure(workload, state, seconds: float, max_ops: Optional[int], tracer=None) -> Outcome:
    """The timed loop plus the workload's closing operations; closes
    *state* afterwards."""
    try:
        outcome = closed_loop(workload.rounds(state), seconds, max_ops, tracer)
        outcome.loop_ops = outcome.attempted
        workload.finish(state, outcome, tracer)
    finally:
        if hasattr(state, "close"):
            state.close()
    return outcome


def timed_setups(setup: Callable[[], object], repeats: int) -> tuple[object, list]:
    """Run *setup* *repeats* times from scratch; return the last state
    and every duration in reference-speed seconds."""
    durations = []
    state = None
    for _ in range(repeats):
        if state is not None and hasattr(state, "close"):
            state.close()
        state = None
        gc.collect()
        before = calibration_ms()
        t0 = time.perf_counter()
        state = setup()
        elapsed = time.perf_counter() - t0
        durations.append(elapsed * scale(before, calibration_ms()))
    return state, durations


# ---------------------------------------------------------------------------
# query-mix


class QueryMix:
    """A seeded stream of ``run -O`` jobs over a fixed catalogue."""

    name = "query-mix"

    def __init__(self, seed: int, config: dict):
        self.seed = seed
        self.catalogue = gen.query_mix_catalogue()
        self.rows = gen.query_mix_edbs(seed)
        #: job name -> answers, from :meth:`compute_reference`
        self.reference: dict = {}

    def compute_reference(self) -> dict:
        dbs = self._load()
        return {job.name: reference_answers(job.source, dbs[job.edb])
                for job in self.catalogue}

    def _load(self) -> dict[str, Database]:
        return {name: Database.from_dict(rows) for name, rows in self.rows.items()}

    def setup(self) -> dict[str, Database]:
        """EDB load plus one warm-up pass over the catalogue, which fills
        the prepared-program and kernel caches and the EDB's indexes."""
        clear_caches()
        dbs = self._load()
        for job in self.catalogue:
            run_job(job.name, job.source, dbs[job.edb])
        return dbs

    def rounds(self, dbs) -> Iterator[list]:
        round_no = 0
        while True:
            order = gen.round_order(self.seed, round_no, len(self.catalogue))
            yield [self._op(self.catalogue[i], dbs) for i in order]
            round_no += 1

    def _op(self, job, dbs) -> Op:
        expected = self.reference[job.name]
        return Op(lambda: run_job(job.name, job.source, dbs[job.edb]),
                  lambda got: got == expected)

    def finish(self, state, outcome: Outcome, tracer=None) -> None:
        pass


# ---------------------------------------------------------------------------
# compile-mix


class CompileMix:
    """Distinct random programs over ~12-row EDBs: the optimizer, the
    planner and codegen do the work, the evaluator almost none."""

    name = "compile-mix"

    def __init__(self, seed: int, config: dict):
        self.seed = seed
        self.shapes = gen.compile_mix_shapes(config["shapes_per_round"])
        self.rows = []
        for i, (_, source) in enumerate(self.shapes):
            program, _ = P.split_facts(P.parse(source))
            db = random_edb(program, rows=config["edb_rows"], domain=config["edb_domain"],
                            seed=gen.rng_for(seed, "compile-edb", i).randrange(1 << 30))
            self.rows.append({p: sorted(db.rows(p)) for p in db.predicates()})
        #: answers per shape, from :meth:`compute_reference`
        self.reference: list = []

    def compute_reference(self) -> list:
        # renaming predicates never changes answers, so one reference per
        # shape serves every round
        return [reference_answers(source, Database.from_dict(rows))
                for (_, source), rows in zip(self.shapes, self.rows)]

    def _round_inputs(self, round_no: int) -> list:
        suffix = f"s{self.seed}r{round_no}"
        return [
            (f"{name}_{suffix}", gen.rename_predicates(source, suffix),
             Database.from_dict({f"{p}_{suffix}": r for p, r in rows.items()}))
            for (name, source), rows in zip(self.shapes, self.rows)
        ]

    def setup(self) -> list:
        """EDB load for the first round plus three warm-up jobs (paper
        examples under their own names, so no timed job hits a cache
        they filled)."""
        clear_caches()
        inputs = self._round_inputs(0)
        for (name, source), rows in list(zip(self.shapes, self.rows))[:3]:
            run_job(f"{name}_warm", gen.rename_predicates(source, "warm"),
                    Database.from_dict({f"{p}_warm": r for p, r in rows.items()}))
        return inputs

    def rounds(self, inputs) -> Iterator[list]:
        """Each round starts from empty program caches, as a fresh
        ``repro run`` process would: no round can hit what an earlier
        one compiled (every name differs), so this only keeps memory
        from growing with the number of rounds."""
        round_no = 0
        while True:
            if round_no:
                inputs = self._round_inputs(round_no)  # untimed input load
            clear_caches()
            order = gen.round_order(self.seed, round_no, len(self.shapes))
            yield [self._op(inputs[i], self.reference[i]) for i in order]
            round_no += 1

    @staticmethod
    def _op(job, expected) -> Op:
        name, source, db = job
        return Op(lambda: run_job(name, source, db), lambda got: got == expected)

    def finish(self, state, outcome: Outcome, tracer=None) -> None:
        pass


# ---------------------------------------------------------------------------
# serve-churn


class ServeSession:
    """A durable session in its own WAL directory."""

    def __init__(self, session: IncrementalSession, directory: str, config: DurabilityConfig):
        self.session = session
        self.directory = directory
        self.config = config
        #: the hot chain's ``head`` and ``tail`` nodes and retract ``debt``
        self.hot = {}

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
        shutil.rmtree(self.directory, ignore_errors=True)


class ServeChurn:
    """One durable ``IncrementalSession`` over tc-hotcold, driven by
    protocol-text insert/retract batches, each followed by a selective
    read; the run ends with close -> recover."""

    name = "serve-churn"

    def __init__(self, seed: int, config: dict, workdir: str):
        self.seed = seed
        self.config = config
        self.workdir = workdir
        self.n = config["chain_length"]
        self.edges, self.hot_start, self.hot_length = gen.hotcold_edges(self.n)
        self.program = P.split_facts(P.parse(gen.TC_PROGRAM))[0]
        #: the benchmark's own edge set: every read is checked against a
        #: graph search over it
        self.succ: dict[int, set] = {}
        #: the batch's own steps, timed around the calls
        self.sub_ms: dict[str, list] = {"insert": [], "retract": [], "read": []}
        #: the initial edge set as successor sets, from :meth:`compute_reference`
        self.reference: dict[int, set] = {}

    def compute_reference(self) -> dict:
        succ: dict[int, set] = {}
        for a, b in self.edges:
            succ.setdefault(a, set()).add(b)
        return succ

    def reachable(self, node: int) -> frozenset:
        seen: set = set()
        stack = [node]
        while stack:
            for nxt in self.succ.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset((y,) for y in seen)

    def setup(self) -> ServeSession:
        """EDB load, session materialization (which writes the baseline
        snapshot) and one warm-up read."""
        clear_caches()
        directory = tempfile.mkdtemp(prefix="serve-", dir=self.workdir)
        config = DurabilityConfig(
            wal_path=os.path.join(directory, "session.wal"),
            fsync=self.config["fsync"],
            snapshot_every=self.config["snapshot_every"],
        )
        db = Database.from_dict({"edge": self.edges})
        session = IncrementalSession(self.program, db, EngineOptions(), durable=config)
        session.query(P.parse(f"?- tc({self.hot_start}, Y).").query)
        serve = ServeSession(session, directory, config)
        serve.hot = {"head": self.hot_start, "tail": self.hot_start + self.hot_length, "debt": 0}
        return serve

    def _script(self, serve: ServeSession, round_no) -> list:
        return gen.serve_script(self.seed, round_no, self.n, serve.hot,
                                self.config["inserts_per_round"],
                                self.config["retracts_per_round"])

    def rounds(self, serve: ServeSession) -> Iterator[list]:
        # the model restarts with the session: the initial edge set
        self.succ = {a: set(bs) for a, bs in self.reference.items()}
        self.sub_ms = {"insert": [], "retract": [], "read": []}
        round_no = 0
        while True:
            yield [self._op(serve, b) for b in self._script(serve, round_no)]
            round_no += 1

    def _op(self, serve: ServeSession, batch) -> Op:
        def run():
            session = serve.session
            batch_program, facts = P.split_facts(P.parse(batch.line[1:]))
            if batch_program.rules or batch_program.query is not None:
                raise ValueError("update batches must contain only ground facts")
            unknown = {f.predicate for f in facts} - session.known_predicates()
            if unknown:
                raise ValueError(f"undefined predicates {sorted(unknown)}")
            query = P.parse(f"?- tc({batch.read_node}, Y).").query
            t0 = time.perf_counter_ns()
            if batch.kind == "insert":
                session.insert(facts)
            else:
                session.retract(facts)
            t1 = time.perf_counter_ns()
            answers = session.query(query)
            t2 = time.perf_counter_ns()
            self.sub_ms[batch.kind].append((t1 - t0) / 1e6)
            self.sub_ms["read"].append((t2 - t1) / 1e6)
            return answers

        def check(got) -> bool:
            for a, b in batch.rows:
                if batch.kind == "insert":
                    self.succ.setdefault(a, set()).add(b)
                else:
                    self.succ.get(a, set()).discard(b)
            return got == self.reachable(batch.read_node)

        return Op(run, check)

    def finish(self, serve: ServeSession, outcome: Outcome, tracer=None) -> None:
        """A fixed tail of batches (so recovery always replays the same
        number), then close -> recover, timed, and a check that the
        recovered state equals the live one."""
        tail = self._script(serve, "tail")[: self.config["tail_batches"]]
        closed_loop(iter([[self._op(serve, b) for b in tail]]), 0, None, tracer,
                    outcome=outcome)
        outcome.extra["sub_ms"] = self.sub_ms
        live = serve.session.facts("tc")
        serve.session.close()
        serve.session = None
        gc.collect()  # the closed session's memory, before the peak-RSS-relevant reload
        before = calibration_ms()
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter_ns()
        try:
            recovered, report = recovery.recover(self.program, serve.config, EngineOptions())
        except Exception:  # noqa: BLE001 - counted as a failed operation
            traceback.print_exc(file=sys.stderr)
            outcome.attempted += 1
            outcome.errors += 1
            return
        finally:
            if tracer is not None:
                tracer.active = False
        outcome.extra["recover_ns"] = time.perf_counter_ns() - t0
        outcome.extra["recover_ms"] = (outcome.extra["recover_ns"] / 1e6
                                       * scale(before, calibration_ms()))
        outcome.extra["replayed_batches"] = report.replayed_batches
        serve.session = recovered
        outcome.attempted += 1
        if recovered.facts("tc") != live:
            outcome.wrong += 1


def percentile(values: list, q: int) -> float:
    """The q-th percentile (``statistics.quantiles`` with n=100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]
