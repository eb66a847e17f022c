"""Crash recovery for durable sessions: snapshot + WAL-suffix replay.

:func:`recover` rebuilds an :class:`~repro.engine.incremental.IncrementalSession`
from the files a durable session (or its crash) left behind, following
this decision table:

===============================================  ================================
situation                                        outcome
===============================================  ================================
WAL missing / bad magic / corrupt header         ``RecoveryError`` (refuse)
mid-log checksum mismatch                        ``RecoveryError`` (refuse)
batch sequence gap                               ``RecoveryError`` (refuse)
program text drift                               ``RecoveryError`` (refuse)
engine-flag drift, ``on_flag_drift="refuse"``    ``RecoveryError`` (refuse)
engine-flag drift, ``on_flag_drift="scratch"``   from-scratch rung
torn **final** WAL record                        dropped; replay to the last
                                                 complete record
newest snapshot corrupt / truncated              skipped; next-newest anchors
                                                 (longer replay)
no loadable snapshot covers the log              ``RecoveryError`` (refuse)
anchor snapshot dirty (governed partial)         from-scratch rung
options request provenance recording             from-scratch rung (snapshots
                                                 do not persist justifications)
otherwise                                        snapshot + seeded IVM replay
===============================================  ================================

The **replay rung** loads the newest valid snapshot (intern-free — ids
decode through the snapshot's embedded table) and pushes every WAL
record after the snapshot's sequence number through the session's
normal :meth:`insert`/:meth:`retract` path — the exact seeded-unit IVM
machinery whose batch-by-batch equality with from-scratch evaluation
the differential oracle proves, which is what makes log replay
verifiable to the bit.  Replay runs with resource limits and fault
plans stripped (a governed trip or a re-armed fault during recovery
would make the recovered state partial); the user's options are
restored on the returned session afterwards.

The **from-scratch rung** is the durability entry on the engine's
degradation ladder (``recovery->scratch``): when seeded replay cannot
be trusted — flag drift under ``"scratch"`` policy, a dirty anchor, or
a provenance request — the base facts are reconstructed (snapshot base
relations + given-IDB rows, then the WAL suffix's base deltas) and the
program is re-evaluated in full.  Slower, never wrong.  A fresh
baseline snapshot + WAL re-anchor durability afterwards.

Refusal is structured and loud by design: a
:class:`~repro.datalog.errors.RecoveryError` names the offending WAL
record (or snapshot) and a stable reason code.  Recovery never returns
a state it cannot argue equals a from-scratch evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from ..datalog.ast import Program
from ..datalog.database import Database
from ..datalog.errors import RecoveryError
from .durability import (
    DurabilityConfig,
    DurableLog,
    WriteAheadLog,
    comparable_flags,
    flag_signature,
    list_snapshots,
    load_snapshot,
    program_signature,
    read_wal,
)
from .evaluator import EngineOptions
from .incremental import IncrementalSession

__all__ = ["recover", "RecoveryReport"]


@dataclass
class RecoveryReport:
    """What :func:`recover` did, for operators and the oracle."""

    #: ``"replay"`` (snapshot + WAL suffix through the IVM path) or
    #: ``"scratch"`` (full re-evaluation — the degradation rung)
    source: str
    snapshot_seq: int
    snapshot_path: Optional[str]
    base_seq: int
    last_seq: int
    replayed_batches: int
    torn_tail_dropped: bool
    #: ``(path, reason)`` per snapshot that could not anchor recovery
    skipped_snapshots: list = field(default_factory=list)
    recovery_ms: float = 0.0


def _strip_limits(opts: EngineOptions) -> EngineOptions:
    """Replay options: no fault plan (an armed crash point must not
    re-fire during recovery) and no resource limits (a governed trip
    would leave the recovered state partial)."""
    return replace(
        opts,
        fault_plan=None,
        deadline_s=None,
        max_facts=None,
        max_delta_rows=None,
        record_provenance=False,
    )


def _rebuild_edb(program: Program, snapshot, records) -> Database:
    """The from-scratch rung's input: base facts at crash time.

    Base (EDB) relations and the given-IDB row sets are exact in every
    snapshot — even a dirty one, because a batch applies its base
    deltas before any propagation can trip the governor — so the EDB at
    the anchor plus the WAL suffix's base deltas is the EDB the crashed
    session had accepted.
    """
    idb = program.idb_predicates()
    edb = Database()
    for pred in sorted(snapshot.db.predicates()):
        if pred in idb:
            continue
        rel = snapshot.db.relation(pred)
        edb.ensure(pred, rel.arity).bulk_load(rel.rows())
    for pred, rows in snapshot.initial.items():
        if rows:
            arity = len(next(iter(rows)))
            edb.ensure(pred, arity).bulk_load(rows)
    for record in records:
        for pred, rows in record["facts"].items():
            if record["kind"] == "insert":
                arity = len(next(iter(rows))) if rows else 0
                rel = edb.ensure(pred, arity)
                for row in rows:
                    rel.add(row)
            else:
                rel = edb.relation(pred)
                if rel is not None:
                    for row in rows:
                        rel.discard(row)
    return edb


def recover(
    program: Program,
    config: DurabilityConfig,
    options: Optional[EngineOptions] = None,
) -> tuple[IncrementalSession, RecoveryReport]:
    """Rebuild a durable session from its WAL and snapshots.

    Returns ``(session, report)``; the session has durability
    re-attached (appends resume at the next sequence number) and
    carries the recovering *options*.  Raises
    :class:`~repro.datalog.errors.RecoveryError` per the decision
    table in the module docstring.
    """
    t0 = time.perf_counter()
    opts = options or EngineOptions()
    sig = flag_signature(opts)
    psig = program_signature(program)

    data = read_wal(config.wal_path)
    if data.header.get("program") != psig:
        raise RecoveryError(
            "program-drift",
            f"WAL {config.wal_path} was written for program "
            f"{data.header.get('program')!r}, recovering program is {psig!r}",
        )
    stored_flags = comparable_flags(data.header.get("flags"))
    drift = stored_flags != sig
    if drift and config.on_flag_drift == "refuse":
        raise RecoveryError(
            "flag-drift",
            f"WAL {config.wal_path} was written under engine flags "
            f"{data.header.get('flags')!r}, recovering under {sig!r}; "
            f"set on_flag_drift='scratch' to re-evaluate instead",
        )

    # newest loadable snapshot whose replay suffix the WAL still covers
    skipped: list = []
    anchor = None
    for path in list_snapshots(config):
        try:
            candidate = load_snapshot(path)
        except RecoveryError as exc:
            skipped.append((str(path), exc.reason))
            continue
        if candidate.program != data.header.get("program"):
            skipped.append((str(path), "program-drift"))
            continue
        if comparable_flags(candidate.flags) != stored_flags:
            skipped.append((str(path), "flag-drift"))
            continue
        if candidate.seq < data.base_seq:
            # compaction already folded records this old away
            skipped.append((str(path), "pre-compaction"))
            continue
        if candidate.seq > data.last_seq:
            # a snapshot "from the future" relative to the log: the WAL
            # lost records after they were snapshotted — refuse rather
            # than silently serve the shorter history
            raise RecoveryError(
                "sequence-gap",
                f"snapshot {path} is at seq {candidate.seq} but the WAL "
                f"ends at {data.last_seq}",
                record=candidate.seq,
            )
        anchor = candidate
        break
    if anchor is None:
        raise RecoveryError(
            "no-valid-snapshot",
            f"no loadable snapshot next to {config.wal_path} covers the "
            f"log (skipped: {skipped or 'none found'})",
        )

    suffix = [r for r in data.records if r["seq"] > anchor.seq]
    replay_opts = _strip_limits(opts)
    scratch_reason = None
    if drift:
        scratch_reason = "flag drift under on_flag_drift='scratch'"
    elif anchor.dirty:
        scratch_reason = "anchor snapshot is a governed partial state"
    elif opts.record_provenance:
        scratch_reason = "snapshots do not persist provenance"

    if scratch_reason is None:
        session = IncrementalSession._restore(
            program, anchor.db, anchor.initial, replay_opts
        )
        for record in suffix:
            if record["kind"] == "insert":
                session.insert(record["facts"])
            else:
                session.retract(record["facts"])
            session.stats.wal_replays += 1
        session.options = opts
        wal = WriteAheadLog.open_append(
            config.wal_path,
            config.fsync,
            data.header,
            data.last_seq + 1,
            truncate_at=data.torn_offset,
        )
        session._durable = DurableLog.attach(
            config, wal, batches_since_snapshot=len(suffix)
        )
        report = RecoveryReport(
            source="replay",
            snapshot_seq=anchor.seq,
            snapshot_path=anchor.path,
            base_seq=data.base_seq,
            last_seq=data.last_seq,
            replayed_batches=len(suffix),
            torn_tail_dropped=data.torn_offset is not None,
            skipped_snapshots=skipped,
        )
    else:
        edb = _rebuild_edb(program, anchor, suffix)
        # full re-evaluation honours the provenance request (it was the
        # reason for this rung); only faults and limits stay stripped
        scratch_opts = replace(
            _strip_limits(opts), record_provenance=opts.record_provenance
        )
        session = IncrementalSession(program, edb, scratch_opts)
        session.options = opts
        session.stats.degradations["recovery->scratch"] = (
            session.stats.degradations.get("recovery->scratch", 0) + 1
        )
        # re-anchor: the old log's flags/history no longer describe
        # this state, so durability restarts from a fresh baseline
        session._durable = DurableLog.create(config, session)
        report = RecoveryReport(
            source="scratch",
            snapshot_seq=anchor.seq,
            snapshot_path=anchor.path,
            base_seq=data.base_seq,
            last_seq=data.last_seq,
            replayed_batches=len(suffix),
            torn_tail_dropped=data.torn_offset is not None,
            skipped_snapshots=skipped,
        )

    elapsed = (time.perf_counter() - t0) * 1000.0
    session.stats.recovery_ms = elapsed
    report.recovery_ms = elapsed
    return session, report
