"""Unit tests for the durable session runtime: WAL, snapshots, recovery.

The recovery *oracle* (``tests/oracle/test_recovery.py``) proves
end-to-end bit-identity across crash points; this suite pins the
mechanism — frame layout, fsync policies, torn-tail tolerance vs
mid-file refusal, compaction retention, the degradation rungs,
type-exact snapshot round-trips, and logs written under the older flag
signature.
"""

import json
import os
import struct
import zlib

import pytest

from repro.datalog import (
    Database,
    DurabilityError,
    RecoveryError,
    parse,
)
from repro.engine import (
    DurabilityConfig,
    EngineOptions,
    FaultPlan,
    IncrementalSession,
    WalCrash,
    WriteAheadLog,
    clear_prepared_cache,
    evaluate,
    flag_signature,
    list_snapshots,
    load_snapshot,
    parse_fault_specs,
    read_wal,
    recover,
)
from repro.engine.durability import _FRAME, program_signature, write_snapshot
from repro.engine.statistics import EvalStats

TC = """
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(1, Y).
"""


@pytest.fixture
def program():
    return parse(TC)


@pytest.fixture
def edb():
    return Database.from_dict({"edge": [(1, 2), (2, 3)]})


def _typed(rows) -> set:
    """Rows with every value tagged by its exact type."""
    return {tuple((type(v), v) for v in row) for row in rows}


def _config(tmp_path, **kw):
    kw.setdefault("snapshot_every", 2)
    return DurabilityConfig(wal_path=str(tmp_path / "s.wal"), **kw)


class TestConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(DurabilityError):
            DurabilityConfig(wal_path="x", fsync="sometimes")
        with pytest.raises(DurabilityError):
            DurabilityConfig(wal_path="x", snapshot_every=-1)
        with pytest.raises(DurabilityError):
            DurabilityConfig(wal_path="x", keep_snapshots=0)
        with pytest.raises(DurabilityError):
            DurabilityConfig(wal_path="x", on_flag_drift="pray")

    @pytest.mark.parametrize("fsync", ["always", "batch", "off"])
    def test_fsync_policies_all_append(self, tmp_path, fsync):
        wal = WriteAheadLog.create(
            str(tmp_path / "w"), fsync, "f", "p", 0
        )
        wal.append("insert", {"edge": [(1, 2)]})
        wal.append("retract", {"edge": [(1, 2)]})
        wal.close()
        data = read_wal(str(tmp_path / "w"))
        assert [r["seq"] for r in data.records] == [1, 2]
        assert data.records[0]["facts"] == {"edge": [(1, 2)]}
        assert data.records[1]["kind"] == "retract"
        assert data.torn_offset is None


class TestWalValidation:
    def _write(self, tmp_path, n=3):
        path = str(tmp_path / "w")
        wal = WriteAheadLog.create(path, "batch", "flags", "prog", 0)
        for i in range(n):
            wal.append("insert", {"edge": [(i, i + 1)]})
        wal.close()
        return path

    def test_torn_final_record_tolerated(self, tmp_path):
        path = self._write(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 7)
        data = read_wal(path)
        assert [r["seq"] for r in data.records] == [1, 2]
        assert data.torn_offset is not None

    def test_corrupt_final_payload_is_a_tear(self, tmp_path):
        path = self._write(tmp_path)
        with open(path, "r+b") as f:
            f.seek(-3, os.SEEK_END)
            f.write(b"\xff")
        data = read_wal(path)
        assert [r["seq"] for r in data.records] == [1, 2]
        assert data.torn_offset is not None

    def test_midfile_corruption_refused(self, tmp_path):
        path = self._write(tmp_path)
        data = read_wal(path)
        # flip one byte inside the FIRST record's payload
        with open(path, "rb") as f:
            buf = f.read()
        first = buf.index(b'"seq": 1')
        buf = buf[:first] + b'"seq": 9' + buf[first + 8:]
        with open(path, "wb") as f:
            f.write(buf)
        with pytest.raises(RecoveryError) as exc:
            read_wal(path)
        assert exc.value.reason in ("checksum-mismatch", "sequence-gap")
        assert data.records  # pre-corruption read was fine

    def test_sequence_gap_refused(self, tmp_path):
        path = self._write(tmp_path, n=1)
        skipping = json.dumps(
            {"seq": 5, "kind": "insert", "flags": "flags", "facts": {}},
            sort_keys=True,
        ).encode()
        with open(path, "ab") as f:
            f.write(_FRAME.pack(len(skipping), zlib.crc32(skipping)) + skipping)
            # one more valid-looking record after it, so the gap is
            # mid-file, not a tolerable tail
            f.write(_FRAME.pack(len(skipping), zlib.crc32(skipping)) + skipping)
        with pytest.raises(RecoveryError) as exc:
            read_wal(path)
        assert exc.value.reason == "sequence-gap"
        assert exc.value.record == 5

    def test_record_flag_drift_refused(self, tmp_path):
        path = self._write(tmp_path, n=1)
        drifted = json.dumps(
            {"seq": 2, "kind": "insert", "flags": "OTHER", "facts": {}},
            sort_keys=True,
        ).encode()
        filler = json.dumps(
            {"seq": 3, "kind": "insert", "flags": "flags", "facts": {}},
            sort_keys=True,
        ).encode()
        with open(path, "ab") as f:
            f.write(_FRAME.pack(len(drifted), zlib.crc32(drifted)) + drifted)
            f.write(_FRAME.pack(len(filler), zlib.crc32(filler)) + filler)
        with pytest.raises(RecoveryError) as exc:
            read_wal(path)
        assert exc.value.reason == "flag-drift"

    def test_bad_magic_refused(self, tmp_path):
        path = tmp_path / "not-a-wal"
        path.write_bytes(b"hello world, definitely not a WAL file")
        with pytest.raises(RecoveryError) as exc:
            read_wal(str(path))
        assert exc.value.reason == "bad-header"

    def test_missing_wal_refused(self, tmp_path):
        with pytest.raises(RecoveryError) as exc:
            read_wal(str(tmp_path / "nope"))
        assert exc.value.reason == "missing-wal"


class TestDurableSession:
    def test_counters_and_files(self, tmp_path, program, edb):
        cfg = _config(tmp_path, snapshot_every=2)
        s = IncrementalSession(program, edb, durable=cfg)
        assert s.durable
        assert s.stats.snapshots_written == 1  # the baseline
        s.insert({"edge": [(3, 4)]})
        s.retract({"edge": [(2, 3)]})
        assert s.stats.wal_appends == 2
        assert s.stats.snapshots_written == 2  # policy fired at seq 2
        s.close()
        assert not s.durable
        data = read_wal(cfg.wal_path)
        assert data.header["flags"] == flag_signature(s.options)
        assert data.header["program"] == program_signature(program)

    def test_unloggable_value_rejected_atomically(self, tmp_path, program, edb):
        cfg = _config(tmp_path)
        s = IncrementalSession(program, edb, durable=cfg)
        before_rows = s.facts("edge")
        before_bytes = os.path.getsize(cfg.wal_path)
        with pytest.raises(DurabilityError):
            s.insert({"edge": [((1, 2), 3)]})  # tuple value: not a scalar
        # neither the log nor the state moved
        assert os.path.getsize(cfg.wal_path) == before_bytes
        assert s.facts("edge") == before_rows
        assert s.stats.wal_appends == 0
        # and the session still works
        s.insert({"edge": [(3, 4)]})
        assert (1, 4) in s.facts("tc")
        s.close()

    def test_checkpoint_compacts(self, tmp_path, program, edb):
        cfg = _config(tmp_path, snapshot_every=0, keep_snapshots=2)
        s = IncrementalSession(program, edb, durable=cfg)
        for i in range(5):
            s.insert({"edge": [(10 + i, 11 + i)]})
        assert s.checkpoint() == 5
        assert s.checkpoint() == 5  # idempotent at the same seq
        snaps = list_snapshots(cfg)
        assert len(snaps) <= 2
        data = read_wal(cfg.wal_path)
        # records up to the oldest retained snapshot were truncated
        oldest = int(snaps[-1].name.rsplit("-", 1)[1])
        assert data.base_seq == oldest
        r, report = recover(program, cfg)
        assert r.facts("tc") == s.facts("tc")
        r.close(), s.close()

    def test_wal_size_policy_triggers_snapshot(self, tmp_path, program, edb):
        cfg = _config(tmp_path, snapshot_every=0, max_wal_bytes=1)
        s = IncrementalSession(program, edb, durable=cfg)
        s.insert({"edge": [(3, 4)]})
        assert s.stats.snapshots_written == 2
        s.close()

    def test_non_durable_checkpoint_refused(self, program, edb):
        s = IncrementalSession(program, edb)
        with pytest.raises(DurabilityError):
            s.checkpoint()
        s.close()  # no-op

    def test_snapshot_deferred_when_governor_trips(
        self, tmp_path, program, edb
    ):
        cfg = _config(tmp_path, snapshot_every=1)
        s = IncrementalSession(program, edb, durable=cfg)

        class TrippingGuard:
            def checkpoint(self, stats):
                from repro.engine.governor import BudgetExceeded

                raise BudgetExceeded("deadline")

        class TrippingGovernor:
            def guard(self, unit=None, ordinal=None):
                return TrippingGuard()

        stats = EvalStats()
        before = list_snapshots(cfg)
        s._durable._batches_since_snapshot = 1
        assert s._durable.maybe_snapshot(s, stats, TrippingGovernor()) is False
        assert stats.degradations.get("snapshot->deferred") == 1
        assert list_snapshots(cfg) == before  # old snapshot untouched
        assert not list(tmp_path.glob("*.tmp"))  # temp cleaned up
        # the deferral retries on the next applied batch
        s.insert({"edge": [(3, 4)]})
        assert len(list_snapshots(cfg)) >= 1
        assert s.stats.snapshots_written >= 2
        s.close()


class TestSnapshots:
    def test_snapshot_survives_epoch_clear_and_prepared_cache(
        self, tmp_path, program, edb
    ):
        """A snapshot decodes through its own embedded value table, so
        it loads bit-identically in a process state that shares nothing
        with the writer's: here the prepared-program cache is dropped
        between write and load."""
        cfg = _config(tmp_path, snapshot_every=0)
        s = IncrementalSession(program, edb, durable=cfg)
        s.insert({"edge": [("a", "b"), (3, "a")]})
        s.checkpoint()
        want_tc = s.facts("tc")
        want_edge = s.facts("edge")
        s.close()

        clear_prepared_cache()

        snap = load_snapshot(list_snapshots(cfg)[0])
        assert snap.db.rows("tc") == want_tc
        assert snap.db.rows("edge") == want_edge

        r, report = recover(program, cfg)
        assert report.source == "replay"
        assert r.facts("tc") == want_tc
        # and the recovered session keeps maintaining correctly
        r.insert({"edge": [("b", "c")]})
        assert ("a", "c") in r.facts("tc")
        r.close()

    def test_round_trip_is_type_exact(self, tmp_path):
        """``1 == True == 1.0`` in Python, but they are distinct
        constants: a snapshot must not fold them into one value."""
        program = parse(
            "tc(X, Y) :- edge(X, Y).\n"
            "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
            "?- tc(X, Y).\n"
        )
        edb = Database.from_dict({"edge": [(1, 2), (True, 3), (3, 4)]})
        cfg = _config(tmp_path, snapshot_every=0)
        s = IncrementalSession(program, edb, durable=cfg)
        s.insert({"edge": [(1.0, 5), (5, False)]})
        s.checkpoint()
        live = _typed(s.query())
        s.close()
        assert ((bool, True), (int, 4)) in live
        assert ((float, 1.0), (bool, False)) in live

        r, report = recover(program, cfg)
        assert report.source == "replay"
        assert _typed(r.query()) == live
        r.close()

    def test_truncated_snapshot_detected(self, tmp_path, program, edb):
        cfg = _config(tmp_path, snapshot_every=0)
        s = IncrementalSession(program, edb, durable=cfg)
        path = list_snapshots(cfg)[0]
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 9)
        with pytest.raises(RecoveryError) as exc:
            load_snapshot(path)
        assert exc.value.reason == "snapshot-corrupt"
        # recovery refuses too: no other snapshot exists
        with pytest.raises(RecoveryError) as exc:
            recover(program, cfg)
        assert exc.value.reason == "no-valid-snapshot"
        s.close()

    def test_corrupt_newest_falls_back_to_older(self, tmp_path, program, edb):
        cfg = _config(tmp_path, snapshot_every=0, keep_snapshots=2)
        s = IncrementalSession(program, edb, durable=cfg)
        s.insert({"edge": [(3, 4)]})
        s.checkpoint()
        s.insert({"edge": [(4, 5)]})
        want = s.facts("tc")
        s.close()
        newest = list_snapshots(cfg)[0]
        with open(newest, "r+b") as f:
            f.truncate(os.path.getsize(newest) - 11)
        r, report = recover(program, cfg)
        assert report.snapshot_seq == 0  # anchored on the baseline
        assert report.skipped_snapshots
        assert r.facts("tc") == want
        r.close()


class TestRecoveryRungs:
    def test_flag_drift_refuse_then_scratch(self, tmp_path, program, edb):
        cfg = _config(tmp_path)
        s = IncrementalSession(program, edb, durable=cfg)
        s.insert({"edge": [(3, 4)]})
        want = s.facts("tc")
        s.close()
        drifted = EngineOptions(use_scc=False)
        with pytest.raises(RecoveryError) as exc:
            recover(program, cfg, drifted)
        assert exc.value.reason == "flag-drift"
        scratch_cfg = DurabilityConfig(
            wal_path=cfg.wal_path, on_flag_drift="scratch"
        )
        r, report = recover(program, scratch_cfg, drifted)
        assert report.source == "scratch"
        assert r.stats.degradations.get("recovery->scratch") == 1
        assert r.facts("tc") == want
        # re-anchored: a fresh recovery under the new flags replays
        r.close()
        r2, rep2 = recover(program, scratch_cfg, drifted)
        assert rep2.source == "replay"
        assert r2.facts("tc") == want
        r2.close()

    @staticmethod
    def _rewrite_flags(cfg, flags):
        """Rewrite the WAL and every snapshot under *flags*, keeping
        their contents."""
        for path in list_snapshots(cfg):
            snap = load_snapshot(path)
            write_snapshot(
                cfg, snap.seq, snap.db, snap.initial, flags, snap.program,
                snap.dirty,
            )
        data = read_wal(cfg.wal_path)
        wal = WriteAheadLog.create(
            cfg.wal_path, "off", flags, data.header["program"], data.base_seq
        )
        for record in data.records:
            wal.append(record["kind"], record["facts"])
        wal.close()

    def test_old_signature_with_use_columnar_recovers(
        self, tmp_path, program, edb
    ):
        """Logs and snapshots written while ``use_columnar`` was an
        engine flag carry it in their signature; that clause alone is
        not drift."""
        cfg = _config(tmp_path, snapshot_every=0)
        s = IncrementalSession(program, edb, durable=cfg)
        s.insert({"edge": [(3, 4)]})
        want = s.facts("tc")
        s.close()
        current = flag_signature(EngineOptions())
        old = current.replace(
            "use_kernels=True;", "use_kernels=True;use_columnar=True;"
        )
        assert old != current
        self._rewrite_flags(cfg, old)
        assert read_wal(cfg.wal_path).header["flags"] == old

        r, report = recover(program, cfg)
        assert report.source == "replay"
        assert report.replayed_batches == 1
        assert r.facts("tc") == want
        r.insert({"edge": [(4, 5)]})
        assert (1, 5) in r.facts("tc")
        r.close()

        # a real drift under the old signature is still refused
        with pytest.raises(RecoveryError) as exc:
            recover(program, cfg, EngineOptions(use_kernels=False))
        assert exc.value.reason == "flag-drift"

    def test_program_drift_always_refused(self, tmp_path, program, edb):
        cfg = _config(tmp_path, on_flag_drift="scratch")
        s = IncrementalSession(program, edb, durable=cfg)
        s.close()
        other = parse("p(X) :- edge(X, Y).\n?- p(X).")
        with pytest.raises(RecoveryError) as exc:
            recover(other, cfg)
        assert exc.value.reason == "program-drift"

    def test_dirty_snapshot_takes_scratch_rung(self, tmp_path, program):
        """A governed-partial state is never replay-anchored: the
        baseline snapshot of a partial materialization is marked dirty
        and recovery re-evaluates from the exact base facts."""
        edb = Database.from_dict(
            {"edge": [(i, i + 1) for i in range(8)]}
        )
        cfg = _config(tmp_path, snapshot_every=0)
        opts = EngineOptions(max_facts=3, on_limit="partial")
        s = IncrementalSession(program, edb, opts, durable=cfg)
        assert s.is_partial
        s.close()
        r, report = recover(program, cfg, EngineOptions())
        assert report.source == "scratch"
        # scratch recovery restores full exactness, not the partial state
        want = evaluate(program, edb).db.rows("tc")
        assert r.facts("tc") == want
        r.close()

    def test_provenance_recovery_takes_scratch_rung(
        self, tmp_path, program, edb
    ):
        cfg = _config(tmp_path)
        opts = EngineOptions(record_provenance=True)
        s = IncrementalSession(program, edb, opts, durable=cfg)
        s.insert({"edge": [(3, 4)]})
        want = s.facts("tc")
        s.close()
        r, report = recover(program, cfg, opts)
        assert report.source == "scratch"
        assert r.facts("tc") == want
        # every derived fact has a valid justification again
        for pred_row, just in r.provenance.items():
            pred, row = pred_row
            assert row in r.facts(pred)
        for row in r.facts("tc") - r._protected("tc"):
            assert ("tc", row) in r.provenance
        r.close()

    def test_recovery_reports_timing(self, tmp_path, program, edb):
        cfg = _config(tmp_path)
        s = IncrementalSession(program, edb, durable=cfg)
        s.insert({"edge": [(3, 4)]})
        s.close()
        r, report = recover(program, cfg)
        assert report.recovery_ms > 0
        assert r.stats.recovery_ms == report.recovery_ms
        assert r.stats.wal_replays == report.replayed_batches == 1
        r.close()


class TestCrashInjection:
    def test_parse_wal_crash_specs(self):
        plan = parse_fault_specs(["wal-crash:torn-record:3"])
        assert plan.wal_crash == "torn-record"
        assert plan.wal_crash_seq == 3
        plan = parse_fault_specs(["wal-crash:mid-snapshot"])
        assert plan.wal_crash == "mid-snapshot"
        assert plan.wal_crash_seq is None
        from repro.datalog.errors import EvaluationError

        with pytest.raises(EvaluationError, match="wal-crash"):
            parse_fault_specs(["wal-crash:quietly"])

    def test_torn_record_damages_then_recovery_repairs(
        self, tmp_path, program, edb
    ):
        cfg = _config(tmp_path, snapshot_every=0)
        opts = EngineOptions(
            fault_plan=FaultPlan(wal_crash="torn-record", wal_crash_seq=2)
        )
        s = IncrementalSession(program, edb, opts, durable=cfg)
        s.insert({"edge": [(3, 4)]})
        with pytest.raises(WalCrash):
            s.insert({"edge": [(4, 5)]})
        data = read_wal(cfg.wal_path)
        assert data.torn_offset is not None  # real damage on disk
        assert [r["seq"] for r in data.records] == [1]
        r, report = recover(program, cfg)
        assert report.torn_tail_dropped
        assert (1, 4) in r.facts("tc")
        assert (1, 5) not in r.facts("tc")  # the torn batch never landed
        # appends resume on the repaired log at the right sequence
        r.insert({"edge": [(4, 6)]})
        assert [x["seq"] for x in read_wal(cfg.wal_path).records] == [1, 2]
        r.close(), s.close()

    def test_crash_points_leave_recoverable_state(self, tmp_path, program):
        for point in (
            "before-append",
            "after-append",
            "mid-snapshot",
            "truncated-snapshot",
        ):
            wal = tmp_path / f"{point}.wal"
            cfg = DurabilityConfig(wal_path=str(wal), snapshot_every=2)
            opts = EngineOptions(
                fault_plan=FaultPlan(wal_crash=point, wal_crash_seq=2)
            )
            edb = Database.from_dict({"edge": [(1, 2), (2, 3)]})
            s = IncrementalSession(program, edb, opts, durable=cfg)
            s.insert({"edge": [(3, 4)]})
            with pytest.raises(WalCrash):
                s.insert({"edge": [(4, 5)]})
            r, report = recover(program, cfg)
            include_crashed = point in (
                "after-append", "mid-snapshot", "truncated-snapshot"
            )
            assert ((1, 5) in r.facts("tc")) == include_crashed, point
            r.close()
            s.close()


class TestStatsPlumbing:
    def test_durability_counters_are_invariant_excluded(self):
        stats = EvalStats()
        stats.wal_appends = 3
        stats.wal_replays = 2
        stats.snapshots_written = 1
        stats.recovery_ms = 4.2
        full = stats.as_dict()
        assert full["wal_appends"] == 3
        inv = stats.as_dict(engine_invariant=True)
        for key in (
            "wal_appends", "wal_replays", "snapshots_written", "recovery_ms"
        ):
            assert key not in inv

    def test_summary_mentions_wal_activity(self):
        stats = EvalStats()
        stats.wal_appends = 3
        stats.snapshots_written = 1
        assert "wal=3" in stats.summary()
        assert "snaps=1" in stats.summary()


class TestBulkLoad:
    def test_bulk_load_fast_path(self):
        from repro.datalog.database import Relation

        rel = Relation(2)
        assert rel.bulk_load([(1, 2), (3, 4)]) == 2
        assert (1, 2) in rel and len(rel) == 2
        # indexes build lazily afterwards, as usual
        assert rel.lookup((0,), (3,)) == [(3, 4)]

    def test_bulk_load_refuses_nonempty(self):
        from repro.datalog.database import Relation
        from repro.datalog.errors import ArityError, ValidationError

        rel = Relation(2)
        rel.add((1, 2))
        with pytest.raises(ValidationError):
            rel.bulk_load([(3, 4)])
        fresh = Relation(2)
        with pytest.raises(ArityError):
            fresh.bulk_load([(1, 2, 3)])
