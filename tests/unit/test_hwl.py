"""Unit tests for repro.core.hwl (hardware logging engine)."""

import pytest

from repro.core.logrecord import LogRecord, RecordKind
from repro.core.recovery import RecoveryManager
from repro import Machine
from repro.core.design import FWB, HW_RLOG, HW_ULOG
from tests.conftest import tiny_system


def make_machine(policy=FWB, **overrides):
    return Machine(tiny_system(**overrides), policy)


def records_in_log(machine):
    manager = RecoveryManager(machine.nvram, machine.log)
    return manager.scan_window()


class TestTransactionLifecycle:
    def test_begin_emitted_on_first_store_only(self):
        m = make_machine()
        m.hwl.on_tx_begin(1, 0, 0.0)
        m.hwl.on_store(0, 1, 0, 0x2000, b"A" * 8, b"B" * 8, 0x2000, 0.0)
        m.hwl.on_store(0, 1, 0, 0x2008, b"C" * 8, b"D" * 8, 0x2000, 1.0)
        m.hwl.on_tx_commit(1, 0, 2.0)
        kinds = [r.kind for r in records_in_log(m)]
        assert kinds == [
            RecordKind.BEGIN,
            RecordKind.DATA,
            RecordKind.DATA,
            RecordKind.COMMIT,
        ]

    def test_empty_transaction_logs_nothing(self):
        m = make_machine()
        m.hwl.on_tx_begin(1, 0, 0.0)
        m.hwl.on_tx_commit(1, 0, 1.0)
        assert records_in_log(m) == []

    def test_commit_releases_physical_txid(self):
        m = make_machine()
        m.hwl.on_tx_begin(1, 0, 0.0)
        m.hwl.on_tx_commit(1, 0, 1.0)
        assert m.registers.active_count == 0

    def test_commit_returns_durable_time(self):
        m = make_machine()
        m.hwl.on_tx_begin(1, 0, 0.0)
        m.hwl.on_store(0, 1, 0, 0x2000, b"A" * 8, b"B" * 8, 0x2000, 0.0)
        durable = m.hwl.on_tx_commit(1, 0, 5.0)
        assert durable > 5.0

    def test_interleaved_transactions(self):
        m = make_machine()
        m.hwl.on_tx_begin(1, 0, 0.0)
        m.hwl.on_tx_begin(2, 1, 0.0)
        m.hwl.on_store(0, 1, 0, 0x2000, b"A" * 8, b"B" * 8, 0x2000, 0.0)
        m.hwl.on_store(1, 2, 1, 0x3000, b"C" * 8, b"D" * 8, 0x3000, 0.0)
        m.hwl.on_tx_commit(2, 1, 1.0)
        m.hwl.on_tx_commit(1, 0, 2.0)
        window = records_in_log(m)
        tids = {r.tid for r in window if r.kind == RecordKind.DATA}
        assert tids == {0, 1}


class TestRecordContents:
    def test_undo_and_redo_values(self):
        m = make_machine()
        m.hwl.on_tx_begin(1, 0, 0.0)
        m.hwl.on_store(0, 1, 0, 0x2000, b"OLDOLD!!", b"NEWNEW!!", 0x2000, 0.0)
        m.hwl.on_tx_commit(1, 0, 1.0)
        data = [r for r in records_in_log(m) if r.kind == RecordKind.DATA][0]
        assert data.undo == b"OLDOLD!!"
        assert data.redo == b"NEWNEW!!"
        assert data.addr == 0x2000

    def test_hw_ulog_records_undo_only(self):
        m = make_machine(HW_ULOG)
        m.hwl.on_tx_begin(1, 0, 0.0)
        m.hwl.on_store(0, 1, 0, 0x2000, b"OLDOLD!!", b"NEWNEW!!", 0x2000, 0.0)
        m.hwl.on_tx_commit(1, 0, 1.0)
        data = [r for r in records_in_log(m) if r.kind == RecordKind.DATA][0]
        assert data.has_undo and not data.has_redo

    def test_hw_rlog_records_redo_only(self):
        m = make_machine(HW_RLOG)
        m.hwl.on_tx_begin(1, 0, 0.0)
        m.hwl.on_store(0, 1, 0, 0x2000, b"OLDOLD!!", b"NEWNEW!!", 0x2000, 0.0)
        m.hwl.on_tx_commit(1, 0, 1.0)
        data = [r for r in records_in_log(m) if r.kind == RecordKind.DATA][0]
        assert data.has_redo and not data.has_undo


class TestOrderingGuarantee:
    def test_store_receives_log_release(self):
        m = make_machine()
        m.hwl.on_tx_begin(1, 0, 0.0)
        _stall, release = m.hwl.on_store(
            0, 1, 0, 0x2000, b"A" * 8, b"B" * 8, 0x2000, 0.0
        )
        assert release > 0.0

    def test_releases_monotone_per_engine(self):
        m = make_machine()
        m.hwl.on_tx_begin(1, 0, 0.0)
        releases = []
        for i in range(10):
            _stall, release = m.hwl.on_store(
                0, 1, 0, 0x2000 + i * 8, b"A" * 8, b"B" * 8, 0x2000, float(i)
            )
            releases.append(release)
        assert releases == sorted(releases)


class TestWrapProtection:
    def test_wrap_forces_dirty_displaced_line(self):
        m = make_machine(logging=tiny_system().logging.__class__(log_entries=8))
        # Dirty a data line whose log entry will be displaced.
        m.hierarchy.store(0, 0x2000, b"D" * 8, 0.0)
        m.hwl.on_tx_begin(1, 0, 0.0)
        m.hwl.on_store(0, 1, 0, 0x2000, b"A" * 8, b"D" * 8, 0x2000, 0.0)
        # Fill the ring so the 0x2000 entry gets overwritten.
        for i in range(8):
            m.hwl.on_store(0, 1, 0, 0x3000 + i * 8, b"A" * 8, b"B" * 8, 0x3000, 1.0)
        assert m.stats.log_wrap_forced_writebacks >= 1
        assert not m.hierarchy.is_line_dirty(0x2000)

    def test_unsafe_hw_logging_skips_protection(self):
        m = make_machine(
            HW_ULOG, logging=tiny_system().logging.__class__(log_entries=8)
        )
        m.hierarchy.store(0, 0x2000, b"D" * 8, 0.0)
        m.hwl.on_tx_begin(1, 0, 0.0)
        for i in range(12):
            m.hwl.on_store(0, 1, 0, 0x2000 + i * 8, b"A" * 8, b"B" * 8, 0x2000, 0.0)
        assert m.stats.log_wrap_forced_writebacks == 0
