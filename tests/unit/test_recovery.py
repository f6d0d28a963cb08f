"""Unit tests for repro.core.recovery (log replay)."""

import pytest

from repro.core.growlog import DIRECTORY_BYTES, GrowableCircularLog, RegionDirectory
from repro.core.logrecord import LogRecord, RecordKind
from repro.core.nvlog import CircularLog
from repro.core.recovery import RecoveryManager, RecoveryReport
from repro.sim.config import NVDimmConfig
from repro.sim.nvram import NVRAM


@pytest.fixture
def env():
    nvram = NVRAM(NVDimmConfig(size_bytes=1024 * 1024))
    log = CircularLog(base=0x80000, num_entries=8, entry_size=64)
    return nvram, log, RecoveryManager(nvram, log)


def append(nvram, log, record):
    placed = log.place(record)
    nvram.poke(placed.addr, placed.payload)


def begin(nvram, log, txid):
    append(nvram, log, LogRecord(RecordKind.BEGIN, txid, 0))


def data(nvram, log, txid, addr, old, new):
    append(nvram, log, LogRecord(RecordKind.DATA, txid, 0, addr, old, new))


def commit(nvram, log, txid):
    append(nvram, log, LogRecord(RecordKind.COMMIT, txid, 0))


class TestWindowScan:
    def test_empty_log(self, env):
        _nvram, _log, manager = env
        assert manager.scan_window() == []

    def test_prefix_before_wrap(self, env):
        nvram, log, manager = env
        begin(nvram, log, 1)
        data(nvram, log, 1, 0x100, b"A" * 8, b"B" * 8)
        commit(nvram, log, 1)
        window = manager.scan_window()
        assert [r.kind for r in window] == [
            RecordKind.BEGIN,
            RecordKind.DATA,
            RecordKind.COMMIT,
        ]

    def test_wrapped_window_in_history_order(self, env):
        nvram, log, manager = env
        for i in range(10):  # wraps an 8-entry ring
            data(nvram, log, 1, 0x100 + i * 8, b"A" * 8, bytes([i]) * 8)
        window = manager.scan_window()
        assert len(window) == 8
        values = [r.redo[0] for r in window]
        assert values == [2, 3, 4, 5, 6, 7, 8, 9]

    def test_exact_wrap_boundary(self, env):
        nvram, log, manager = env
        for i in range(8):
            data(nvram, log, 1, 0x100 + i * 8, b"A" * 8, bytes([i]) * 8)
        window = manager.scan_window()
        assert [r.redo[0] for r in window] == list(range(8))


class TestReplay:
    def test_committed_transaction_redone(self, env):
        nvram, log, manager = env
        begin(nvram, log, 1)
        data(nvram, log, 1, 0x100, b"O" * 8, b"N" * 8)
        commit(nvram, log, 1)
        report = manager.recover()
        assert report.committed_instances == 1
        assert report.redo_writes == 1
        assert nvram.read(0x100, 8) == b"N" * 8

    def test_uncommitted_transaction_undone(self, env):
        nvram, log, manager = env
        nvram.poke(0x100, b"N" * 8)  # the store stole its way to NVRAM
        begin(nvram, log, 1)
        data(nvram, log, 1, 0x100, b"O" * 8, b"N" * 8)
        report = manager.recover()
        assert report.uncommitted_instances == 1
        assert report.undo_writes == 1
        assert nvram.read(0x100, 8) == b"O" * 8

    def test_multi_write_undo_in_reverse(self, env):
        nvram, log, manager = env
        begin(nvram, log, 1)
        data(nvram, log, 1, 0x100, b"0" * 8, b"1" * 8)
        data(nvram, log, 1, 0x100, b"1" * 8, b"2" * 8)
        nvram.poke(0x100, b"2" * 8)
        manager.recover()
        assert nvram.read(0x100, 8) == b"0" * 8

    def test_redo_applied_in_order(self, env):
        nvram, log, manager = env
        begin(nvram, log, 1)
        data(nvram, log, 1, 0x100, b"0" * 8, b"1" * 8)
        data(nvram, log, 1, 0x100, b"1" * 8, b"2" * 8)
        commit(nvram, log, 1)
        manager.recover()
        assert nvram.read(0x100, 8) == b"2" * 8

    def test_mixed_transactions(self, env):
        nvram, log, manager = env
        begin(nvram, log, 1)
        data(nvram, log, 1, 0x100, b"A" * 8, b"B" * 8)
        commit(nvram, log, 1)
        begin(nvram, log, 2)
        data(nvram, log, 2, 0x200, b"C" * 8, b"D" * 8)
        nvram.poke(0x200, b"D" * 8)
        report = manager.recover()
        assert report.committed_instances == 1
        assert report.uncommitted_instances == 1
        assert nvram.read(0x100, 8) == b"B" * 8
        assert nvram.read(0x200, 8) == b"C" * 8

    def test_physical_txid_reuse(self, env):
        """Same txid committed twice: each instance handled separately."""
        nvram, log, manager = env
        begin(nvram, log, 5)
        data(nvram, log, 5, 0x100, b"0" * 8, b"1" * 8)
        commit(nvram, log, 5)
        begin(nvram, log, 5)
        data(nvram, log, 5, 0x100, b"1" * 8, b"2" * 8)
        report = manager.recover()
        assert report.committed_instances == 1
        assert report.uncommitted_instances == 1
        assert nvram.read(0x100, 8) == b"1" * 8

    def test_orphan_data_with_commit_is_redone(self, env):
        """A txn whose BEGIN was overwritten but whose COMMIT survived."""
        nvram, log, manager = env
        data(nvram, log, 3, 0x100, b"X" * 8, b"Y" * 8)
        commit(nvram, log, 3)
        manager.recover()
        assert nvram.read(0x100, 8) == b"Y" * 8

    def test_undo_only_records_skip_redo(self, env):
        nvram, log, manager = env
        nvram.poke(0x100, b"KEEPKEEP")
        begin(nvram, log, 1)
        data(nvram, log, 1, 0x100, b"O" * 8, b"")  # undo-only (sw undo)
        commit(nvram, log, 1)
        report = manager.recover()
        assert report.redo_writes == 0
        assert nvram.read(0x100, 8) == b"KEEPKEEP"

    def test_log_reset_after_recovery(self, env):
        nvram, log, manager = env
        begin(nvram, log, 1)
        commit(nvram, log, 1)
        manager.recover()
        assert manager.scan_window() == []
        assert log.tail == 0 and not log.wrapped

    def test_recover_without_reset(self, env):
        nvram, log, manager = env
        begin(nvram, log, 1)
        commit(nvram, log, 1)
        manager.recover(reset_log=False)
        assert len(manager.scan_window()) == 2

    def test_report_counts(self, env):
        nvram, log, manager = env
        report = manager.recover()
        assert report.records_scanned == 8
        assert report.window_entries == 0
        assert report.total_writes == 0


def tear(nvram, log, slot, keep=8):
    """Destroy slot ``slot`` the way a torn in-flight write does: the
    first ``keep`` bytes of a new record (magic included) persist over
    whatever was there, so the entry checksums as damaged, not empty."""
    fragment = LogRecord(
        RecordKind.DATA, 0x3FF, 0, 0x7000, b"T" * 8, b"T" * 8
    ).encode(log.entry_size)[:keep]
    nvram.poke(log.entry_addr(slot), fragment)


class TestDamagedLog:
    def test_torn_tail_skipped_and_counted(self, env):
        nvram, log, manager = env
        begin(nvram, log, 1)
        data(nvram, log, 1, 0x100, b"O" * 8, b"N" * 8)
        commit(nvram, log, 1)
        tear(nvram, log, slot=3)  # the in-flight next record
        report = RecoveryReport()
        window = manager.scan_window(report)
        assert len(window) == 3
        assert report.torn_records_skipped == 1

    def test_mid_window_corruption_skipped(self, env):
        nvram, log, manager = env
        begin(nvram, log, 1)
        data(nvram, log, 1, 0x100, b"O" * 8, b"N" * 8)
        commit(nvram, log, 1)
        begin(nvram, log, 2)
        tear(nvram, log, slot=1)  # destroy the committed txn's DATA record
        report = manager.recover(reset_log=False)
        assert report.checksum_failures == 1
        assert report.committed_instances == 1
        assert report.damaged_records == 1

    def test_unchecked_recovery_replays_ghost(self, env):
        # The control experiment: without checksums a plausible ghost
        # entry decodes as a real record.
        from repro.faults import GhostRecord

        nvram, log, _manager = env
        begin(nvram, log, 1)
        commit(nvram, log, 1)
        ghost_slot = 2
        payload = GhostRecord(log.entry_addr(ghost_slot), log.entry_size, seed=1).payload()
        nvram.poke(log.entry_addr(ghost_slot), payload)
        checked = RecoveryManager(nvram, log, verify_checksums=True)
        report = RecoveryReport()
        assert len(checked.scan_window(report)) == 2
        assert report.checksum_failures + report.torn_records_skipped >= 1
        bare = RecoveryManager(nvram, log, verify_checksums=False)
        assert len(bare.scan_window()) == 3  # ghost replayed

    def test_resurrected_newer_pass_record_dropped(self, env):
        # A torn overwrite of an all-header record can keep a whole valid
        # header carrying the NEXT pass's torn bit.  FIFO drain order
        # says it cannot be durable while same-pass predecessors are
        # missing — the scan must drop it, not truncate the window.
        nvram, log, manager = env
        for i in range(8):  # fill pass 1 exactly (parity stays 1)
            data(nvram, log, 1, 0x100 + i * 8, b"A" * 8, bytes([i]) * 8)
        resurrected = LogRecord(RecordKind.COMMIT, 7, 0, torn=0)
        nvram.poke(log.entry_addr(3), resurrected.encode(log.entry_size))
        report = RecoveryReport()
        window = manager.scan_window(report)
        assert [r.redo[0] for r in window] == [0, 1, 2, 4, 5, 6, 7]
        assert report.torn_records_skipped == 1

    def test_lost_commit_inferred_from_same_thread_successor(self, env):
        # Destroying a COMMIT mid-window must not roll the transaction
        # back: a later record of the same thread proves it finished.
        nvram, log, manager = env
        begin(nvram, log, 1)
        data(nvram, log, 1, 0x100, b"O" * 8, b"N" * 8)
        commit(nvram, log, 1)
        begin(nvram, log, 2)
        nvram.poke(0x100, b"N" * 8)  # txn 1's data is durable
        tear(nvram, log, slot=2)  # destroy txn 1's COMMIT
        report = manager.recover()
        assert report.commits_inferred == 1
        assert report.committed_instances == 1
        assert nvram.read(0x100, 8) == b"N" * 8  # not rolled back

    def test_in_flight_transaction_still_undone(self, env):
        # The inference must not save a transaction that truly was
        # in flight: no same-thread successor, so it is undone.
        nvram, log, manager = env
        begin(nvram, log, 1)
        data(nvram, log, 1, 0x100, b"O" * 8, b"N" * 8)
        nvram.poke(0x100, b"N" * 8)
        report = manager.recover()
        assert report.commits_inferred == 0
        assert report.uncommitted_instances == 1
        assert nvram.read(0x100, 8) == b"O" * 8

    def test_double_recovery_idempotent(self, env):
        nvram, log, manager = env
        begin(nvram, log, 1)
        data(nvram, log, 1, 0x100, b"O" * 8, b"N" * 8)
        commit(nvram, log, 1)
        begin(nvram, log, 2)
        data(nvram, log, 2, 0x200, b"P" * 8, b"Q" * 8)
        nvram.poke(0x200, b"Q" * 8)
        manager.recover()
        image = bytes(nvram.image)
        second = RecoveryManager(nvram, log).recover()
        assert bytes(nvram.image) == image
        assert second.window_entries == 0


class TestGrownLogRecovery:
    """Recovery across grown regions, including a torn active tail."""

    ENTRIES = 8
    ENTRY_SIZE = 64

    def _grown_env(self):
        nvram = NVRAM(NVDimmConfig(size_bytes=1024 * 1024))
        directory_addr = 0x70000
        bases = iter((0x90000, 0xA0000))
        active = {"token": 1}
        log = GrowableCircularLog(
            base=0x80000,
            num_entries=self.ENTRIES,
            entry_size=self.ENTRY_SIZE,
            line_size=64,
            region_allocator=lambda size: next(bases),
            activity_token=lambda txid: active["token"],
            directory=RegionDirectory(nvram, directory_addr),
        )
        return nvram, log, directory_addr

    def _fill(self, nvram, log, count, txid=1):
        for i in range(count):
            record = LogRecord(
                RecordKind.DATA, txid, 0, 0x100 + i * 8, b"A" * 8, bytes([i]) * 8
            )
            placed = log.place(record)
            nvram.poke(placed.addr, placed.payload)

    def test_window_spans_frozen_and_active_regions(self):
        nvram, log, _directory = self._grown_env()
        # Fill the ring, then wrap onto a slot whose transaction is still
        # active: the log grows instead of overwriting.
        self._fill(nvram, log, self.ENTRIES + 3)
        assert log.total_regions == 2
        manager = RecoveryManager(nvram, log)
        window = manager.scan_window()
        assert [r.redo[0] for r in window] == list(range(self.ENTRIES + 3))

    def test_torn_active_tail_after_grow(self):
        nvram, log, directory_addr = self._grown_env()
        self._fill(nvram, log, self.ENTRIES + 3)
        views = log.region_views()
        tear(nvram, views[-1], 2)  # torn in-flight write of the newest record
        cold = RegionDirectory(nvram, directory_addr).views()
        manager = RecoveryManager(nvram, *cold)
        report = RecoveryReport()
        window = manager.scan_window(report)
        assert [r.redo[0] for r in window] == list(range(self.ENTRIES + 2))
        assert report.torn_records_skipped == 1

    def test_reset_clears_every_region_view(self):
        # The log reset must rewind frozen views too, so nothing
        # replays from a stale region after recovery.
        nvram, log, directory_addr = self._grown_env()
        self._fill(nvram, log, self.ENTRIES + 3)
        cold = RegionDirectory(nvram, directory_addr).views()
        manager = RecoveryManager(nvram, *cold)
        manager.recover()
        for view in cold:
            assert view.tail == 0 and view.head == 0 and not view.wrapped
        assert manager.scan_window() == []
        # A manager over the original live log finds nothing either.
        fresh = RecoveryManager(nvram, log)
        assert fresh.scan_window() == []
