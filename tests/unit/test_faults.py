"""Unit tests for repro.faults (plans, crash points, enumeration)."""

import pytest

from repro.core.logrecord import DecodeStatus, LogRecord
from repro.errors import FaultInjectionError, RecoveryInterrupted, SimulatedCrash
from repro.faults import (
    CrashPoint,
    EventKind,
    FaultInjector,
    FaultMonitor,
    GhostRecord,
    TornWrite,
    enumerate_points,
    sample_indices,
)
from repro.sim.config import NVDimmConfig
from repro.sim.nvram import NVRAM


class TestTornWrite:
    def test_keeps_word_prefix(self):
        injector = FaultInjector([TornWrite(base=0, end=256, keep_words=1)])
        old = b"O" * 32
        new = b"N" * 32
        assert injector.on_revert(64, old, new) == b"N" * 8 + b"O" * 24
        assert injector.tears_applied == 1

    def test_max_tears_bound(self):
        injector = FaultInjector([TornWrite(base=0, end=256, max_tears=1)])
        injector.on_revert(0, b"O" * 16, b"N" * 16)
        # Budget exhausted: the second in-flight write reverts fully.
        assert injector.on_revert(64, b"O" * 16, b"N" * 16) == b"O" * 16
        assert injector.tears_applied == 1

    def test_out_of_range_write_reverts_fully(self):
        injector = FaultInjector([TornWrite(base=0, end=64)])
        assert injector.on_revert(128, b"O" * 16, b"N" * 16) == b"O" * 16
        assert injector.tears_applied == 0

    def test_full_keep_is_not_a_tear(self):
        injector = FaultInjector([TornWrite(base=0, end=64, keep_words=8)])
        assert injector.on_revert(0, b"O" * 16, b"N" * 16) == b"O" * 16
        assert injector.tears_applied == 0

    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            FaultInjector([TornWrite(base=64, end=64)])
        with pytest.raises(FaultInjectionError):
            FaultInjector([TornWrite(base=0, end=64, max_tears=0)])


class TestStaticFaults:
    def _nvram(self):
        return NVRAM(NVDimmConfig(size_bytes=64 * 1024))

    def test_ghost_record_fails_checksum(self):
        payload = GhostRecord(slot_addr=0x1000, entry_size=64).payload()
        record, status = LogRecord.classify(payload, verify_checksum=True)
        assert record is None
        assert status is DecodeStatus.CHECKSUM
        # The bare (paper) decoder is fooled — that is the point of the
        # per-record checksum.
        record, status = LogRecord.classify(payload, verify_checksum=False)
        assert record is not None

    def test_ghost_written_into_image(self):
        nvram = self._nvram()
        ghost = GhostRecord(slot_addr=0x1000, entry_size=64, seed=3)
        injector = FaultInjector([ghost])
        injector.corrupt_image(nvram)
        assert nvram.read(0x1000, 64) == ghost.payload()

    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            FaultInjector([GhostRecord(slot_addr=0, entry_size=8)])


class _FakeStats:
    log_records = 0
    fwb_scans = 0
    log_wrap_forced_writebacks = 0


class TestFaultMonitor:
    def test_profiles_event_counts(self):
        monitor = FaultMonitor()
        stats = _FakeStats()
        for i in range(5):
            stats.log_records = i  # one drain per op after the first
            monitor.after_op(float(i), stats)
        assert monitor.counts[EventKind.RETIRE] == 5
        assert monitor.counts[EventKind.LOG_DRAIN] == 4

    def test_trigger_raises_at_exact_index(self):
        monitor = FaultMonitor(CrashPoint(EventKind.RETIRE, 2))
        stats = _FakeStats()
        monitor.after_op(0.0, stats)
        monitor.after_op(1.0, stats)
        with pytest.raises(SimulatedCrash) as excinfo:
            monitor.after_op(2.5, stats)
        assert excinfo.value.at_time == 2.5
        assert monitor.fired

    def test_trigger_fires_once(self):
        monitor = FaultMonitor(CrashPoint(EventKind.RETIRE, 0))
        stats = _FakeStats()
        with pytest.raises(SimulatedCrash):
            monitor.after_op(0.0, stats)
        monitor.after_op(1.0, stats)  # must not raise again

    def test_armed_monitor_counts_only_its_trigger_stream(self):
        retire = FaultMonitor(CrashPoint(EventKind.RETIRE, 99))
        drain = FaultMonitor(CrashPoint(EventKind.LOG_DRAIN, 2))
        stats = _FakeStats()
        for i in range(3):
            stats.log_records = i
            retire.after_op(float(i), stats)
            drain.after_op(float(i), stats)
        assert retire.counts[EventKind.RETIRE] == 3
        assert retire.counts[EventKind.LOG_DRAIN] == 0
        assert drain.counts[EventKind.RETIRE] == 0
        assert drain.counts[EventKind.LOG_DRAIN] == 2
        stats.log_records = 3
        with pytest.raises(SimulatedCrash) as excinfo:
            drain.after_op(3.0, stats)
        assert (excinfo.value.kind, excinfo.value.index) == ("log-drain", 2)

    def test_deadline_monitor_counts_every_stream(self):
        monitor = FaultMonitor(CrashPoint(EventKind.RETIRE, 99), deadline=10.0)
        stats = _FakeStats()
        for i in range(3):
            stats.log_records = i
            monitor.after_op(float(i), stats)
        assert monitor.counts[EventKind.RETIRE] == 3
        assert monitor.counts[EventKind.LOG_DRAIN] == 2

    def test_recovery_trigger(self):
        monitor = FaultMonitor(CrashPoint(EventKind.RECOVERY, 1))
        monitor.recovery_step()
        with pytest.raises(RecoveryInterrupted):
            monitor.recovery_step()


class TestSampling:
    def test_budget_larger_than_total(self):
        assert sample_indices(3, 10) == [0, 1, 2]

    def test_spread_includes_first_and_last(self):
        picked = sample_indices(1000, 10)
        assert len(picked) == 10
        assert picked[0] == 0
        assert picked[-1] == 999

    def test_deterministic(self):
        assert sample_indices(777, 13) == sample_indices(777, 13)

    def test_empty(self):
        assert sample_indices(0, 5) == []
        assert sample_indices(5, 0) == []


class TestEnumeratePoints:
    TOTALS = {
        EventKind.RETIRE: 1000,
        EventKind.LOG_DRAIN: 200,
        EventKind.FWB_SCAN: 40,
        EventKind.WRAP_FORCE: 10,
        EventKind.RECOVERY: 0,
    }

    def test_deterministic_and_bounded(self):
        first = enumerate_points(self.TOTALS, recovery_steps=50, budget=60)
        second = enumerate_points(self.TOTALS, recovery_steps=50, budget=60)
        assert first == second
        assert 0 < len(first) <= 66  # budget with small rounding slack

    def test_mixes_kinds_and_faults(self):
        points = enumerate_points(self.TOTALS, recovery_steps=50, budget=60)
        kinds = {point.kind for point in points}
        faults = {point.fault for point in points}
        assert EventKind.RETIRE in kinds
        assert EventKind.RECOVERY in kinds
        assert "torn" in faults and "ghost" in faults and "none" in faults

    def test_missing_streams_densify_retires(self):
        sparse = dict(self.TOTALS)
        sparse[EventKind.FWB_SCAN] = 0
        sparse[EventKind.WRAP_FORCE] = 0
        points = enumerate_points(sparse, recovery_steps=0, budget=40)
        assert all(
            point.kind in (EventKind.RETIRE, EventKind.LOG_DRAIN)
            for point in points
        )
        assert len(points) >= 30


class TestResolvePolicies:
    def test_guaranteed_keyword(self):
        from repro.faults import GUARANTEED_POLICIES, resolve_policies

        assert resolve_policies("guaranteed") == GUARANTEED_POLICIES

    def test_comma_list_of_names(self):
        from repro.faults import resolve_policies

        designs = resolve_policies("fwb,hwl")
        assert [d.name for d in designs] == ["fwb", "hwl"]

    def test_comma_list_deduplicates(self):
        from repro.faults import resolve_policies

        assert len(resolve_policies("fwb,fwb, fwb")) == 1

    def test_mechanism_string_mixes_with_names(self):
        from repro.faults import resolve_policies

        designs = resolve_policies("fwb,hw+undo+redo+clwb+instant")
        assert len(designs) == 2
        assert not designs[1].persistence_guaranteed

    def test_empty_spec_is_an_error(self):
        from repro.errors import ConfigError
        from repro.faults import resolve_policies

        with pytest.raises(ConfigError, match="names no designs"):
            resolve_policies(" , ,")


class TestInstantVariants:
    def test_instant_grid_loses_every_guarantee(self):
        from repro.core.design import CommitProtocol
        from repro.faults import GUARANTEED_POLICIES, instant_variants, resolve_policies

        variants = resolve_policies("instant")
        assert variants == instant_variants()
        assert len(variants) == len(GUARANTEED_POLICIES)
        for spec in variants:
            assert spec.commit is CommitProtocol.INSTANT
            assert not spec.persistence_guaranteed

    def test_variants_keep_logging_mechanisms(self):
        from repro.faults import GUARANTEED_POLICIES, instant_variants

        for base, variant in zip(GUARANTEED_POLICIES, instant_variants()):
            assert variant.log_backend is base.log_backend
            assert variant.log_content is base.log_content
            assert variant.writeback is base.writeback
