"""Unit tests for repro.core.fwb (force write-back mechanism)."""

import pytest

from repro.core.fwb import ForceWriteBack, required_scan_frequency, required_scan_interval
from repro import Machine, SystemConfig
from repro.core.design import FWB
from repro.sim.config import LoggingConfig
from tests.conftest import tiny_system


@pytest.fixture
def machine():
    return Machine(tiny_system(), FWB)


class TestScanFrequency:
    def test_paper_running_example(self):
        """A 64K-entry (4 MB) log needs a scan only every ~3M cycles."""
        interval = required_scan_interval(SystemConfig())
        assert 2e6 < interval < 4e6

    def test_interval_linear_in_log_size(self):
        small = SystemConfig(logging=LoggingConfig(log_entries=1024))
        large = SystemConfig(logging=LoggingConfig(log_entries=4096))
        ratio = required_scan_interval(large) / required_scan_interval(small)
        assert ratio == pytest.approx(4.0)

    def test_frequency_is_reciprocal(self):
        config = SystemConfig()
        assert required_scan_frequency(config) == pytest.approx(
            1.0 / required_scan_interval(config)
        )

    def test_override(self):
        config = SystemConfig(
            logging=LoggingConfig(fwb_scan_interval_override=12345)
        )
        assert required_scan_interval(config) == 12345.0

    def test_safety_factor(self):
        lax = SystemConfig(logging=LoggingConfig(fwb_safety_factor=1.0))
        tight = SystemConfig(logging=LoggingConfig(fwb_safety_factor=4.0))
        assert required_scan_interval(tight) == pytest.approx(
            required_scan_interval(lax) / 4.0
        )


class TestStateMachine:
    def test_first_scan_flags_dirty_lines(self, machine):
        machine.hierarchy.store(0, 0x2000, b"D" * 8, 0.0)
        machine.fwb.scan(0.0)
        line = machine.hierarchy.l1s[0].lookup(0x2000)
        assert line.fwb and line.dirty

    def test_second_scan_forces_writeback(self, machine):
        machine.hierarchy.store(0, 0x2000, b"D" * 8, 0.0)
        machine.fwb.scan(0.0)
        machine.fwb.scan(1.0)
        line = machine.hierarchy.l1s[0].lookup(0x2000)
        assert not line.dirty and not line.fwb
        assert machine.stats.fwb_writebacks >= 1

    def test_l1_fwb_pushes_into_llc(self, machine):
        machine.hierarchy.store(0, 0x2000, b"D" * 8, 0.0)
        machine.fwb.scan(0.0)
        machine.fwb.scan(1.0)
        llc_line = machine.hierarchy.llc.lookup(0x2000)
        assert llc_line.dirty
        assert bytes(llc_line.data[:8]) == b"D" * 8

    def test_data_reaches_nvram_after_llc_scans(self, machine):
        machine.hierarchy.store(0, 0x2000, b"P" * 8, 0.0)
        for t in range(4):
            machine.fwb.scan(float(t))
        assert machine.nvram.peek(0x2000, 8) == b"P" * 8

    def test_clean_lines_ignored(self, machine):
        machine.hierarchy.load(0, 0x2000, 0.0, 0x2000)
        machine.fwb.scan(0.0)
        line = machine.hierarchy.l1s[0].lookup(0x2000)
        assert not line.fwb

    def test_dirty_cleared_elsewhere_resets_fwb(self, machine):
        machine.hierarchy.store(0, 0x2000, b"D" * 8, 0.0)
        machine.fwb.scan(0.0)
        machine.hierarchy.clwb(0, 0x2000, 1.0)  # clears dirty
        machine.fwb.scan(2.0)
        line = machine.hierarchy.l1s[0].lookup(0x2000)
        assert not line.fwb
        # Third scan must not force anything: the line went back to IDLE.
        before = machine.stats.fwb_writebacks
        machine.fwb.scan(3.0)
        assert machine.stats.fwb_writebacks == before

    def test_redirtied_line_restarts_protocol(self, machine):
        machine.hierarchy.store(0, 0x2000, b"1" * 8, 0.0)
        machine.fwb.scan(0.0)
        machine.fwb.scan(1.0)  # forced back, IDLE
        machine.hierarchy.store(0, 0x2000, b"2" * 8, 2.0)
        machine.fwb.scan(3.0)
        line = machine.hierarchy.l1s[0].lookup(0x2000)
        assert line.fwb and line.dirty


class TestScheduling:
    def test_maybe_scan_respects_interval(self, machine):
        interval = machine.fwb.interval
        machine.fwb.maybe_scan(interval / 2)
        assert machine.stats.fwb_scans == 0
        machine.fwb.maybe_scan(interval + 1)
        assert machine.stats.fwb_scans == 1

    def test_maybe_scan_catches_up(self, machine):
        machine.fwb.maybe_scan(machine.fwb.interval * 3.5)
        assert machine.stats.fwb_scans == 3

    def test_scan_deposits_tax_debt(self, machine):
        machine.hierarchy.store(0, 0x2000, b"D" * 8, 0.0)
        machine.fwb.scan(0.0)
        assert machine.hierarchy.scan_debt > 0
        assert machine.stats.fwb_lines_scanned >= 1
