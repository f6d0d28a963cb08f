"""Unit tests for repro.sim.wcb (write-combining buffer)."""

import pytest

from repro.sim.config import EnergyConfig, MemCtrlConfig, NVDimmConfig
from repro.sim.energy import EnergyModel
from repro.sim.memctrl import MemoryController
from repro.sim.nvram import NVRAM
from repro.sim.stats import MachineStats
from repro.sim.wcb import WriteCombiningBuffer


@pytest.fixture
def setup():
    stats = MachineStats()
    nvram_config = NVDimmConfig(size_bytes=1024 * 1024)
    nvram = NVRAM(nvram_config)
    mc = MemoryController(
        MemCtrlConfig(), nvram_config, nvram, EnergyModel(EnergyConfig(), stats), stats, 2.5
    )
    wcb = WriteCombiningBuffer(4, 64, mc, stats)
    return wcb, nvram, stats


class TestCoalescing:
    def test_same_line_coalesces(self, setup):
        wcb, _, _ = setup
        wcb.push(0, b"AAAA", 0.0)
        wcb.push(8, b"BBBB", 1.0)
        assert wcb.occupancy == 1

    def test_distinct_lines_use_slots(self, setup):
        wcb, _, _ = setup
        wcb.push(0, b"A", 0.0)
        wcb.push(64, b"B", 0.0)
        assert wcb.occupancy == 2

    def test_full_buffer_drains_oldest(self, setup):
        wcb, nvram, _ = setup
        for i in range(5):
            wcb.push(i * 64, bytes([i]), float(i))
        assert wcb.occupancy == 4
        assert nvram.read(0, 1) == b"\x00"  # oldest entry drained

    def test_drain_writes_covered_slice_only(self, setup):
        wcb, nvram, stats = setup
        wcb.push(8, b"XY", 0.0)
        wcb.flush(1.0)
        assert nvram.read(8, 2) == b"XY"
        assert stats.nvram_write_bytes == 2


class TestFlush:
    def test_flush_empties(self, setup):
        wcb, _, _ = setup
        wcb.push(0, b"A", 0.0)
        wcb.push(64, b"B", 0.0)
        completion = wcb.flush(1.0)
        assert wcb.occupancy == 0
        assert completion > 1.0

    def test_flush_completion_monotone(self, setup):
        wcb, _, _ = setup
        wcb.push(0, b"A", 0.0)
        first = wcb.flush(1.0)
        wcb.push(64, b"B", first + 1)
        second = wcb.flush(first + 2)
        assert second >= first

    def test_ordered_durability(self, setup):
        """Log records drain with monotone non-decreasing completions."""
        wcb, _, _ = setup
        completions = []
        for i in range(10):
            wcb.push(i * 64, bytes(8), 0.0)
            completions.append(wcb.flush(0.0))
        assert completions == sorted(completions)


class TestCrash:
    def test_drop_loses_buffered_entries(self, setup):
        wcb, nvram, _ = setup
        wcb.push(0, b"LOST", 0.0)
        wcb.drop()
        assert wcb.occupancy == 0
        assert nvram.read(0, 4) == bytes(4)
