"""Unit tests for repro.core.logbuffer (the volatile log buffer)."""

import pytest

from repro.core.logbuffer import LogBuffer
from repro.sim.config import EnergyConfig, MemCtrlConfig, NVDimmConfig
from repro.sim.energy import EnergyModel
from repro.sim.memctrl import MemoryController
from repro.sim.nvram import NVRAM
from repro.sim.stats import MachineStats


def make_buffer(depth, **nvram_overrides):
    stats = MachineStats()
    nvram_config = NVDimmConfig(size_bytes=1024 * 1024, **nvram_overrides)
    nvram = NVRAM(nvram_config)
    mc = MemoryController(
        MemCtrlConfig(), nvram_config, nvram, EnergyModel(EnergyConfig(), stats), stats, 2.5
    )
    return LogBuffer(depth, mc, stats), nvram, stats


class TestUnbuffered:
    def test_record_reaches_nvram(self):
        buf, nvram, _ = make_buffer(0)
        buf.push(0x1000, b"R" * 64, 0.0)
        assert nvram.read(0x1000, 1) == b"R"

    def test_store_waits_for_bus(self):
        buf, _, stats = make_buffer(0, bus_cycles_per_transfer=12.0)
        total = 0.0
        for i in range(6):
            stall, _ = buf.push(0x1000 + i * 64, bytes(64), 0.0)
            total += stall
        assert total > 0
        assert stats.log_buffer_stall_cycles > 0


class TestBuffered:
    def test_no_stall_when_space(self):
        buf, _, _ = make_buffer(8)
        stall, completion = buf.push(0x1000, bytes(64), 0.0)
        assert stall == 0.0
        assert completion > 0.0

    def test_full_buffer_stalls(self):
        buf, _, stats = make_buffer(2, bus_cycles_per_transfer=50.0)
        stalls = [buf.push(0x1000 + i * 64, bytes(64), 0.0)[0] for i in range(6)]
        assert any(s > 0 for s in stalls)
        assert stats.log_buffer_stall_cycles > 0

    def test_deeper_buffer_stalls_less(self):
        shallow, _, _ = make_buffer(2, bus_cycles_per_transfer=50.0)
        deep, _, _ = make_buffer(16, bus_cycles_per_transfer=50.0)
        shallow_stall = sum(
            shallow.push(0x1000 + i * 64, bytes(64), 0.0)[0] for i in range(10)
        )
        deep_stall = sum(
            deep.push(0x1000 + i * 64, bytes(64), 0.0)[0] for i in range(10)
        )
        assert deep_stall < shallow_stall


class TestOrdering:
    @pytest.mark.parametrize("depth", [0, 4, 15])
    def test_completions_monotone(self, depth):
        """Log updates must become durable in issue order (Section III-D)."""
        buf, _, _ = make_buffer(depth)
        completions = []
        now = 0.0
        for i in range(20):
            stall, completion = buf.push(0x1000 + (i % 8) * 64, bytes(64), now)
            completions.append(completion)
            now += 5.0 + stall
        assert completions == sorted(completions)

    def test_stats_count_records(self):
        buf, _, stats = make_buffer(8)
        for i in range(5):
            buf.push(0x1000 + i * 64, bytes(64), 0.0)
        assert stats.log_records == 5
        assert stats.log_bytes == 5 * 64
