"""Unit tests for repro.sim.nvram."""

import pytest

from repro.errors import AddressError
from repro.sim.config import EnergyConfig, MemCtrlConfig, NVDimmConfig
from repro.sim.energy import EnergyModel
from repro.sim.memctrl import MemoryController
from repro.sim.nvram import NVRAM
from repro.sim.stats import MachineStats


@pytest.fixture
def nvram():
    return NVRAM(NVDimmConfig(size_bytes=1024 * 1024))


def bank_and_row(addr):
    """The bank and row a timed access to ``addr`` opens on a fresh device
    (the memory controller maps addresses onto the device's banks)."""
    config = NVDimmConfig(size_bytes=1024 * 1024)
    nvram = NVRAM(config)
    stats = MachineStats()
    energy = EnergyModel(EnergyConfig(), stats)
    MemoryController(MemCtrlConfig(), config, nvram, energy, stats, 2.5).read(addr, 1, 0.0)
    [(bank, rows)] = [(bank, rows) for bank, rows in enumerate(nvram.open_rows) if rows]
    return bank, rows[0]


class TestFunctionalAccess:
    def test_starts_zeroed(self, nvram):
        assert nvram.read(0, 16) == bytes(16)

    def test_write_then_read(self, nvram):
        nvram.write(100, b"hello", completion_time=1.0)
        assert nvram.read(100, 5) == b"hello"

    def test_peek_does_not_count_traffic(self, nvram):
        nvram.peek(0, 64)
        assert nvram.total_read_bytes == 0

    def test_read_counts_traffic(self, nvram):
        nvram.read(0, 64)
        assert nvram.total_read_bytes == 64

    def test_write_counts_traffic(self, nvram):
        nvram.write(0, bytes(64))
        assert nvram.total_write_bytes == 64

    def test_poke_does_not_count_or_journal(self, nvram):
        nvram.poke(0, b"xyz")
        assert nvram.total_write_bytes == 0
        assert nvram.journal_length == 0
        assert nvram.peek(0, 3) == b"xyz"

    def test_out_of_range_read(self, nvram):
        with pytest.raises(AddressError):
            nvram.read(1024 * 1024 - 4, 8)

    def test_out_of_range_write(self, nvram):
        with pytest.raises(AddressError):
            nvram.write(1024 * 1024, b"x")


class TestGeometry:
    def test_line_interleaved_banks(self):
        banks = [bank_and_row(line * 64)[0] for line in range(8)]
        assert banks == list(range(8))

    def test_bank_wraps(self):
        assert bank_and_row(8 * 64)[0] == 0

    def test_row_covers_stripe(self):
        stripe = 2048 * 8
        assert bank_and_row(0)[1] == bank_and_row(stripe - 1)[1] == 0
        assert bank_and_row(stripe)[1] == 1


class TestRowBuffers:
    def test_first_access_misses(self, nvram):
        assert nvram.row_buffer_access(0, 5) is False

    def test_second_access_hits(self, nvram):
        nvram.row_buffer_access(0, 5)
        assert nvram.row_buffer_access(0, 5) is True

    def test_lru_eviction(self):
        nvram = NVRAM(NVDimmConfig(size_bytes=1024 * 1024, row_buffers_per_bank=2))
        nvram.row_buffer_access(0, 1)
        nvram.row_buffer_access(0, 2)
        nvram.row_buffer_access(0, 3)  # evicts row 1
        assert nvram.row_buffer_access(0, 1) is False
        assert nvram.row_buffer_access(0, 3) is True

    def test_touch_refreshes_lru(self):
        nvram = NVRAM(NVDimmConfig(size_bytes=1024 * 1024, row_buffers_per_bank=2))
        nvram.row_buffer_access(0, 1)
        nvram.row_buffer_access(0, 2)
        nvram.row_buffer_access(0, 1)  # refresh row 1
        nvram.row_buffer_access(0, 3)  # evicts row 2
        assert nvram.row_buffer_access(0, 1) is True
        assert nvram.row_buffer_access(0, 2) is False


class TestCrashJournal:
    def test_revert_discards_late_writes(self, nvram):
        nvram.write(0, b"AAAA", completion_time=10.0)
        nvram.write(0, b"BBBB", completion_time=20.0)
        reverted = nvram.revert_after(15.0)
        assert reverted == 1
        assert nvram.peek(0, 4) == b"AAAA"

    def test_revert_keeps_durable_writes(self, nvram):
        nvram.write(0, b"AAAA", completion_time=10.0)
        assert nvram.revert_after(10.0) == 0
        assert nvram.peek(0, 4) == b"AAAA"

    def test_revert_restores_in_reverse_order(self, nvram):
        nvram.write(0, b"11", completion_time=5.0)
        nvram.write(0, b"22", completion_time=6.0)
        nvram.write(0, b"33", completion_time=7.0)
        nvram.revert_after(5.5)
        assert nvram.peek(0, 2) == b"11"

    def test_retire_journal_bounds_memory(self, nvram):
        for i in range(10):
            nvram.write(i * 8, bytes(8), completion_time=float(i))
        nvram.retire_journal(5.0)
        assert nvram.journal_length == 4
