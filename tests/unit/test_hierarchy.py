"""Unit tests for repro.sim.hierarchy (two-level functional hierarchy)."""

import pytest

from repro.errors import SimulationError
from repro.sim.config import CacheConfig, SystemConfig, NVDimmConfig
from repro.sim.energy import EnergyModel
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.memctrl import MemoryController
from repro.sim.nvram import NVRAM
from repro.sim.stats import MachineStats


def make_hierarchy(num_cores=2):
    config = SystemConfig(
        num_cores=num_cores,
        l1=CacheConfig(size_bytes=512, ways=2),
        llc=CacheConfig(size_bytes=2048, ways=4, latency_ns=4.4),
        nvram=NVDimmConfig(size_bytes=1024 * 1024),
    )
    stats = MachineStats()
    nvram = NVRAM(config.nvram)
    energy = EnergyModel(config.energy, stats)
    mc = MemoryController(config.memctrl, config.nvram, nvram, energy, stats, 2.5)
    return CacheHierarchy(config, mc, energy, stats), nvram, stats


def load(h, core_id, addr, size, now):
    """``(latency, l1_hit, bytes)`` of a load of ``size`` bytes at ``addr``."""
    line = addr & ~63
    latency, l1_hit, data = h.load(core_id, addr, now, line)
    return latency, l1_hit, bytes(data[addr - line:addr - line + size])


class TestLoadPath:
    def test_cold_load_comes_from_memory(self):
        h, nvram, stats = make_hierarchy()
        nvram.poke(100, b"\xAB")
        _, l1_hit, data = load(h, 0, 100, 1, 0.0)
        assert data == b"\xAB"
        assert not l1_hit
        assert stats.l1_misses == 1
        assert stats.llc_misses == 1

    def test_second_load_hits_l1(self):
        h, _, stats = make_hierarchy()
        load(h, 0, 100, 1, 0.0)
        _, l1_hit, _ = load(h, 0, 100, 1, 1.0)
        assert l1_hit
        assert stats.l1_hits == 1

    def test_other_core_hits_llc(self):
        h, _, stats = make_hierarchy()
        load(h, 0, 100, 1, 0.0)
        _, l1_hit, _ = load(h, 1, 100, 1, 1.0)
        assert not l1_hit
        assert stats.llc_hits == 1

    def test_latency_ordering(self):
        h, _, _ = make_hierarchy()
        mem = load(h, 0, 0, 8, 0.0)[0]
        l1 = load(h, 0, 0, 8, 1.0)[0]
        llc = load(h, 1, 0, 8, 2.0)[0]
        assert l1 < llc < mem

    def test_cross_line_access_rejected(self):
        h, _, _ = make_hierarchy()
        with pytest.raises(SimulationError):
            h.store_prepare(0, 60, 8, 0.0)


class TestStorePath:
    def test_store_returns_old_data(self):
        h, nvram, _ = make_hierarchy()
        nvram.poke(64, b"OLDVALUE")
        _latency, l1_hit, old = h.store(0, 64, b"NEWVALUE", 0.0)
        assert old == b"OLDVALUE"
        assert not l1_hit

    def test_store_hit_returns_cached_old(self):
        h, _, _ = make_hierarchy()
        h.store(0, 64, b"AAAA", 0.0)
        _latency, l1_hit, old = h.store(0, 64, b"BBBB", 1.0)
        assert old == b"AAAA"
        assert l1_hit

    def test_prepare_returns_the_l1_line_holding_old_bytes(self):
        h, nvram, _ = make_hierarchy()
        nvram.poke(64, b"OLDVALUE")
        _latency, l1_hit, line = h.store_prepare(0, 64, 8, 0.0)
        assert not l1_hit
        assert line is h.l1s[0].lookup(64)
        assert bytes(line.data[:8]) == b"OLDVALUE"
        h.store_finish(line, 64, b"NEWVALUE", 7.0)
        assert bytes(line.data[:8]) == b"NEWVALUE"
        assert line.dirty and line.log_release == 7.0

    def test_store_sets_dirty(self):
        h, _, _ = make_hierarchy()
        h.store(0, 64, b"AAAA", 0.0)
        assert h.is_line_dirty(64)

    def test_store_does_not_write_nvram(self):
        h, nvram, _ = make_hierarchy()
        h.store(0, 64, b"AAAA", 0.0)
        assert nvram.read(64, 4) == bytes(4)

    def test_write_invalidates_remote_copy(self):
        h, _, stats = make_hierarchy()
        load(h, 1, 64, 8, 0.0)  # core 1 caches the line
        h.store(0, 64, b"XX", 1.0)
        assert h.l1s[1].lookup(64) is None
        assert stats.coherence_invalidations >= 1

    def test_read_pulls_remote_dirty_data(self):
        h, _, _ = make_hierarchy()
        h.store(0, 64, b"DIRTY!", 0.0)
        assert load(h, 1, 64, 6, 1.0)[2] == b"DIRTY!"


class TestEvictionAndInclusion:
    def test_dirty_l1_victim_merges_into_llc(self):
        h, _, _ = make_hierarchy()
        # L1 has 4 sets x 2 ways; same-set lines are 256B apart.
        h.store(0, 0, b"ZZ", 0.0)
        load(h, 0, 256, 1, 1.0)
        load(h, 0, 512, 1, 2.0)  # evicts line 0 from L1
        assert h.l1s[0].lookup(0) is None
        llc_line = h.llc.lookup(0)
        assert llc_line.dirty
        assert bytes(llc_line.data[:2]) == b"ZZ"

    def test_llc_eviction_writes_back_dirty(self):
        h, nvram, stats = make_hierarchy()
        h.store(0, 0, b"PERSIST!", 0.0)
        # LLC: 8 sets x 4 ways; same LLC set lines are 512B apart.
        for i in range(1, 9):
            load(h, 0, i * 512, 1, float(i))
        assert stats.writebacks >= 1
        assert nvram.read(0, 8) == b"PERSIST!"

    def test_llc_eviction_invalidates_l1_copies(self):
        h, _, _ = make_hierarchy()
        h.store(0, 0, b"X", 0.0)
        for i in range(1, 9):
            load(h, 1, i * 512, 1, float(i))
        # Inclusion: once the LLC dropped line 0, no L1 may hold it.
        if h.llc.lookup(0) is None:
            assert h.l1s[0].lookup(0) is None


class TestCLWB:
    def test_clwb_writes_newest_data(self):
        h, nvram, _ = make_hierarchy()
        h.store(0, 64, b"COMMITME", 0.0)
        completion = h.clwb(0, 64, 1.0)
        assert completion is not None
        assert nvram.read(64, 8) == b"COMMITME"

    def test_clwb_clean_line_is_noop(self):
        h, _, _ = make_hierarchy()
        load(h, 0, 64, 8, 0.0)
        assert h.clwb(0, 64, 1.0) is None

    def test_clwb_keeps_line_cached_clean(self):
        h, _, _ = make_hierarchy()
        h.store(0, 64, b"DATA", 0.0)
        h.clwb(0, 64, 1.0)
        line = h.l1s[0].lookup(64)
        assert line is not None
        assert not line.dirty
        assert not h.is_line_dirty(64)

    def test_clwb_respects_log_release(self):
        h, _, _ = make_hierarchy()
        h.store(0, 64, b"DATA", 0.0)
        h.set_log_release(0, 64, 5000.0)
        completion = h.clwb(0, 64, 1.0)
        assert completion > 5000.0


class TestScanTax:
    def test_debt_paid_one_cycle_at_a_time(self):
        h, _, stats = make_hierarchy()
        load(h, 0, 0, 8, 0.0)
        base = load(h, 0, 0, 8, 1.0)[0]
        h.add_scan_debt(2.0)
        taxed = load(h, 0, 0, 8, 2.0)[0]
        assert taxed == base + 1.0
        assert stats.fwb_tax_cycles == 1.0
        load(h, 0, 0, 8, 3.0)
        assert h.scan_debt == 0.0


class TestCrash:
    def test_drop_all_clears_everything(self):
        h, _, _ = make_hierarchy()
        h.store(0, 0, b"GONE", 0.0)
        h.drop_all()
        assert h.l1s[0].occupancy == 0
        assert h.llc.occupancy == 0
        assert not h.is_line_dirty(0)
