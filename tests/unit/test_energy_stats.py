"""Unit tests for repro.sim.energy and repro.sim.stats."""

import dataclasses

from repro.sim.config import EnergyConfig
from repro.sim.energy import EnergyModel
from repro.sim.stats import MachineStats


class TestEnergyModel:
    def test_row_hit_read_energy(self):
        stats = MachineStats()
        EnergyModel(EnergyConfig(), stats).nvram_read(8, row_hit=True)
        assert stats.energy_nvram_pj == 0.93 * 64

    def test_row_conflict_read_adds_array(self):
        stats = MachineStats()
        EnergyModel(EnergyConfig(), stats).nvram_read(8, row_hit=False)
        assert stats.energy_nvram_pj == (0.93 + 2.47) * 64

    def test_write_always_pays_array(self):
        stats = MachineStats()
        model = EnergyModel(EnergyConfig(), stats)
        model.nvram_write(8, row_hit=True)
        hit_energy = stats.energy_nvram_pj
        assert hit_energy == (1.02 + 16.82) * 64

    def test_write_energy_dominates_read(self):
        s1, s2 = MachineStats(), MachineStats()
        EnergyModel(EnergyConfig(), s1).nvram_write(64, row_hit=True)
        EnergyModel(EnergyConfig(), s2).nvram_read(64, row_hit=True)
        assert s1.energy_nvram_pj > 5 * s2.energy_nvram_pj

    def test_cache_levels(self):
        stats = MachineStats()
        model = EnergyModel(EnergyConfig(), stats)
        model.cache_access("l1")
        l1 = stats.energy_cache_pj
        model.cache_access("llc")
        assert stats.energy_cache_pj - l1 > l1

    def test_instruction_energy(self):
        stats = MachineStats()
        EnergyModel(EnergyConfig(), stats).instructions(10)
        assert stats.energy_core_pj == 700.0


class TestMachineStats:
    def test_ipc_zero_when_idle(self):
        assert MachineStats().ipc == 0.0

    def test_ipc(self):
        stats = MachineStats(instructions=100, cycles=50.0)
        assert stats.ipc == 2.0

    def test_throughput(self):
        stats = MachineStats(transactions_committed=10, cycles=1e6)
        assert stats.throughput == 10.0

    def test_throughput_zero_cycles(self):
        assert MachineStats(transactions_committed=5).throughput == 0.0

    def test_traffic_sum(self):
        stats = MachineStats(nvram_read_bytes=10, nvram_write_bytes=20)
        assert stats.nvram_traffic_bytes == 30

    def test_l1_hit_rate(self):
        stats = MachineStats(l1_hits=3, l1_misses=1)
        assert stats.l1_hit_rate == 0.75

    def test_l1_hit_rate_no_accesses(self):
        assert MachineStats().l1_hit_rate == 0.0

    def test_total_energy_sums_components(self):
        stats = MachineStats(
            energy_nvram_pj=1.0, energy_cache_pj=2.0, energy_core_pj=3.0
        )
        assert stats.total_dynamic_energy_pj == 6.0
        assert stats.memory_dynamic_energy_pj == 1.0

    def test_per_core_recording(self):
        stats = MachineStats()
        stats.record_core(0, 100, 50.0)
        stats.record_core(1, 200, 75.0)
        assert stats.per_core_instructions == {0: 100, 1: 200}
        assert stats.per_core_cycles[1] == 75.0

    def test_snapshot_keys(self):
        stats = MachineStats()
        for index, f in enumerate(dataclasses.fields(MachineStats)):
            if isinstance(getattr(stats, f.name), (int, float)):
                setattr(stats, f.name, type(getattr(stats, f.name))(index + 1))
        snapshot = stats.snapshot()
        for key in ("instructions", "cycles", "ipc", "throughput_per_mcycle"):
            assert key in snapshot
        scalars = [
            f.name
            for f in dataclasses.fields(MachineStats)
            if isinstance(getattr(stats, f.name), (int, float))
        ]
        assert "log_buffer_stall_cycles" in scalars and "design_switches" in scalars
        for name in scalars:
            assert snapshot[name] == getattr(stats, name), name
