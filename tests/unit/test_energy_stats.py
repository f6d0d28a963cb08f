"""Unit tests for repro.sim.energy and repro.sim.stats."""

import dataclasses

import pytest

from repro import Machine
from repro.core.design import FWB
from repro.sim.config import EnergyConfig
from repro.sim.energy import EnergyModel
from repro.sim.stats import MachineStats
from tests.conftest import tiny_system


class TestEnergyModel:
    @pytest.fixture
    def driven(self):
        """A live machine's stats after an L1 (and LLC) miss, a hit on
        the same line and one compute op of five instructions: the
        cache and core energy are what the hierarchy and cores add."""
        machine = Machine(tiny_system(), FWB)
        core = machine.cores[0]
        addr = machine.heap_base
        machine.issue(core, core.exec_load, addr, addr)
        machine.issue(core, core.exec_load, addr, addr)
        machine.issue(core, core.exec_compute, 5)
        stats = machine.stats
        assert (stats.l1_misses, stats.l1_hits, stats.llc_misses) == (1, 1, 1)
        return stats

    def test_row_hit_read_energy(self):
        stats = MachineStats()
        EnergyModel(EnergyConfig(), stats).nvram_read(8, row_hit=True)
        assert stats.energy_nvram_pj == 0.93 * 64

    def test_row_conflict_read_adds_array(self):
        stats = MachineStats()
        EnergyModel(EnergyConfig(), stats).nvram_read(8, row_hit=False)
        assert stats.energy_nvram_pj == (0.93 + 2.47) * 64

    def test_write_always_pays_array(self):
        model = EnergyModel(EnergyConfig(), MachineStats())
        assert model.nvram_write_pj(8) == (1.02 + 16.82) * 64

    def test_write_energy_dominates_read(self):
        stats = MachineStats()
        model = EnergyModel(EnergyConfig(), stats)
        model.nvram_read(64, row_hit=True)
        assert model.nvram_write_pj(64) > 5 * stats.energy_nvram_pj

    def test_cache_levels(self, driven):
        energy = EnergyConfig()
        assert driven.energy_cache_pj == 2 * energy.l1_access_pj + energy.llc_access_pj

    def test_instruction_energy(self, driven):
        assert driven.instructions == 7
        assert driven.energy_core_pj == 7 * EnergyConfig().instruction_pj


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
