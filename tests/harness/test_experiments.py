"""Tests for the per-figure experiment definitions (small sizes)."""

import pytest

from repro import SystemConfig
from repro.core.design import FWB, REDO_CLWB, UNDO_CLWB, UNSAFE_BASE
from repro.harness.experiments import (
    figure6_throughput,
    figure7_ipc_instructions,
    figure8_energy,
    figure9_write_traffic,
    figure10_whisper,
    figure11a_log_buffer,
    figure11b_fwb_frequency,
    summarize_fwb_gain,
    table1_hardware_overhead,
    table2_configuration,
    table3_microbenchmarks,
)
from repro.harness.sweep import run_micro_sweep
from repro.workloads.hashtable import HashTableWorkload
from tests.conftest import tiny_system


@pytest.fixture(scope="module")
def sweep():
    return run_micro_sweep(
        benchmarks=("hash",),
        threads=(1,),
        txns_per_thread=60,
        system=tiny_system(num_cores=2),
        workload_factory=lambda name: HashTableWorkload(
            seed=1, buckets_per_partition=16, keys_per_partition=64
        ),
    )


class TestFigureExtracts:
    def test_figure6_normalized_to_unsafe(self, sweep):
        result = figure6_throughput(sweep)
        cell = result.data[("hash", 1)]
        assert cell[UNSAFE_BASE] == pytest.approx(1.0)
        assert "unsafe-base" in result.rendered

    def test_figure7_has_both_metrics(self, sweep):
        result = figure7_ipc_instructions(sweep)
        assert set(result.data) == {"ipc", "instructions"}
        instr = result.data["instructions"][("hash", 1)]
        assert instr[FWB] < instr[UNDO_CLWB]

    def test_figure8_energy_ratios(self, sweep):
        result = figure8_energy(sweep)
        cell = result.data[("hash", 1)]
        assert cell[UNSAFE_BASE] == pytest.approx(1.0)
        assert cell[FWB] >= cell[UNDO_CLWB]

    def test_figure9_traffic_ratios(self, sweep):
        result = figure9_write_traffic(sweep)
        cell = result.data[("hash", 1)]
        assert cell[FWB] >= cell[REDO_CLWB]

    def test_summarize_gain_positive(self, sweep):
        assert summarize_fwb_gain(sweep, 1) > 1.0


class TestFigure10:
    def test_runs_one_kernel(self):
        result = figure10_whisper(
            kernels=("ycsb",),
            policies=(UNSAFE_BASE, FWB),
            txns_per_thread=20,
            system=tiny_system(num_cores=2),
        )
        cell = result.data[("ycsb", FWB)]
        assert set(cell) == {"ipc", "memory_energy", "throughput", "nvram_writes"}
        assert result.data[("ycsb", UNSAFE_BASE)]["ipc"] == pytest.approx(1.0)


class TestFigure11:
    def test_log_buffer_sweep_shape(self):
        result = figure11a_log_buffer(
            sizes=(0, 8),
            txns_per_thread=40,
            system=tiny_system(num_cores=2),
            workload_factory=lambda: HashTableWorkload(
                seed=1, buckets_per_partition=16, keys_per_partition=64
            ),
        )
        assert result.data[0] == pytest.approx(1.0)
        assert result.data[8] >= 0.95  # buffering never drastically hurts

    def test_fwb_frequency_inverse_in_log_size(self):
        result = figure11b_fwb_frequency(log_sizes=(64, 128, 65536))
        assert result.data[64] > result.data[128] > result.data[65536]
        assert result.data[64] == pytest.approx(result.data[128] * 2)

    def test_paper_running_example_interval(self):
        result = figure11b_fwb_frequency(log_sizes=(65536,))
        interval = 1.0 / result.data[65536]
        assert 2e6 < interval < 4e6  # ~3M cycles for the 4 MB log


class TestTables:
    def test_table1_matches_paper_sizes(self):
        result = table1_hardware_overhead(SystemConfig())
        assert result.data["Transaction ID register"] == 1
        assert result.data["Log head pointer register"] == 8
        assert result.data["Log tail pointer register"] == 8
        # 15 entries x 64 B = 960 B (the paper reports 964 B).
        assert result.data["Log buffer (optional)"] == 960

    def test_table2_renders_table_ii(self):
        text = table2_configuration().rendered
        assert "2.5 GHz" in text
        assert "8 banks" in text

    def test_table3_lists_five_microbenchmarks(self):
        result = table3_microbenchmarks()
        names = [row[0] for row in result.rows]
        assert names == ["hash", "rbtree", "sps", "btree", "ssca2"]
        footprints = {row[0]: row[1] for row in result.rows}
        assert footprints["sps"] == "1 GB"
        assert footprints["ssca2"] == "16 MB"
