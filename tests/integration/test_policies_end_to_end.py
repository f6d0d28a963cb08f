"""End-to-end behaviour of all eight designs on a real workload.

These tests pin the paper's *qualitative* claims — who is faster, who
executes more instructions, who writes more NVRAM — on a small hash
workload.  The quantitative reproduction lives in benchmarks/.
"""

import pytest

from repro.core.design import (
    CANONICAL_DESIGNS,
    FWB,
    HWL,
    HW_RLOG,
    HW_ULOG,
    NON_PERS,
    REDO_CLWB,
    UNDO_CLWB,
    UNSAFE_BASE,
)
from repro.harness.runner import RunConfig, prepare_workload, run_workload
from repro.workloads.hashtable import HashTableWorkload
from tests.conftest import tiny_system


@pytest.fixture(scope="module")
def results():
    system = tiny_system(num_cores=2)
    workload = HashTableWorkload(seed=1, buckets_per_partition=32, keys_per_partition=256)
    prepared = prepare_workload(workload, system)
    stats = {}
    for policy in CANONICAL_DESIGNS:
        outcome = run_workload(
            workload,
            RunConfig(policy=policy, threads=1, txns_per_thread=150, system=system),
            prepared=prepared,
        )
        stats[policy] = outcome.stats
    return stats


class TestThroughputOrdering:
    def test_non_pers_is_fastest(self, results):
        best = max(results.values(), key=lambda s: s.throughput)
        assert best is results[NON_PERS]

    def test_fwb_beats_software_clwb(self, results):
        assert results[FWB].throughput > results[REDO_CLWB].throughput
        assert results[FWB].throughput > results[UNDO_CLWB].throughput

    def test_hwl_beats_software_clwb(self, results):
        best_sw = max(
            results[REDO_CLWB].throughput,
            results[UNDO_CLWB].throughput,
        )
        assert results[HWL].throughput > best_sw

    def test_fwb_at_least_hwl(self, results):
        assert results[FWB].throughput >= results[HWL].throughput

    def test_clwb_degrades_versus_unsafe(self, results):
        assert results[UNDO_CLWB].throughput < results[UNSAFE_BASE].throughput


class TestInstructionCounts:
    def test_software_logging_doubles_instructions(self, results):
        non_pers = results[NON_PERS].instructions
        for policy in (UNSAFE_BASE, REDO_CLWB, UNDO_CLWB):
            assert results[policy].instructions > 1.7 * non_pers

    def test_hardware_logging_near_non_pers(self, results):
        non_pers = results[NON_PERS].instructions
        for policy in (HW_RLOG, HW_ULOG, HWL, FWB):
            assert results[policy].instructions < 1.5 * non_pers

    def test_hw_logging_emits_zero_logging_instructions(self, results):
        """HWL generates log *records* without log *instructions*: the
        instruction stream of fwb equals hw-rlog's exactly."""
        assert results[FWB].instructions == results[HW_RLOG].instructions


class TestTrafficAndEnergy:
    def test_non_pers_writes_least(self, results):
        for policy in CANONICAL_DESIGNS:
            if policy is not NON_PERS:
                assert (
                    results[policy].nvram_write_bytes
                    >= results[NON_PERS].nvram_write_bytes
                )

    def test_clwb_designs_write_most(self, results):
        assert (
            results[UNDO_CLWB].nvram_write_bytes
            > results[FWB].nvram_write_bytes
        )

    def test_log_records_only_under_logging(self, results):
        assert results[NON_PERS].log_records == 0
        for policy in CANONICAL_DESIGNS:
            if policy is not NON_PERS:
                assert results[policy].log_records > 0

    def test_memory_energy_tracks_traffic(self, results):
        assert (
            results[UNDO_CLWB].memory_dynamic_energy_pj
            > results[FWB].memory_dynamic_energy_pj
            > results[NON_PERS].memory_dynamic_energy_pj
        )


class TestCommitSemantics:
    def test_all_policies_commit_everything(self, results):
        for policy, stats in results.items():
            assert stats.transactions_committed == 150, policy

    def test_fwb_scanner_ran_only_under_fwb(self, results):
        assert results[FWB].fwb_scans >= 0
        for policy in CANONICAL_DESIGNS:
            if policy is not FWB:
                assert results[policy].fwb_scans == 0

    def test_clwb_counts(self, results):
        for policy in (REDO_CLWB, UNDO_CLWB, HWL):
            assert results[policy].clwb_count > 0
        for policy in (NON_PERS, UNSAFE_BASE, FWB):
            assert results[policy].clwb_count == 0

    def test_fences_only_in_software_protocols(self, results):
        assert results[FWB].fence_stall_cycles == 0
        assert results[HWL].fence_stall_cycles == 0
        assert results[UNDO_CLWB].fence_stall_cycles > 0
