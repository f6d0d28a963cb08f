"""Tests for the experiment runner and sweep (small configurations)."""

import pytest

from repro.core.design import FWB, NON_PERS
from repro.errors import WorkloadError
from repro.harness.runner import (
    RunConfig,
    default_experiment_config,
    prepare_workload,
    run_workload,
)
from repro.harness.sweep import run_micro_sweep
from repro.workloads.hashtable import HashTableWorkload
from tests.conftest import tiny_system


def small_workload(seed=1):
    return HashTableWorkload(
        seed=seed, buckets_per_partition=16, keys_per_partition=64
    )


class TestRunner:
    def test_run_produces_stats(self):
        outcome = run_workload(
            small_workload(),
            RunConfig(policy=FWB, threads=1, txns_per_thread=20, system=tiny_system()),
        )
        assert outcome.stats.transactions_committed == 20
        assert outcome.throughput > 0
        assert outcome.ipc > 0

    def test_multithreaded_commits_all(self):
        outcome = run_workload(
            small_workload(),
            RunConfig(policy=FWB, threads=2, txns_per_thread=15, system=tiny_system()),
        )
        assert outcome.stats.transactions_committed == 30

    def test_too_many_threads_rejected(self):
        with pytest.raises(WorkloadError):
            run_workload(
                small_workload(),
                RunConfig(policy=FWB, threads=3, system=tiny_system()),
            )

    def test_deterministic(self):
        def run():
            return run_workload(
                small_workload(),
                RunConfig(policy=FWB, threads=2, txns_per_thread=15, system=tiny_system()),
            ).stats

        first, second = run(), run()
        assert first.cycles == second.cycles
        assert first.instructions == second.instructions
        assert first.nvram_write_bytes == second.nvram_write_bytes


class TestPrepared:
    def test_prepared_runs_match_fresh_runs(self):
        workload = small_workload()
        prepared = prepare_workload(workload, tiny_system())
        run = RunConfig(policy=FWB, threads=1, txns_per_thread=20, system=tiny_system())
        first = run_workload(workload, run, prepared=prepared).stats
        second = run_workload(workload, run, prepared=prepared).stats
        assert first.cycles == second.cycles

    def test_prepared_wrong_workload_rejected(self):
        prepared = prepare_workload(small_workload(), tiny_system())
        with pytest.raises(WorkloadError):
            run_workload(
                small_workload(seed=9),
                RunConfig(policy=FWB, system=tiny_system()),
                prepared=prepared,
            )

    def test_default_config_is_valid(self):
        default_experiment_config().validate()


class TestSweep:
    def test_sweep_covers_matrix(self):
        sweep = run_micro_sweep(
            benchmarks=("hash",),
            threads=(1, 2),
            policies=(NON_PERS, FWB),
            txns_per_thread=10,
            system=tiny_system(),
            workload_factory=lambda name: small_workload(),
        )
        assert len(sweep.cells) == 4
        assert sweep.benchmarks() == ["hash"]
        assert sweep.thread_counts() == [1, 2]
        assert sweep.policies() == [NON_PERS, FWB]
        stats = sweep.stats("hash", 1, FWB)
        assert stats.transactions_committed == 10
