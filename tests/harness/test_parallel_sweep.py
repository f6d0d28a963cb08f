"""Parallel sweep execution: determinism, prepared-state identity, and
the self-healing retry/fallback machinery."""

import pickle

from repro.core.design import FWB, HWL, NON_PERS, UNDO_CLWB
from repro.harness import parallel
from repro.harness.parallel import ENV_FAULT_DIR, SweepHealth
from repro.harness.runner import (
    RunConfig,
    prepare_workload,
    run_workload,
)
from repro.harness.sweep import run_micro_sweep
from repro.workloads.hashtable import HashTableWorkload
from tests.conftest import tiny_system

POLICIES = (NON_PERS, UNDO_CLWB, FWB)


def small_workload(seed=1):
    return HashTableWorkload(
        seed=seed, buckets_per_partition=16, keys_per_partition=64
    )


def small_factory(name):
    return small_workload()


def sweep_kwargs(**overrides):
    kw = dict(
        benchmarks=("hash",),
        threads=(1, 2),
        policies=POLICIES,
        txns_per_thread=15,
        system=tiny_system(),
        workload_factory=small_factory,
    )
    kw.update(overrides)
    return kw


class TestParallelDeterminism:
    def test_jobs2_bit_identical_to_serial(self):
        serial = run_micro_sweep(**sweep_kwargs())
        parallel = run_micro_sweep(**sweep_kwargs(), jobs=2)
        assert list(parallel.cells) == list(serial.cells)  # canonical order
        for cell in serial.cells:
            assert parallel.cells[cell] == serial.cells[cell], cell

    def test_jobs1_uses_in_process_loop(self):
        # jobs=1 must not spin up a pool: identical results and the
        # parallel module is never imported into the sweep path.
        result = run_micro_sweep(**sweep_kwargs(), jobs=1)
        assert len(result.cells) == 2 * len(POLICIES)


class TestPreparedShipping:
    def test_pickle_round_trip_restores_image(self):
        prepared = prepare_workload(small_workload(), tiny_system())
        clone = pickle.loads(pickle.dumps(prepared))
        assert clone.image == prepared.image
        assert clone.heap_state == prepared.heap_state
        assert clone.workload.identity_key() == prepared.workload.identity_key()

    def test_pickled_prepared_runs_identically(self):
        prepared = prepare_workload(small_workload(), tiny_system())
        clone = pickle.loads(pickle.dumps(prepared))
        run = RunConfig(
            policy=FWB, threads=2, txns_per_thread=15, system=tiny_system()
        )
        # The clone is a different object with the same identity key.
        direct = run_workload(small_workload(), run, prepared=prepared).stats
        shipped = run_workload(small_workload(), run, prepared=clone).stats
        assert shipped == direct

    def test_equivalent_fresh_workload_accepted(self):
        # Identity is by configuration, not object id: a fresh workload
        # with equal public attributes may use the prepared state.
        prepared = prepare_workload(small_workload(), tiny_system())
        outcome = run_workload(
            small_workload(),
            RunConfig(
                policy=HWL, threads=1, txns_per_thread=10, system=tiny_system()
            ),
            prepared=prepared,
        )
        assert outcome.stats.transactions_committed == 10


class TestSelfHealing:
    """Injected worker faults must heal without changing any result.

    The fault hook (``REPRO_SWEEP_FAULT_DIR``) is consulted only by
    worker processes, so the serial baseline and the serial fallback are
    immune by construction; every healed sweep must therefore be
    bit-identical to the clean serial run.
    """

    def _serial_baseline(self):
        return run_micro_sweep(**sweep_kwargs())

    def test_worker_death_is_retried_bit_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_FAULT_DIR, str(tmp_path))
        monkeypatch.setattr(parallel, "RETRY_BACKOFF", 0.05)
        # Exactly one death: the worker consumes the file before dying,
        # so the retry round runs the cell cleanly.
        (tmp_path / "kill-hash-1-fwb").touch()
        health = SweepHealth()
        healed = run_micro_sweep(**sweep_kwargs(), jobs=2, health=health)
        serial = self._serial_baseline()
        assert list(healed.cells) == list(serial.cells)
        for cell in serial.cells:
            assert healed.cells[cell] == serial.cells[cell], cell
        assert health.worker_deaths >= 1
        assert health.retry_rounds >= 1
        assert health.serial_fallback_cells == 0
        assert health.degraded
        assert "worker death" in health.summary()

    def test_hung_worker_recovers_serially(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_FAULT_DIR, str(tmp_path))
        monkeypatch.setattr(parallel, "MAX_RETRIES", 0)
        # The hang file persists, so every pool attempt wedges on this
        # cell; only the serial fallback (which skips the hook) finishes.
        (tmp_path / "hang-hash-1-fwb").touch()
        health = SweepHealth()
        healed = run_micro_sweep(
            **sweep_kwargs(), jobs=2, cell_timeout=1.0, health=health
        )
        serial = self._serial_baseline()
        for cell in serial.cells:
            assert healed.cells[cell] == serial.cells[cell], cell
        assert health.timeouts >= 1
        assert health.serial_fallback_cells == 1

    def test_health_merge_and_clean_summary(self):
        health = SweepHealth()
        assert not health.degraded
        assert "clean" in health.summary()
        other = SweepHealth(worker_deaths=1, timeouts=2, retry_rounds=3)
        health.merge(other)
        assert (health.worker_deaths, health.timeouts, health.retry_rounds) == (
            1,
            2,
            3,
        )
