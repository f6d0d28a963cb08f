"""Tests for the WHISPER-like kernels and their shared primitives."""

import random

import pytest

from repro.core.design import FWB, NON_PERS
from repro.workloads.base import SetupAccessor
from repro.workloads.whisper import WHISPER_KERNELS, make_whisper_kernel
from repro.workloads.whisper.base import AppendLog, LRUList, ProbingTable
from repro.workloads.whisper.ctree import CTreeKernel
from repro.workloads.whisper.memcached_w import MemcachedKernel
from repro.workloads.whisper.tpcc import TPCCKernel
from tests.conftest import make_pm


class TestRegistry:
    def test_ten_kernels(self):
        assert len(WHISPER_KERNELS) == 10

    def test_make_by_name(self):
        kernel = make_whisper_kernel("ycsb", keys_per_partition=32)
        assert kernel.name == "ycsb"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_whisper_kernel("mongodb")


@pytest.mark.parametrize("name", sorted(WHISPER_KERNELS), ids=str)
class TestAllKernelsRun:
    def test_runs_under_fwb(self, name):
        small = {
            "ctree": dict(keys_per_partition=64),
            "hashmap": dict(keys_per_partition=64),
            "echo": dict(keys_per_partition=64),
            "exim": dict(spool_slots=64),
            "memcached": dict(keys_per_partition=64),
            "nfs": dict(files_per_partition=64),
            "redis": dict(keys_per_partition=64),
            "tpcc": dict(items_per_partition=64),
            "vacation": dict(records_per_table=64),
            "ycsb": dict(keys_per_partition=64),
        }
        pm = make_pm(FWB)
        kernel = make_whisper_kernel(name, seed=2, **small[name])
        kernel.setup(pm)
        api = pm.api(0)
        for _ in kernel.thread_body(api, 0, 15):
            pass
        stats = pm.machine.finalize()
        assert stats.transactions_committed == 15
        assert stats.log_records > 0  # every kernel persists something


SMALL_KW = {
    "ctree": dict(keys_per_partition=64),
    "hashmap": dict(keys_per_partition=64),
    "echo": dict(keys_per_partition=64),
    "exim": dict(spool_slots=64),
    "memcached": dict(keys_per_partition=64),
    "nfs": dict(files_per_partition=64),
    "redis": dict(keys_per_partition=64),
    "tpcc": dict(items_per_partition=64),
    "vacation": dict(records_per_table=64),
    "ycsb": dict(keys_per_partition=64),
}


@pytest.mark.parametrize("name", sorted(WHISPER_KERNELS), ids=str)
class TestTraceCompilableContract:
    """Every WHISPER kernel honours the ``Workload.thread_body`` contract.

    Partitioned by ``tid % MAX_PARTITIONS``, deterministic per
    ``(seed, tid)``, accessor-only persistent state, and volatile run
    state reset by :meth:`Workload.reset_run_state` — so a prepared
    instance replays identically and the compiled trace is
    bit-equivalent to interpretation.
    """

    def _prepared(self, name):
        from repro.harness.runner import prepare_workload
        from tests.conftest import tiny_system

        kernel = make_whisper_kernel(name, seed=2, **SMALL_KW[name])
        return prepare_workload(kernel, tiny_system())

    def test_rerun_is_deterministic(self, name):
        """Two interpreted runs of the same prepared instance must agree
        — this is exactly what stale AppendLog cursors used to break."""
        import dataclasses

        from repro.core.design import DESIGNS
        from repro.harness.runner import RunConfig, run_workload

        prepared = self._prepared(name)
        config = RunConfig(
            policy=DESIGNS.resolve("hwl"),
            threads=2,
            txns_per_thread=8,
            system=prepared.system,
        )
        first = run_workload(prepared.workload, config, prepared=prepared)
        second = run_workload(prepared.workload, config, prepared=prepared)
        assert dataclasses.asdict(first.stats) == dataclasses.asdict(
            second.stats
        )

    def test_compiled_replay_matches_interpretation(self, name):
        import dataclasses

        from repro.core.design import DESIGNS
        from repro.harness.runner import RunConfig, run_workload
        from repro.sim.replay import compile_trace, run_compiled

        prepared = self._prepared(name)
        trace = compile_trace(prepared, 2, 8)
        config = RunConfig(
            policy=DESIGNS.resolve("hwl"),
            threads=2,
            txns_per_thread=8,
            system=prepared.system,
        )
        interpreted = run_workload(prepared.workload, config, prepared=prepared)
        replayed = run_compiled(trace, config)
        assert dataclasses.asdict(interpreted.stats) == dataclasses.asdict(
            replayed.stats
        )


class TestProbingTable:
    @pytest.fixture
    def table_env(self):
        pm = make_pm(NON_PERS)
        kernel = make_whisper_kernel("ycsb", keys_per_partition=16)
        kernel.setup(pm)
        return kernel.table, SetupAccessor(pm)

    def test_get_after_setup(self, table_env):
        table, acc = table_env
        assert table.get(acc, 0, 1) != b""

    def test_put_updates(self, table_env):
        table, acc = table_env
        table.put(acc, 0, 1, b"X" * 8)
        assert table.get(acc, 0, 1) == b"X" * 8

    def test_get_missing(self, table_env):
        table, acc = table_env
        assert table.get(acc, 0, 999) == b""

    def test_remove(self, table_env):
        table, acc = table_env
        assert table.remove(acc, 0, 1)
        assert table.get(acc, 0, 1) == b""
        assert not table.remove(acc, 0, 1)

    def test_probing_handles_collisions(self, table_env):
        table, acc = table_env
        rng = random.Random(4)
        values = {}
        for key in range(1, 17):
            value = bytes([rng.randrange(256)]) * 8
            table.put(acc, 0, key, value)
            values[key] = value
        for key, value in values.items():
            assert table.get(acc, 0, key) == value


class TestLRUList:
    @pytest.fixture
    def lru_env(self):
        pm = make_pm(NON_PERS)
        kernel = MemcachedKernel(seed=2, keys_per_partition=8)
        kernel.setup(pm)
        return kernel.lru, SetupAccessor(pm)

    def test_initial_chain(self, lru_env):
        lru, acc = lru_env
        assert lru.chain_tags(acc, 0) == list(range(8))

    def test_move_to_front(self, lru_env):
        lru, acc = lru_env
        lru.move_to_front(acc, 0, 5)
        assert lru.head_tag(acc, 0) == 5
        assert sorted(lru.chain_tags(acc, 0)) == list(range(8))

    def test_move_head_is_noop(self, lru_env):
        lru, acc = lru_env
        lru.move_to_front(acc, 0, 0)
        assert lru.chain_tags(acc, 0) == list(range(8))

    def test_move_tail(self, lru_env):
        lru, acc = lru_env
        lru.move_to_front(acc, 0, 7)
        tags = lru.chain_tags(acc, 0)
        assert tags[0] == 7 and len(tags) == 8


class TestTPCC:
    def test_stock_conserves_units(self):
        pm = make_pm(NON_PERS)
        kernel = TPCCKernel(seed=2, items_per_partition=32)
        kernel.setup(pm)
        acc = SetupAccessor(pm)
        api = pm.api(0)
        for _ in kernel.thread_body(api, 0, 10):
            pass
        pm.machine.hierarchy.flush_all(api.now)
        for item in range(32):
            quantity, ytd = kernel.stock_state(acc, 0, item)
            assert quantity > 0
        total_ytd = sum(kernel.stock_state(acc, 0, i)[1] for i in range(32))
        assert total_ytd > 0  # order lines recorded

    def test_write_intensity_exceeds_vacation(self):
        """tpcc writes far more persistent data per txn than vacation
        (the contrast Figure 10 builds on)."""

        def log_records(name, **kw):
            pm = make_pm(FWB)
            kernel = make_whisper_kernel(name, seed=2, **kw)
            kernel.setup(pm)
            api = pm.api(0)
            for _ in kernel.thread_body(api, 0, 10):
                pass
            return pm.machine.stats.log_records

        assert log_records("tpcc", items_per_partition=64) > 2 * log_records(
            "vacation", records_per_table=64
        )


class TestCTree:
    def test_matches_set_model(self):
        pm = make_pm(NON_PERS)
        kernel = CTreeKernel(seed=2, keys_per_partition=32)
        kernel.setup(pm)
        acc = SetupAccessor(pm)
        rng = random.Random(8)
        model = {key for key, flag in enumerate(kernel._resident[0]) if flag}
        for _ in range(200):
            key = rng.randrange(1, 33)
            if key in model:
                assert kernel.remove(acc, 0, key)
                model.discard(key)
            else:
                assert kernel.insert(acc, 0, key, 1)
                model.add(key)
        for key in range(1, 33):
            assert kernel.contains(acc, 0, key) == (key in model)
