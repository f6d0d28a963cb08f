"""Tests for the hash microbenchmark (structure correctness + trace)."""

import pytest

from repro.core.design import NON_PERS
from repro.workloads.base import SetupAccessor
from repro.workloads.hashtable import HashTableWorkload
from tests.conftest import make_pm


@pytest.fixture
def env():
    pm = make_pm(NON_PERS)
    workload = HashTableWorkload(
        seed=3, buckets_per_partition=8, keys_per_partition=64
    )
    workload.setup(pm)
    return pm, workload, SetupAccessor(pm)


class TestStructure:
    def test_setup_populates_half(self, env):
        _pm, w, acc = env
        present = sum(1 for k in range(64) if w.lookup(acc, 0, k) != b"")
        assert present == 32

    def test_insert_then_lookup(self, env):
        _pm, w, acc = env
        missing = next(k for k in range(64) if w.lookup(acc, 0, k) == b"")
        w._insert(acc, 0, missing, b"VALUE!!!")
        assert w.lookup(acc, 0, missing) == b"VALUE!!!"

    def test_remove_unlinks(self, env):
        _pm, w, acc = env
        present = next(k for k in range(64) if w.lookup(acc, 0, k) != b"")
        w._remove(acc, 0, present)
        assert w.lookup(acc, 0, present) == b""

    def test_chain_collisions_preserved(self, env):
        _pm, w, acc = env
        # Insert several keys into the same bucket.
        bucket_addr = w._bucket_addr(0, 0)
        same_bucket = [
            k for k in range(64) if w._bucket_addr(0, k) == bucket_addr
        ][:3]
        for k in same_bucket:
            if w.lookup(acc, 0, k) == b"":
                w._insert(acc, 0, k, bytes([k] * 8))
        for k in same_bucket:
            assert w.lookup(acc, 0, k) != b""

    def test_partitions_independent(self, env):
        _pm, w, acc = env
        key = next(k for k in range(64) if w.lookup(acc, 1, k) == b"")
        w._insert(acc, 1, key, b"PART1!!!")
        assert w.lookup(acc, 1, key) == b"PART1!!!"

    def test_string_variant_value_size(self):
        w = HashTableWorkload(value_kind="string")
        assert w.value_size == 96
        assert w.node_size == 112


class TestThreadBody:
    def test_runs_and_matches_model(self, env):
        pm, w, acc = env
        api = pm.api(0)
        model = {key for key, flag in enumerate(w._resident[0]) if flag}
        steps = 0
        for _ in w.thread_body(api, 0, 30):
            steps += 1
        assert steps == 30
        assert pm.machine.stats.transactions_committed == 30

    def test_structure_consistent_after_run(self, env):
        pm, w, acc = env
        api = pm.api(0)
        for _ in w.thread_body(api, 0, 40):
            pass
        pm.machine.hierarchy.flush_all(api.now)
        # Replay the same RNG stream to predict final membership.
        from repro.workloads.rng import thread_rng

        rng = thread_rng(w.seed, 0)
        resident = {key for key, flag in enumerate(w._resident[0]) if flag}
        for _ in range(40):
            key = rng.randrange(w.keys_per_partition)
            if key in resident:
                resident.discard(key)
            else:
                resident.add(key)
        for key in range(w.keys_per_partition):
            stored = w.lookup(acc, 0, key) != b""
            assert stored == (key in resident), key
