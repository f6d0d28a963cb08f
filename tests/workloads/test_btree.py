"""Tests for the B+ tree microbenchmark."""

import random

import pytest

from repro.core.design import NON_PERS
from repro.workloads.base import SetupAccessor
from repro.workloads.btree import BTreeWorkload
from tests.conftest import make_pm


@pytest.fixture
def env():
    pm = make_pm(NON_PERS)
    workload = BTreeWorkload(seed=7, keys_per_partition=128)
    workload.setup(pm)
    return pm, workload, SetupAccessor(pm)


class TestStructure:
    def test_setup_invariants(self, env):
        _pm, w, acc = env
        w.check_invariants(acc, 0)
        assert len(w.all_keys(acc, 0)) == 64

    def test_lookup_present(self, env):
        _pm, w, acc = env
        key = w.all_keys(acc, 0)[5]
        assert w.lookup(acc, 0, key) != b""

    def test_lookup_absent(self, env):
        _pm, w, acc = env
        present = set(w.all_keys(acc, 0))
        missing = next(k for k in range(128) if k not in present)
        assert w.lookup(acc, 0, missing) == b""

    def test_insert_duplicate_returns_false(self, env):
        _pm, w, acc = env
        key = w.all_keys(acc, 0)[0]
        assert w.insert(acc, 0, key, b"v" * 8) is False

    def test_delete_missing_returns_false(self, env):
        _pm, w, acc = env
        present = set(w.all_keys(acc, 0))
        missing = next(k for k in range(128) if k not in present)
        assert w.delete(acc, 0, missing) is False

    def test_splits_on_fill(self, env):
        _pm, w, acc = env
        for key in range(128):
            w.insert(acc, 0, key, b"v" * 8)
        assert w.all_keys(acc, 0) == list(range(128))
        w.check_invariants(acc, 0)

    def test_merges_on_drain(self, env):
        _pm, w, acc = env
        for key in list(w.all_keys(acc, 0)):
            assert w.delete(acc, 0, key)
        assert w.all_keys(acc, 0) == []

    def test_randomized_against_set(self, env):
        _pm, w, acc = env
        rng = random.Random(1234)
        model = set(w.all_keys(acc, 0))
        for step in range(400):
            key = rng.randrange(128)
            if key in model:
                assert w.delete(acc, 0, key)
                model.discard(key)
            else:
                assert w.insert(acc, 0, key, b"v" * 8)
                model.add(key)
            if step % 40 == 0:
                assert w.all_keys(acc, 0) == sorted(model)
                w.check_invariants(acc, 0)
        assert w.all_keys(acc, 0) == sorted(model)
        w.check_invariants(acc, 0)

    def test_values_preserved_across_rebalancing(self, env):
        _pm, w, acc = env
        for key in list(w.all_keys(acc, 0)):
            w.delete(acc, 0, key)
        for key in range(128):
            w.insert(acc, 0, key, bytes([key]) * 8)
        for key in range(0, 128, 2):
            w.delete(acc, 0, key)
        for key in range(1, 128, 2):
            assert w.lookup(acc, 0, key) == bytes([key]) * 8

    def test_partitions_independent(self, env):
        _pm, w, acc = env
        before = w.all_keys(acc, 1)
        for key in range(128):
            w.insert(acc, 0, key, b"v" * 8)
        assert w.all_keys(acc, 1) == before


class TestThreadBody:
    def test_runs_transactions(self, env):
        pm, w, acc = env
        api = pm.api(0)
        for _ in w.thread_body(api, 0, 30):
            pass
        assert pm.machine.stats.transactions_committed == 30
        w.check_invariants(acc, 0)
