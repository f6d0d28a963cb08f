"""Tests for the red-black tree microbenchmark."""

import random

import pytest

from repro.core.design import NON_PERS
from repro.workloads.base import SetupAccessor
from repro.workloads.rbtree import RBTreeWorkload
from tests.conftest import make_pm


@pytest.fixture
def env():
    pm = make_pm(NON_PERS)
    workload = RBTreeWorkload(seed=5, keys_per_partition=64)
    workload.setup(pm)
    return pm, workload, SetupAccessor(pm)


class TestStructure:
    def test_setup_invariants(self, env):
        _pm, w, acc = env
        w.check_invariants(acc, 0)
        assert len(w.inorder_keys(acc, 0)) == 32

    def test_inorder_sorted(self, env):
        _pm, w, acc = env
        keys = w.inorder_keys(acc, 0)
        assert keys == sorted(keys)

    def test_insert_duplicate_returns_false(self, env):
        _pm, w, acc = env
        key = w.inorder_keys(acc, 0)[0]
        assert w.insert(acc, 0, key, b"x" * 8) is False

    def test_delete_missing_returns_false(self, env):
        _pm, w, acc = env
        missing = next(k for k in range(64) if w.find(acc, 0, k) == 0)
        assert w.delete(acc, 0, missing) is False

    def test_insert_then_find(self, env):
        _pm, w, acc = env
        missing = next(k for k in range(64) if w.find(acc, 0, k) == 0)
        assert w.insert(acc, 0, missing, b"v" * 8)
        assert w.find(acc, 0, missing) != 0
        w.check_invariants(acc, 0)

    def test_randomized_insert_delete_matches_set(self, env):
        """Fuzz against a Python set; invariants hold at every step."""
        _pm, w, acc = env
        rng = random.Random(99)
        model = set(w.inorder_keys(acc, 0))
        for step in range(300):
            key = rng.randrange(64)
            if key in model:
                assert w.delete(acc, 0, key)
                model.discard(key)
            else:
                assert w.insert(acc, 0, key, b"v" * 8)
                model.add(key)
            if step % 25 == 0:
                w.check_invariants(acc, 0)
                assert w.inorder_keys(acc, 0) == sorted(model)
        w.check_invariants(acc, 0)
        assert w.inorder_keys(acc, 0) == sorted(model)

    def test_drain_to_empty(self, env):
        _pm, w, acc = env
        for key in list(w.inorder_keys(acc, 0)):
            assert w.delete(acc, 0, key)
        assert w.inorder_keys(acc, 0) == []
        assert w.check_invariants(acc, 0) == 0

    def test_fill_completely(self, env):
        _pm, w, acc = env
        for key in range(64):
            w.insert(acc, 0, key, b"v" * 8)
        assert w.inorder_keys(acc, 0) == list(range(64))
        w.check_invariants(acc, 0)


class TestThreadBody:
    def test_runs_transactions(self, env):
        pm, w, _acc = env
        api = pm.api(0)
        for _ in w.thread_body(api, 0, 20):
            pass
        assert pm.machine.stats.transactions_committed == 20

    def test_invariants_after_timed_run(self, env):
        pm, w, acc = env
        api = pm.api(0)
        for _ in w.thread_body(api, 0, 50):
            pass
        w.check_invariants(acc, 0)
