"""Property-based tests for the persistent data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.design import NON_PERS
from repro.workloads.base import SetupAccessor
from repro.workloads.btree import BTreeWorkload
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.rbtree import RBTreeWorkload
from repro.txn.heap import PersistentHeap
from tests.conftest import make_pm

key_ops = st.lists(st.integers(0, 47), min_size=1, max_size=120)


def fresh(workload_cls, **kwargs):
    pm = make_pm(NON_PERS)
    workload = workload_cls(seed=1, **kwargs)
    workload.setup(pm)
    return pm, workload, SetupAccessor(pm)


class TestRBTreeProperties:
    @given(keys=key_ops)
    @settings(max_examples=30, deadline=None)
    def test_toggle_semantics_and_invariants(self, keys):
        _pm, w, acc = fresh(RBTreeWorkload, keys_per_partition=48)
        model = {key for key, flag in enumerate(w._resident[0]) if flag}
        for key in keys:
            if key in model:
                assert w.delete(acc, 0, key)
                model.discard(key)
            else:
                assert w.insert(acc, 0, key, b"v" * 8)
                model.add(key)
        assert w.inorder_keys(acc, 0) == sorted(model)
        w.check_invariants(acc, 0)


class TestBTreeProperties:
    @given(keys=key_ops)
    @settings(max_examples=30, deadline=None)
    def test_toggle_semantics_and_invariants(self, keys):
        _pm, w, acc = fresh(BTreeWorkload, keys_per_partition=48)
        model = {key for key, flag in enumerate(w._resident[0]) if flag}
        for key in keys:
            if key in model:
                assert w.delete(acc, 0, key)
                model.discard(key)
            else:
                assert w.insert(acc, 0, key, b"v" * 8)
                model.add(key)
        assert w.all_keys(acc, 0) == sorted(model)
        w.check_invariants(acc, 0)


class TestHashProperties:
    @given(keys=key_ops)
    @settings(max_examples=30, deadline=None)
    def test_toggle_semantics(self, keys):
        _pm, w, acc = fresh(
            HashTableWorkload, keys_per_partition=48, buckets_per_partition=8
        )
        model = {key for key, flag in enumerate(w._resident[0]) if flag}
        for key in keys:
            if key in model:
                w._remove(acc, 0, key)
                model.discard(key)
            else:
                w._insert(acc, 0, key, b"v" * 8)
                model.add(key)
        for key in range(48):
            assert (w.lookup(acc, 0, key) != b"") == (key in model)


class TestHeapProperties:
    @given(
        sizes=st.lists(st.integers(1, 256), min_size=1, max_size=60),
        free_mask=st.lists(st.booleans(), min_size=60, max_size=60),
    )
    @settings(max_examples=50)
    def test_live_allocations_never_overlap(self, sizes, free_mask):
        heap = PersistentHeap(0x1000, 0x40000)
        live = []
        from repro.utils import align_up

        for size, do_free in zip(sizes, free_mask):
            addr = heap.alloc(size)
            aligned = align_up(size, 8)
            for other_addr, other_size in live:
                assert addr + aligned <= other_addr or other_addr + other_size <= addr
            if do_free:
                heap.free(addr, size)
            else:
                live.append((addr, aligned))
