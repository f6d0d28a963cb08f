"""Tests for transaction-deferred, thread-local allocation recycling.

A block freed inside a transaction must not be reusable by another
thread before the freeing transaction commits — otherwise the reuser's
log records race with the freer's undo records and recovery can roll a
committed write back.  (This policy exists because the race was actually
observed; see EXPERIMENTS.md.)
"""

from tests.conftest import make_pm
from repro.core.design import FWB


class TestDeferredFree:
    def test_free_inside_txn_not_reusable_until_commit(self):
        pm = make_pm(FWB)
        api = pm.api(0)
        addr = api.alloc(32)
        api.tx_begin()
        api.free(addr, 32)
        # Still quarantined: a new allocation must not reuse it.
        other = api.alloc(32)
        assert other != addr
        api.tx_commit()
        # Released at commit: now it recycles.
        assert api.alloc(32) == addr

    def test_free_outside_txn_recycles_immediately(self):
        pm = make_pm(FWB)
        api = pm.api(0)
        addr = api.alloc(32)
        api.free(addr, 32)
        assert api.alloc(32) == addr

    def test_recycling_is_thread_local(self):
        pm = make_pm(FWB)
        api0 = pm.api(0, 0)
        api1 = pm.api(1, 1)
        addr = api0.alloc(32)
        api0.free(addr, 32)
        # The other thread must not see thread 0's recycled block.
        assert api1.alloc(32) != addr
        assert api0.alloc(32) == addr

    def test_sizes_are_classed(self):
        pm = make_pm(FWB)
        api = pm.api(0)
        addr = api.alloc(32)
        api.free(addr, 32)
        assert api.alloc(64) != addr

    def test_alignment_matches_heap(self):
        pm = make_pm(FWB)
        api = pm.api(0)
        small = api.alloc(3)
        api.free(small, 3)
        # 3 bytes aligns up to 8: an 8-byte alloc reuses it.
        assert api.alloc(8) == small

    def test_multiple_frees_accumulate(self):
        pm = make_pm(FWB)
        api = pm.api(0)
        addrs = [api.alloc(16) for _ in range(3)]
        api.tx_begin()
        for addr in addrs:
            api.free(addr, 16)
        api.tx_commit()
        reused = {api.alloc(16) for _ in range(3)}
        assert reused == set(addrs)
