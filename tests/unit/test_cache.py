"""Unit tests for repro.sim.cache."""

import pytest

from repro.errors import SimulationError
from repro.sim.cache import SetAssociativeCache
from repro.sim.config import CacheConfig


@pytest.fixture
def cache():
    # 4 sets x 2 ways of 64B lines.
    return SetAssociativeCache(CacheConfig(size_bytes=512, ways=2), "test")


LINE = 64


def addr_for(set_index: int, tag: int, num_sets: int = 4) -> int:
    return (tag * num_sets + set_index) * LINE


class TestLookupInsert:
    def test_miss_on_empty(self, cache):
        assert cache.lookup(0) is None

    def test_insert_then_lookup(self, cache):
        cache.insert(0, bytes(64), now=0.0)
        line = cache.lookup(0)
        assert line is not None
        assert line.addr == 0

    def test_lookup_any_offset_in_line(self, cache):
        cache.insert(0, bytes(64), now=0.0)
        assert cache.lookup(63) is not None
        assert cache.lookup(64) is None

    def test_duplicate_insert_raises(self, cache):
        cache.insert(0, bytes(64), now=0.0)
        with pytest.raises(SimulationError):
            cache.insert(0, bytes(64), now=1.0)

    def test_wrong_size_insert_raises(self, cache):
        with pytest.raises(SimulationError):
            cache.insert(0, bytes(32), now=0.0)

    def test_data_preserved(self, cache):
        payload = bytes(range(64))
        cache.insert(0, payload, now=0.0)
        assert bytes(cache.lookup(0).data) == payload


class TestEviction:
    def test_no_eviction_until_full(self, cache):
        assert cache.insert(addr_for(0, 0), bytes(64), 0.0) is None
        assert cache.insert(addr_for(0, 1), bytes(64), 1.0) is None

    def test_lru_victim(self, cache):
        cache.insert(addr_for(0, 0), bytes(64), 0.0)
        cache.insert(addr_for(0, 1), bytes(64), 1.0)
        cache.touch(cache.lookup(addr_for(0, 0)), 2.0)  # refresh tag 0
        victim = cache.insert(addr_for(0, 2), bytes(64), 3.0)
        assert victim is not None
        assert victim.addr == addr_for(0, 1)

    def test_victim_carries_dirty_state(self, cache):
        cache.insert(addr_for(0, 0), bytes(64), 0.0)
        cache.lookup(addr_for(0, 0)).dirty = True
        cache.insert(addr_for(0, 1), bytes(64), 1.0)
        victim = cache.insert(addr_for(0, 2), bytes(64), 0.5)
        assert victim.dirty is True

    def test_victim_carries_log_release(self, cache):
        cache.insert(addr_for(0, 0), bytes(64), 0.0)
        cache.lookup(addr_for(0, 0)).log_release = 123.0
        cache.insert(addr_for(0, 1), bytes(64), 1.0)
        victim = cache.insert(addr_for(0, 2), bytes(64), 0.5)
        assert victim.log_release == 123.0

    def test_victim_is_the_removed_line_itself(self, cache):
        cache.insert(addr_for(0, 0), bytes(64), 0.0)
        oldest = cache.lookup(addr_for(0, 0))
        cache.insert(addr_for(0, 1), bytes(64), 1.0)
        line, victim = cache.fill(addr_for(0, 2), bytes(64), 2.0)
        assert victim is oldest
        assert line is cache.lookup(addr_for(0, 2))
        assert all(resident is not victim for resident in cache.iter_lines())

    def test_sets_are_independent(self, cache):
        for tag in range(3):
            cache.insert(addr_for(1, tag), bytes(64), float(tag))
        assert cache.insert(addr_for(2, 0), bytes(64), 5.0) is None


class TestInvalidate:
    def test_invalidate_removes(self, cache):
        cache.insert(0, bytes(64), 0.0)
        evicted = cache.invalidate(0)
        assert evicted is not None
        assert cache.lookup(0) is None

    def test_invalidate_returns_the_removed_line_itself(self, cache):
        cache.insert(0, bytes(64), 0.0)
        line = cache.lookup(0)
        line.dirty = True
        assert cache.invalidate(0) is line
        assert line.dirty
        assert all(resident is not line for resident in cache.iter_lines())

    def test_invalidate_missing_returns_none(self, cache):
        assert cache.invalidate(0) is None

    def test_drop_all(self, cache):
        cache.insert(addr_for(0, 0), bytes(64), 0.0)
        cache.insert(addr_for(1, 0), bytes(64), 0.0)
        cache.drop_all()
        assert cache.occupancy == 0


class TestIteration:
    def test_iter_lines_counts(self, cache):
        for set_index in range(4):
            cache.insert(addr_for(set_index, 0), bytes(64), 0.0)
        assert len(list(cache.iter_lines())) == 4
        assert cache.occupancy == 4

    def test_dirty_count(self, cache):
        cache.insert(addr_for(0, 0), bytes(64), 0.0)
        cache.insert(addr_for(1, 0), bytes(64), 0.0)
        cache.lookup(addr_for(0, 0)).dirty = True
        assert cache.dirty_count() == 1

    def test_new_line_state(self, cache):
        cache.insert(0, bytes(64), 7.5)
        line = cache.lookup(0)
        assert line.dirty is False
        assert line.fwb is False
        assert line.last_use == 7.5
        assert line.log_release == 0.0
