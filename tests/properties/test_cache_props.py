"""Property-based tests for cache and hierarchy invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cache import SetAssociativeCache
from repro.sim.config import CacheConfig
from repro import Machine
from repro.core.design import NON_PERS
from tests.conftest import tiny_system

LINE = 64
# A tiny cache: 2 sets x 2 ways.
SMALL = CacheConfig(size_bytes=256, ways=2)

ops = st.lists(
    st.tuples(st.integers(0, 15), st.booleans()),  # (line index, is_insert)
    min_size=1,
    max_size=60,
)


class TestCacheModel:
    @given(trace=ops)
    @settings(max_examples=60)
    def test_occupancy_never_exceeds_capacity(self, trace):
        cache = SetAssociativeCache(SMALL, "prop")
        now = 0.0
        for index, is_insert in trace:
            addr = index * LINE
            if is_insert and cache.lookup(addr) is None:
                cache.insert(addr, bytes(LINE), now)
            else:
                cache.invalidate(addr)
            now += 1.0
            assert cache.occupancy <= 4
            for bucket_lines in [list(cache.iter_lines())]:
                addrs = [line.addr for line in bucket_lines]
                assert len(addrs) == len(set(addrs))

    @given(trace=ops)
    @settings(max_examples=60)
    def test_most_recent_line_survives(self, trace):
        """LRU: the line touched last in a set is never the victim."""
        cache = SetAssociativeCache(SMALL, "prop")
        now = 0.0
        last_inserted = None
        for index, _ in trace:
            addr = index * LINE
            if cache.lookup(addr) is None:
                cache.insert(addr, bytes(LINE), now)
            else:
                cache.touch(cache.lookup(addr), now)
            last_inserted = addr
            now += 1.0
            assert cache.lookup(last_inserted) is not None


word_addrs = st.integers(0, 127).map(lambda i: 0x2000 + i * 8)
accesses = st.lists(
    st.tuples(word_addrs, st.integers(0, 255), st.booleans()),
    min_size=1,
    max_size=80,
)


class TestHierarchyFunctionalEquivalence:
    @given(trace=accesses)
    @settings(max_examples=40, deadline=None)
    def test_hierarchy_matches_flat_memory(self, trace):
        """Loads through the hierarchy always return what a flat memory
        model would, regardless of evictions and write-backs."""
        machine = Machine(tiny_system(), NON_PERS)
        core = machine.cores[0]
        model = {}
        for addr, value, is_store in trace:
            if is_store:
                data = bytes([value] * 8)
                machine.issue(core, core.exec_store, addr, data)
                model[addr] = data
            else:
                line = addr & ~63
                seen = machine.issue(core, core.exec_load, addr, line)
                offset = addr - line
                assert bytes(seen[offset:offset + 8]) == model.get(addr, bytes(8))

    @given(trace=accesses)
    @settings(max_examples=20, deadline=None)
    def test_flush_all_makes_nvram_match_model(self, trace):
        machine = Machine(tiny_system(), NON_PERS)
        core = machine.cores[0]
        model = {}
        for addr, value, is_store in trace:
            if is_store:
                data = bytes([value] * 8)
                machine.issue(core, core.exec_store, addr, data)
                model[addr] = data
        machine.hierarchy.flush_all(machine.core_time(0))
        for addr, data in model.items():
            assert machine.nvram.peek(addr, 8) == data
