"""Tests for the SPS and SSCA2 microbenchmarks."""

import pytest

from repro.core.design import NON_PERS
from repro.workloads.base import SetupAccessor
from repro.workloads.sps import SPSWorkload
from repro.workloads.ssca2 import SSCA2Workload
from tests.conftest import make_pm


@pytest.fixture
def sps_env():
    pm = make_pm(NON_PERS)
    workload = SPSWorkload(seed=11, entries_per_partition=64)
    workload.setup(pm)
    return pm, workload, SetupAccessor(pm)


class TestSPS:
    def test_setup_fills_vector(self, sps_env):
        _pm, w, acc = sps_env
        values = [acc.read(w.entry_addr(0, i), w.entry_size) for i in range(64)]
        assert all(v != bytes(w.entry_size) or i == 0 for i, v in enumerate(values))

    def test_swaps_preserve_multiset(self, sps_env):
        pm, w, acc = sps_env
        before = sorted(
            acc.read(w.entry_addr(0, i), w.entry_size) for i in range(64)
        )
        api = pm.api(0)
        for _ in w.thread_body(api, 0, 50):
            pass
        pm.machine.hierarchy.flush_all(api.now)
        after = sorted(
            acc.read(w.entry_addr(0, i), w.entry_size) for i in range(64)
        )
        assert before == after

    def test_swaps_actually_move_values(self, sps_env):
        pm, w, acc = sps_env
        before = [acc.read(w.entry_addr(0, i), w.entry_size) for i in range(64)]
        api = pm.api(0)
        for _ in w.thread_body(api, 0, 20):
            pass
        pm.machine.hierarchy.flush_all(api.now)
        after = [acc.read(w.entry_addr(0, i), w.entry_size) for i in range(64)]
        assert before != after

    def test_two_writes_per_transaction(self, sps_env):
        pm, w, _acc = sps_env
        api = pm.api(0)
        for _ in w.thread_body(api, 0, 10):
            pass
        assert pm.machine.stats.transactions_committed == 10

    def test_string_default_entries_scale_down(self):
        assert SPSWorkload(value_kind="string").entries_per_partition < (
            SPSWorkload(value_kind="int").entries_per_partition
        )


@pytest.fixture
def graph_env():
    pm = make_pm(NON_PERS)
    workload = SSCA2Workload(
        seed=13, vertices_per_partition=32, initial_edges_per_vertex=2
    )
    workload.setup(pm)
    return pm, workload, SetupAccessor(pm)


class TestSSCA2:
    def test_setup_builds_graph(self, graph_env):
        _pm, w, acc = graph_env
        total_edges = sum(len(w.adjacency(acc, 0, v)) for v in range(32))
        assert total_edges == 32 * 2

    def test_degree_counter_matches_list(self, graph_env):
        _pm, w, acc = graph_env
        for v in range(32):
            assert w.degree_of(acc, 0, v) == len(w.adjacency(acc, 0, v))

    def test_insert_edge_prepends(self, graph_env):
        _pm, w, acc = graph_env
        w._insert_edge(acc, 0, 3, 7, 555)
        assert w.adjacency(acc, 0, 3)[0] == (7, 555)

    def test_classify_persists_max_weight(self, graph_env):
        _pm, w, acc = graph_env
        w._insert_edge(acc, 0, 5, 1, 99999)
        w._classify_edges(acc, 0, 5)
        metric = acc.read_word(w._vertex_addr(0, 5) + 16)
        assert metric == 99999

    def test_scale_free_bias(self, graph_env):
        _pm, w, _acc = graph_env
        from repro.workloads.rng import thread_rng

        rng = thread_rng(1, 1)
        picks = [w._pick_vertex(rng) for _ in range(2000)]
        low = sum(1 for p in picks if p < 8)
        high = sum(1 for p in picks if p >= 24)
        assert low > 2 * high  # hubs at low ids

    def test_thread_body_grows_graph(self, graph_env):
        pm, w, acc = graph_env
        before = sum(w.degree_of(acc, 0, v) for v in range(32))
        api = pm.api(0)
        for _ in w.thread_body(api, 0, 40):
            pass
        pm.machine.hierarchy.flush_all(api.now)
        after = sum(w.degree_of(acc, 0, v) for v in range(32))
        assert after > before
        assert pm.machine.stats.transactions_committed == 40
