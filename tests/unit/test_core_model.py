"""Unit tests for repro.sim.core (the per-op execution model)."""

import pytest

from repro import Machine
from repro.core.design import FWB, NON_PERS
from tests.conftest import tiny_system


def issue(machine, op, *args, core_id=0):
    """Issue ``Core.exec_<op>`` on ``core_id`` through the machine."""
    core = machine.cores[core_id]
    return machine.issue(core, getattr(core, f"exec_{op}"), *args)


def load(machine, addr, size=8, core_id=0):
    """Load ``size`` bytes at ``addr`` (within one line); returns them."""
    line = addr & ~(machine.config.line_size - 1)
    data = issue(machine, "load", addr, line, core_id=core_id)
    return bytes(data[addr - line:addr - line + size])


@pytest.fixture
def machine():
    return Machine(tiny_system(), NON_PERS)


@pytest.fixture
def hw_machine():
    return Machine(tiny_system(), FWB)


class TestCompute:
    def test_advances_time_and_instret(self, machine):
        issue(machine, "compute", 100)
        core = machine.cores[0]
        assert core.instret == 100
        assert core.time == pytest.approx(100 * 0.35)

    def test_cores_independent(self, machine):
        issue(machine, "compute", 100)
        assert machine.cores[1].time == 0.0


class TestLoadStore:
    def test_load_returns_data(self, machine):
        machine.nvram.poke(0x2000, b"ABCDEFGH")
        data = load(machine, 0x2000)
        assert data == b"ABCDEFGH"

    def test_l1_hit_cheaper_than_miss(self, machine):
        load(machine, 0x2000)
        miss_time = machine.cores[0].time
        load(machine, 0x2000)
        hit_cost = machine.cores[0].time - miss_time
        assert hit_cost < miss_time

    def test_store_updates_cache_not_nvram(self, machine):
        issue(machine, "store", 0x2000, b"HELLO!!!")
        assert load(machine, 0x2000) == b"HELLO!!!"
        assert machine.nvram.peek(0x2000, 8) == bytes(8)

    def test_persistent_store_triggers_hwl(self, hw_machine):
        issue(hw_machine, "tx_begin", 1, 0, 0)
        issue(hw_machine, "store", 0x2000, b"P" * 8, True, 1)
        assert hw_machine.stats.log_records >= 1

    def test_plain_store_skips_hwl(self, hw_machine):
        issue(hw_machine, "store", 0x2000, b"V" * 8)
        assert hw_machine.stats.log_records == 0


class TestLogStoreOp:
    def test_goes_through_wcb(self, machine):
        issue(machine, "logstore", machine.log_base, b"R" * 64)
        assert machine.cores[0].wcb.occupancy == 1
        assert machine.stats.log_records == 1

    def test_charges_uncached_issue(self, machine):
        before = machine.cores[0].time
        issue(machine, "logstore", machine.log_base, b"R" * 64)
        assert machine.cores[0].time - before >= 8.0


class TestFenceAndClwb:
    def test_fence_drains_wcb(self, machine):
        issue(machine, "logstore", machine.log_base, b"R" * 64)
        issue(machine, "fence")
        assert machine.cores[0].wcb.occupancy == 0
        assert machine.nvram.peek(machine.log_base, 1) == b"R"

    def test_fence_waits_for_durability(self, machine):
        issue(machine, "store", 0x2000, b"D" * 8)
        issue(machine, "clwb", 0x2000)
        before = machine.cores[0].time
        issue(machine, "fence")
        assert machine.cores[0].time > before
        assert machine.stats.fence_stall_cycles > 0

    def test_clwb_persists_line(self, machine):
        issue(machine, "store", 0x2000, b"D" * 8)
        issue(machine, "clwb", 0x2000)
        issue(machine, "fence")
        assert machine.nvram.peek(0x2000, 8) == b"D" * 8

    def test_fence_after_drain_is_cheap(self, machine):
        issue(machine, "store", 0x2000, b"D" * 8)
        issue(machine, "clwb", 0x2000)
        issue(machine, "fence")
        before = machine.cores[0].time
        issue(machine, "fence")
        assert machine.cores[0].time - before < 5.0


class TestTransactionsOps:
    def test_tx_ops_count_stats(self, hw_machine):
        issue(hw_machine, "tx_begin", 1, 0, 4)
        result = issue(hw_machine, "tx_commit", 1, 0, 2)
        assert hw_machine.stats.transactions_started == 1
        assert hw_machine.stats.transactions_committed == 1
        assert hw_machine.cores[0].instret == 6
        assert result is not None  # hw commit returns durable time

    def test_tx_ops_emit_their_trace_events(self, hw_machine):
        from repro.sim.trace import Tracer

        hw_machine.tracer = Tracer()
        issue(hw_machine, "tx_begin", 1, 0, 0)
        durable = issue(hw_machine, "tx_commit", 1, 0, 0)
        begin, commit = hw_machine.tracer.events()
        assert (begin.kind, begin.detail) == ("tx_begin", {"txid": 1, "tid": 0})
        assert commit.kind == "tx_commit"
        assert commit.detail == {"txid": 1, "tid": 0, "durable": durable}

    def test_non_pers_commit_returns_none(self, machine):
        issue(machine, "tx_begin", 1, 0, 0)
        assert issue(machine, "tx_commit", 1, 0, 0) is None
