"""Unit tests for repro.sim.machine (assembly and crash semantics)."""

import pytest

from repro import Machine
from repro.core.design import FWB, HWL, NON_PERS, UNDO_CLWB, UNSAFE_BASE
from repro.errors import SimulationError
from tests.conftest import tiny_system


class TestAssembly:
    def test_hw_policy_wires_hwl(self):
        m = Machine(tiny_system(), FWB)
        assert m.hwl is not None and m.log_buffer is not None
        assert m.swlog is None
        assert m.fwb is not None

    def test_hwl_policy_has_no_fwb(self):
        m = Machine(tiny_system(), HWL)
        assert m.hwl is not None and m.fwb is None

    def test_sw_policy_wires_softlog(self):
        m = Machine(tiny_system(), UNDO_CLWB)
        assert m.swlog is not None and m.hwl is None

    def test_sw_safe_policy_installs_order_hook(self):
        m = Machine(tiny_system(), UNDO_CLWB)
        assert m.hierarchy.writeback_release_hook is not None

    def test_unsafe_sw_policy_has_no_hook(self):
        m = Machine(tiny_system(), UNSAFE_BASE)
        assert m.hierarchy.writeback_release_hook is None

    def test_non_pers_has_nothing(self):
        m = Machine(tiny_system(), NON_PERS)
        assert m.hwl is None and m.swlog is None and m.fwb is None

    def test_log_region_at_top_of_nvram(self):
        m = Machine(tiny_system(), FWB)
        assert m.log_base + m.config.logging.log_bytes == m.config.nvram.size_bytes
        assert m.heap_base < m.heap_limit == m.log_base


class TestExecution:
    def test_finalize_aggregates(self):
        m = Machine(tiny_system(), NON_PERS)
        m.issue(m.cores[0], m.cores[0].exec_compute, 10)
        m.issue(m.cores[1], m.cores[1].exec_compute, 20)
        stats = m.finalize()
        assert stats.instructions == 30
        assert stats.cycles == m.cores[1].time
        assert stats.per_core_instructions == {0: 10, 1: 20}

    def test_core_time(self):
        m = Machine(tiny_system(), NON_PERS)
        m.issue(m.cores[0], m.cores[0].exec_compute, 10)
        assert m.core_time(0) > 0
        assert m.core_time(1) == 0


class TestIssue:
    def test_returns_the_op_result(self):
        m = Machine(tiny_system(), HWL)
        core = m.cores[0]
        m.issue(core, core.exec_tx_begin, 1, 0, 0)
        assert isinstance(m.issue(core, core.exec_tx_commit, 1, 0, 0), float)

    def test_scans_fwb_up_to_the_core_clock_first(self):
        m = Machine(tiny_system(), FWB)
        core = m.cores[0]
        core.time = m.fwb.next_scan
        m.issue(core, core.exec_compute, 1)
        assert m.stats.fwb_scans == 1

    def test_tells_the_fault_monitor_after_the_op(self):
        m = Machine(tiny_system(), NON_PERS)
        seen = []

        class Monitor:
            def after_op(self, now, stats):
                seen.append((now, stats.instructions))

        m.fault_monitor = Monitor()
        core = m.cores[0]
        m.issue(core, core.exec_compute, 10)
        assert seen == [(core.time, 10)]


class TestCrash:
    def test_crash_drops_caches(self):
        m = Machine(tiny_system(), FWB)
        m.issue(m.cores[0], m.cores[0].exec_store, 0x2000, b"V" * 8)
        m.crash()
        assert m.hierarchy.l1s[0].occupancy == 0

    def test_crash_reverts_late_writes(self):
        m = Machine(tiny_system(), NON_PERS)
        ticket = m.memctrl.write(0x2000, b"LATE!!!!", 100.0)
        m.crash(at_time=50.0)
        assert m.nvram.peek(0x2000, 8) == bytes(8)
        assert ticket.completion > 50.0

    def test_crash_keeps_durable_writes(self):
        m = Machine(tiny_system(), NON_PERS)
        ticket = m.memctrl.write(0x2000, b"DURABLE!", 0.0)
        m.crash(at_time=ticket.completion)
        assert m.nvram.peek(0x2000, 8) == b"DURABLE!"

    def test_no_execution_after_crash(self):
        m = Machine(tiny_system(), NON_PERS)
        m.crash()
        with pytest.raises(SimulationError):
            m.issue(m.cores[0], m.cores[0].exec_compute, 1)

    def test_crash_defaults_to_latest_core_time(self):
        m = Machine(tiny_system(), NON_PERS)
        m.issue(m.cores[0], m.cores[0].exec_compute, 100)
        crash_time = m.crash()
        assert crash_time == pytest.approx(m.cores[0].time)
