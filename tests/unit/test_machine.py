"""Unit tests for repro.sim.machine (assembly and crash semantics)."""

import pytest

from repro import Machine, Policy
from repro.errors import SimulationError
from repro.sim.microops import Compute, Store
from tests.conftest import tiny_system


class TestAssembly:
    def test_hw_policy_wires_hwl(self):
        m = Machine(tiny_system(), Policy.FWB)
        assert m.hwl is not None and m.log_buffer is not None
        assert m.swlog is None
        assert m.fwb is not None

    def test_hwl_policy_has_no_fwb(self):
        m = Machine(tiny_system(), Policy.HWL)
        assert m.hwl is not None and m.fwb is None

    def test_sw_policy_wires_softlog(self):
        m = Machine(tiny_system(), Policy.UNDO_CLWB)
        assert m.swlog is not None and m.hwl is None

    def test_sw_safe_policy_installs_order_hook(self):
        m = Machine(tiny_system(), Policy.UNDO_CLWB)
        assert m.hierarchy.writeback_release_hook is not None

    def test_unsafe_sw_policy_has_no_hook(self):
        m = Machine(tiny_system(), Policy.UNSAFE_BASE)
        assert m.hierarchy.writeback_release_hook is None

    def test_non_pers_has_nothing(self):
        m = Machine(tiny_system(), Policy.NON_PERS)
        assert m.hwl is None and m.swlog is None and m.fwb is None

    def test_log_region_at_top_of_nvram(self):
        m = Machine(tiny_system(), Policy.FWB)
        assert m.log_base + m.config.logging.log_bytes == m.config.nvram.size_bytes
        assert m.heap_base < m.heap_limit == m.log_base


class TestExecution:
    def test_finalize_aggregates(self):
        m = Machine(tiny_system(), Policy.NON_PERS)
        m.execute(0, Compute(10))
        m.execute(1, Compute(20))
        stats = m.finalize()
        assert stats.instructions == 30
        assert stats.cycles == m.cores[1].time
        assert stats.per_core_instructions == {0: 10, 1: 20}

    def test_core_time(self):
        m = Machine(tiny_system(), Policy.NON_PERS)
        m.execute(0, Compute(10))
        assert m.core_time(0) > 0
        assert m.core_time(1) == 0


class TestCrash:
    def test_crash_drops_caches(self):
        m = Machine(tiny_system(), Policy.FWB)
        m.execute(0, Store(0x2000, b"V" * 8, persistent=False))
        m.crash()
        assert m.hierarchy.l1s[0].occupancy == 0

    def test_crash_reverts_late_writes(self):
        m = Machine(tiny_system(), Policy.NON_PERS)
        ticket = m.memctrl.write(0x2000, b"LATE!!!!", 100.0)
        m.crash(at_time=50.0)
        assert m.nvram.peek(0x2000, 8) == bytes(8)
        assert ticket.completion > 50.0

    def test_crash_keeps_durable_writes(self):
        m = Machine(tiny_system(), Policy.NON_PERS)
        ticket = m.memctrl.write(0x2000, b"DURABLE!", 0.0)
        m.crash(at_time=ticket.completion)
        assert m.nvram.peek(0x2000, 8) == b"DURABLE!"

    def test_no_execution_after_crash(self):
        m = Machine(tiny_system(), Policy.NON_PERS)
        m.crash()
        with pytest.raises(SimulationError):
            m.execute(0, Compute(1))

    def test_crash_defaults_to_latest_core_time(self):
        m = Machine(tiny_system(), Policy.NON_PERS)
        m.execute(0, Compute(100))
        crash_time = m.crash()
        assert crash_time == pytest.approx(m.cores[0].time)
