"""Property-based timing invariants: no time travel, monotone resources."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import EnergyConfig, MemCtrlConfig, NVDimmConfig
from repro.sim.energy import EnergyModel
from repro.sim.memctrl import MemoryController
from repro.sim.nvram import NVRAM
from repro.sim.stats import MachineStats
from repro import Machine
from repro.core.design import FWB
from tests.conftest import tiny_system


def make_mc():
    stats = MachineStats()
    nvram_config = NVDimmConfig(size_bytes=1024 * 1024)
    nvram = NVRAM(nvram_config)
    mc = MemoryController(
        MemCtrlConfig(), nvram_config, nvram, EnergyModel(EnergyConfig(), stats), stats, 2.5
    )
    return mc


requests = st.lists(
    st.tuples(
        st.integers(0, 255),      # line index
        st.booleans(),            # is_write
        st.floats(0.0, 50.0),     # inter-arrival gap
    ),
    min_size=1,
    max_size=100,
)


class TestMemoryControllerInvariants:
    @given(trace=requests)
    @settings(max_examples=60)
    def test_no_time_travel(self, trace):
        """No access finishes before it was issued (plus queue latency)."""
        mc = make_mc()
        now = 0.0
        for line, is_write, gap in trace:
            now += gap
            addr = line * 64
            if is_write:
                ticket = mc.write(addr, bytes(64), now)
                assert ticket.accepted >= now
                assert ticket.completion >= ticket.accepted
            else:
                finish, _ = mc.read(addr, 64, now)
                assert finish > now

    @given(trace=requests)
    @settings(max_examples=40)
    def test_bank_occupancy_monotone(self, trace):
        """Per-bank read/write next-free times never move backwards."""
        mc = make_mc()
        now = 0.0
        previous = (list(mc.nvram.bank_read_free), list(mc.nvram.bank_write_free))
        for line, is_write, gap in trace:
            now += gap
            addr = line * 64
            if is_write:
                mc.write(addr, bytes(64), now)
            else:
                mc.read(addr, 64, now)
            current = (list(mc.nvram.bank_read_free), list(mc.nvram.bank_write_free))
            for old_bank, new_bank in zip(previous[0] + previous[1],
                                          current[0] + current[1]):
                assert new_bank >= old_bank
            previous = current

    @given(trace=requests)
    @settings(max_examples=40)
    def test_same_address_write_completions_ordered(self, trace):
        """Writes to one address become durable in issue order — the
        property the crash journal's suffix-revert relies on."""
        mc = make_mc()
        now = 0.0
        completions = {}
        for line, _is_write, gap in trace:
            now += gap
            addr = (line % 4) * 64  # concentrate on four addresses
            ticket = mc.write(addr, bytes(64), now)
            history = completions.setdefault(addr, [])
            if history:
                assert ticket.completion >= history[-1]
            history.append(ticket.completion)


core_ops = st.lists(
    st.tuples(st.integers(0, 31), st.sampled_from(["load", "store", "clwb", "fence", "compute"])),
    min_size=1,
    max_size=60,
)


class TestCoreClockInvariants:
    @given(trace=core_ops)
    @settings(max_examples=40, deadline=None)
    def test_core_clock_never_decreases(self, trace):
        machine = Machine(tiny_system(), FWB)
        core = machine.cores[0]
        machine.issue(core, core.exec_compute, 1)
        last = machine.core_time(0)
        for slot, kind in trace:
            addr = 0x2000 + slot * 64
            if kind == "load":
                machine.issue(core, core.exec_load, addr, addr)
            elif kind == "store":
                machine.issue(core, core.exec_store, addr, bytes(8))
            elif kind == "clwb":
                machine.issue(core, core.exec_clwb, addr)
            elif kind == "fence":
                machine.issue(core, core.exec_fence)
            else:
                machine.issue(core, core.exec_compute, 3)
            now = machine.core_time(0)
            assert now >= last
            last = now
