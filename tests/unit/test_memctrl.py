"""Unit tests for repro.sim.memctrl."""

import dataclasses
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import MemCtrlConfig, NVDimmConfig
from repro.sim.energy import EnergyModel
from repro.sim.config import EnergyConfig
from repro.sim.memctrl import MemoryController, WriteTicket
from repro.sim.nvram import NVRAM
from repro.sim.stats import MachineStats
from repro.utils import ns_to_cycles


def make_mc(**nvram_overrides):
    stats = MachineStats()
    nvram_config = NVDimmConfig(size_bytes=1024 * 1024, **nvram_overrides)
    nvram = NVRAM(nvram_config)
    energy = EnergyModel(EnergyConfig(), stats)
    mc = MemoryController(MemCtrlConfig(), nvram_config, nvram, energy, stats, 2.5)
    return mc, nvram, stats


class TestReads:
    def test_read_returns_data(self):
        mc, nvram, _ = make_mc()
        nvram.poke(64, b"payload!")
        finish, data = mc.read(64, 8, 0.0)
        assert data == b"payload!"
        assert finish > 0

    def test_first_read_is_row_conflict(self):
        mc, _, stats = make_mc()
        mc.read(0, 64, 0.0)
        assert stats.nvram_row_conflicts == 1

    def test_repeat_read_is_row_hit(self):
        mc, _, stats = make_mc()
        mc.read(0, 64, 0.0)
        mc.read(0, 64, 1000.0)
        assert stats.nvram_row_hits == 1

    def test_row_hit_is_faster(self):
        mc, _, _ = make_mc()
        finish_conflict, _ = mc.read(0, 64, 0.0)
        finish_hit, _ = mc.read(0, 64, 1000.0)
        assert finish_hit - 1000.0 < finish_conflict - 0.0

    def test_same_bank_reads_serialize(self):
        mc, nvram, _ = make_mc()
        addr = 0
        f1, _ = mc.read(addr, 64, 0.0)
        f2, _ = mc.read(addr + 64 * 8, 64, 0.0)  # same bank, next stripe
        assert f2 > f1

    def test_different_banks_overlap(self):
        mc, _, _ = make_mc(bus_cycles_per_transfer=1.0)
        f1, _ = mc.read(0, 64, 0.0)
        f2, _ = mc.read(64, 64, 0.0)  # adjacent line = different bank
        # Bank-parallel: the second read does not wait for the first.
        assert f2 - f1 < 50


class TestWrites:
    def test_write_applies_functionally(self):
        mc, nvram, _ = make_mc()
        mc.write(128, b"ABCDEFGH", 0.0)
        assert nvram.read(128, 8) == b"ABCDEFGH"

    def test_write_is_posted(self):
        mc, _, _ = make_mc()
        ticket = mc.write(0, bytes(64), 0.0)
        assert ticket.stall == 0.0
        assert ticket.completion > 0

    def test_min_completion_clamps(self):
        mc, _, _ = make_mc()
        ticket = mc.write(0, bytes(64), 0.0, min_completion=99999.0)
        assert ticket.completion == 99999.0

    def test_write_queue_backpressure(self):
        mc, _, stats = make_mc()
        # Saturate the 64-entry queue with same-bank writes at time 0.
        for i in range(70):
            mc.write(i * 64 * 8, bytes(64), 0.0)
        assert stats.write_queue_stall_cycles > 0

    def test_acceptance_before_completion(self):
        mc, _, _ = make_mc()
        ticket = mc.write(0, bytes(64), 0.0)
        assert ticket.accepted <= ticket.completion

    def test_infinite_bandwidth_mode(self):
        mc, _, stats = make_mc(infinite_write_bandwidth=True)
        for i in range(200):
            ticket = mc.write(i * 64, bytes(64), 0.0)
            assert ticket.stall == 0.0
        assert stats.write_queue_stall_cycles == 0.0


class TestReadPriority:
    def test_read_not_blocked_by_write_backlog(self):
        mc, _, _ = make_mc(bus_cycles_per_transfer=0.0 + 1.0)
        # Pile writes onto bank 0.
        for i in range(20):
            mc.write(i * 64 * 8, bytes(64), 0.0)
        write_backlog = mc.nvram.bank_write_free[0]
        finish, _ = mc.read(64 * 8 * 100, 64, 0.0)  # bank 0 read
        # Read waits at most ~one in-service write, not the whole backlog.
        assert finish < write_backlog

    def test_write_after_read_waits(self):
        mc, _, _ = make_mc()
        read_finish, _ = mc.read(0, 64, 0.0)
        ticket = mc.write(64 * 8, bytes(64), 0.0)  # same bank 0
        assert ticket.completion > read_finish


class TestBus:
    def test_bus_serializes_transfers(self):
        mc, _, _ = make_mc(bus_cycles_per_transfer=12.0)
        tickets = [mc.write(i * 64, bytes(64), 0.0) for i in range(4)]
        accepts = [t.accepted for t in tickets]
        for earlier, later in zip(accepts, accepts[1:]):
            assert later >= earlier + 12.0


class TestRetire:
    def test_retire_frees_slots(self):
        mc, _, _ = make_mc()
        ticket = mc.write(0, bytes(64), 0.0)
        assert mc.write_queue_occupancy == 1
        mc.retire(ticket.completion + 1)
        assert mc.write_queue_occupancy == 0


# ----------------------------------------------------------------------
# The write path against the controller it replaced
# ----------------------------------------------------------------------


class ReferenceController:
    """The controller as it was before a posted write did its timing in
    its own frame.

    A posted write occupies bus and bank through ``_service``'s write
    branch (the device's former ``bank_of``/``row_of`` mapping, then
    ``NVRAM.row_buffer_access``), then applies through ``NVRAM.write``
    and charges the former ``EnergyModel.nvram_write``; a read takes
    ``_service``'s read branch.  Kept here as the reference the
    controller must match bit for bit.
    """

    def __init__(self, config, nvram_config, nvram, energy, stats, clock_ghz):
        self.config = config
        self.nvram = nvram
        self._energy = energy
        self._stats = stats
        self._queue_latency = ns_to_cycles(config.queue_latency_ns, clock_ghz)
        self._row_hit = ns_to_cycles(nvram_config.row_hit_ns, clock_ghz)
        self._read_conflict = ns_to_cycles(nvram_config.read_conflict_ns, clock_ghz)
        self._write_conflict = ns_to_cycles(nvram_config.write_conflict_ns, clock_ghz)
        self._infinite_write_bw = nvram_config.infinite_write_bandwidth
        self._adr = nvram_config.adr_persist_domain
        self._bus_cycles = nvram_config.bus_cycles_per_transfer
        self._nvram_config = nvram_config
        self._energy_config = energy._config
        self._bus_free = 0.0
        self._write_slots = []

    def _service(self, addr, now, is_write):
        nvram = self.nvram
        geometry = self._nvram_config
        bank = (addr // geometry.interleave_bytes) % geometry.num_banks
        row = addr // (geometry.row_bytes * geometry.num_banks)
        bus_start = max(self._bus_free, now + self._queue_latency)
        self._bus_free = bus_start + self._bus_cycles
        if is_write:
            start = max(bus_start, nvram.bank_write_free[bank], nvram.bank_read_free[bank])
        else:
            write_block = min(nvram.bank_write_free[bank], now + self._row_hit)
            start = max(bus_start, nvram.bank_read_free[bank], write_block)
        row_hit = nvram.row_buffer_access(bank, row)
        if row_hit:
            service = self._row_hit
        else:
            service = self._write_conflict if is_write else self._read_conflict
        finish = start + service
        if is_write:
            nvram.bank_write_free[bank] = finish
        else:
            nvram.bank_read_free[bank] = finish
        if row_hit:
            self._stats.nvram_row_hits += 1
        else:
            self._stats.nvram_row_conflicts += 1
        return start, finish, row_hit

    def read(self, addr, size, now):
        _start, finish, row_hit = self._service(addr, now, is_write=False)
        data = self.nvram.read(addr, size)
        self._stats.nvram_reads += 1
        self._stats.nvram_read_bytes += size
        self._energy.nvram_read(size, row_hit)
        return finish, data

    def write(self, addr, data, now, min_completion=0.0):
        size = len(data)
        stall = 0.0
        if self._infinite_write_bw:
            durable = max(now + self._queue_latency + self._row_hit, min_completion)
            accepted = now + self._queue_latency
            row_hit = True
        else:
            slots = self._write_slots
            while slots and slots[0] <= now:
                heapq.heappop(slots)
            if len(slots) >= self.config.write_queue_entries:
                freed_at = heapq.heappop(slots)
                stall = max(0.0, freed_at - now)
                now = max(now, freed_at)
                self._stats.write_queue_stall_cycles += stall
            accepted, service_finish, row_hit = self._service(addr, now, True)
            heapq.heappush(slots, service_finish)
            durable = accepted if self._adr else service_finish
            durable = max(durable, min_completion)
        self.nvram.write(addr, data, durable)
        self._stats.nvram_writes += 1
        self._stats.nvram_write_bytes += size
        bits = size * 8
        pj = self._energy_config.nvram_row_buffer_write_pj_per_bit * bits
        pj += self._energy_config.nvram_array_write_pj_per_bit * bits
        self._stats.energy_nvram_pj += pj
        return WriteTicket(durable, stall, accepted)

    def retire(self, now):
        while self._write_slots and self._write_slots[0] <= now:
            heapq.heappop(self._write_slots)
        self.nvram.retire_journal(now)


_SIZES = (8, 32, 64)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(("write", "write", "write", "read", "retire")),
        st.integers(min_value=0, max_value=(1 << 16) // 8 - 8),  # word index
        st.sampled_from(_SIZES),
        st.integers(min_value=0, max_value=400),  # time step
        st.one_of(st.none(), st.integers(min_value=0, max_value=3000)),
        st.integers(min_value=0, max_value=255),  # payload byte
    ),
    min_size=1,
    max_size=120,
)


def _pair(infinite: bool, adr: bool, queue: int):
    nvram_config = NVDimmConfig(
        size_bytes=1 << 16,
        row_bytes=256,
        row_buffers_per_bank=2,
        infinite_write_bandwidth=infinite,
        adr_persist_domain=adr,
    )
    config = MemCtrlConfig(write_queue_entries=queue)
    sides = []
    for cls in (MemoryController, ReferenceController):
        stats = MachineStats()
        nvram = NVRAM(nvram_config)
        energy = EnergyModel(EnergyConfig(), stats)
        sides.append((cls(config, nvram_config, nvram, energy, stats, 2.5), stats))
    return sides


@settings(max_examples=150, deadline=None)
@given(
    ops=_OPS,
    infinite=st.booleans(),
    adr=st.booleans(),
    queue=st.sampled_from((1, 3, 64)),
    fractional=st.booleans(),
)
def test_write_matches_the_pre_change_path(ops, infinite, adr, queue, fractional):
    (mc, mc_stats), (ref, ref_stats) = _pair(infinite, adr, queue)
    now = 0.5 if fractional else 0
    for kind, word, size, step, clamp, fill in ops:
        now += step
        addr = word * 8
        if kind == "write":
            data = bytes([fill]) * size
            if clamp is None:
                got, want = mc.write(addr, data, now), ref.write(addr, data, now)
            else:
                got = mc.write(addr, data, now, min_completion=now + clamp)
                want = ref.write(addr, data, now, min_completion=now + clamp)
            assert type(got) is WriteTicket
            assert repr(got) == repr(want)  # values and int/float types
        elif kind == "read":
            assert repr(mc.read(addr, size, now)) == repr(ref.read(addr, size, now))
        else:
            mc.retire(now)
            ref.retire(now)
    assert dataclasses.asdict(mc_stats) == dataclasses.asdict(ref_stats)
    assert mc_stats.energy_nvram_pj == ref_stats.energy_nvram_pj
    got_nvram, want_nvram = mc.nvram, ref.nvram
    assert got_nvram.open_rows == want_nvram.open_rows
    assert repr(got_nvram.bank_read_free) == repr(want_nvram.bank_read_free)
    assert repr(got_nvram.bank_write_free) == repr(want_nvram.bank_write_free)
    assert repr(mc._write_slots) == repr(ref._write_slots)
    assert repr(mc._bus_free) == repr(ref._bus_free)
    assert got_nvram.image[:] == want_nvram.image[:]
    assert got_nvram.journal_length == want_nvram.journal_length
