"""Memory controller: queues, bank scheduling, posted writes.

Timing model (Table II): requests pay a fixed queue latency, then occupy
their NVRAM bank.  A request to the bank's open row takes the row-buffer
hit latency (36 ns); otherwise the read/write row-conflict latency
(100/300 ns) and the row is opened.  Writes are *posted*: the issuing core
continues immediately unless the 64-entry write queue is full, in which
case the core stalls until a slot frees (this back-pressure is what makes
uncacheable software-log stores expensive in the paper).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import NamedTuple

from ..utils import ns_to_cycles
from .config import MemCtrlConfig, NVDimmConfig
from .energy import EnergyModel
from .nvram import NVRAM
from .stats import MachineStats


class WriteTicket(NamedTuple):
    """Outcome of a posted write.

    ``completion`` — when the data is durable in NVRAM;
    ``stall`` — cycles the issuer waited for a write-queue slot;
    ``accepted`` — when the transfer won the channel (bus acceptance),
    which is what an unbuffered uncacheable store must wait for.
    """

    completion: float
    stall: float
    accepted: float


_ticket = tuple.__new__
"""Builds a :class:`WriteTicket` from a tuple without the NamedTuple's
Python-level ``__new__`` frame."""


class MemoryController:
    """Schedules reads and posted writes onto the NVRAM banks.

    Both paths share the device's bank and row-buffer state (its
    ``bank_read_free``/``bank_write_free`` lists and per-bank open-row
    LRU lists), so heavy write drains still cost reads their row hits.
    Each access pays for the channel from issue time (DIMM-side buffers
    decouple the transfer from bank service), then for its bank.
    Reads are scheduled with priority: a read waits for earlier reads on
    its bank and for at most one non-preemptible in-service write, while
    posted writes drain behind both read and write occupancy — the
    read-over-write policy of contemporary persistent-memory controllers
    (e.g. FIRM).

    Addresses map to banks and rows here: cache-line interleaved across
    banks (sequential lines hit distinct banks, so streams like the log
    use all-bank bandwidth), and with that interleaving one row per bank
    covers a contiguous ``row_bytes * num_banks`` stripe.

    A posted write is the persist path's hot loop (every HWL record and
    every write-back takes it), so :meth:`write` does its write-queue
    slot, bus and bank timing and counters in its own frame; its calls
    are the row-buffer touch (:meth:`NVRAM.row_buffer_access
    <repro.sim.nvram.NVRAM.row_buffer_access>`, shared with reads), the
    functional :meth:`NVRAM.write <repro.sim.nvram.NVRAM.write>` and the
    write energy (:meth:`EnergyModel.nvram_write_pj
    <repro.sim.energy.EnergyModel.nvram_write_pj>`).
    """

    def __init__(
        self,
        config: MemCtrlConfig,
        nvram_config: NVDimmConfig,
        nvram: NVRAM,
        energy: EnergyModel,
        stats: MachineStats,
        clock_ghz: float,
    ) -> None:
        config.validate()
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
        self._write_queue_entries = config.write_queue_entries
        # Bank and row geometry (the address mapping in the class doc).
        self._interleave = nvram_config.interleave_bytes
        self._num_banks = nvram_config.num_banks
        self._row_stripe = nvram_config.row_bytes * nvram_config.num_banks
        self._bus_free = 0.0
        # Min-heap of completion times of writes occupying write-queue slots.
        self._write_slots: list[float] = []

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def read(self, addr: int, size: int, now: float) -> tuple[float, bytes]:
        """Blocking read; returns (finish_time, data)."""
        nvram = self.nvram
        bank = (addr // self._interleave) % self._num_banks
        bus_start = max(self._bus_free, now + self._queue_latency)
        self._bus_free = bus_start + self._bus_cycles
        write_block = min(nvram.bank_write_free[bank], now + self._row_hit)
        start = max(bus_start, nvram.bank_read_free[bank], write_block)
        stats = self._stats
        row_hit = nvram.row_buffer_access(bank, addr // self._row_stripe)
        if row_hit:
            finish = start + self._row_hit
            stats.nvram_row_hits += 1
        else:
            finish = start + self._read_conflict
            stats.nvram_row_conflicts += 1
        nvram.bank_read_free[bank] = finish
        data = nvram.read(addr, size)
        stats.nvram_reads += 1
        stats.nvram_read_bytes += size
        self._energy.nvram_read(size, row_hit)
        return finish, data

    def write(
        self, addr: int, data: bytes, now: float, min_completion: float = 0.0
    ) -> "WriteTicket":
        """Posted write; returns a :class:`WriteTicket`.

        ``stall`` is non-zero when the write queue was full and the issuer
        had to wait for a slot.  ``min_completion`` clamps the durability
        time to be no earlier than a previous write — used by the log
        buffer and WCB, whose updates must enter the persistence domain in
        FIFO order even when banks complete out of order.
        """
        stats = self._stats
        stall = 0.0
        if self._infinite_write_bw:
            accepted = now + self._queue_latency
            durable = accepted + self._row_hit
        else:
            # Free slots whose writes have completed.
            slots = self._write_slots
            while slots and slots[0] <= now:
                heappop(slots)
            if len(slots) >= self._write_queue_entries:
                freed_at = heappop(slots)
                stall = max(0.0, freed_at - now)
                now = max(now, freed_at)
                stats.write_queue_stall_cycles += stall
            nvram = self.nvram
            bank = (addr // self._interleave) % self._num_banks
            bus_start = max(self._bus_free, now + self._queue_latency)
            self._bus_free = bus_start + self._bus_cycles
            write_free = nvram.bank_write_free
            accepted = max(bus_start, write_free[bank], nvram.bank_read_free[bank])
            if nvram.row_buffer_access(bank, addr // self._row_stripe):
                finish = accepted + self._row_hit
                stats.nvram_row_hits += 1
            else:
                finish = accepted + self._write_conflict
                stats.nvram_row_conflicts += 1
            write_free[bank] = finish
            heappush(slots, finish)
            # Durability: at bank-service completion in the paper's model,
            # or at controller acceptance under an ADR persist domain.
            durable = accepted if self._adr else finish
        if min_completion > durable:
            durable = min_completion
        self.nvram.write(addr, data, durable)
        size = len(data)
        stats.nvram_writes += 1
        stats.nvram_write_bytes += size
        stats.energy_nvram_pj += self._energy.nvram_write_pj(size)
        return _ticket(WriteTicket, (durable, stall, accepted))

    def retire(self, now: float) -> None:
        """Release bookkeeping for activity durable at ``now``."""
        while self._write_slots and self._write_slots[0] <= now:
            heappop(self._write_slots)
        self.nvram.retire_journal(now)

    @property
    def write_queue_occupancy(self) -> int:
        """Current number of occupied write-queue slots (test visibility)."""
        return len(self._write_slots)
