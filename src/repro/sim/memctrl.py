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

import heapq
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


class MemoryController:
    """Schedules reads and posted writes onto the NVRAM banks."""

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
        self._bus_free = 0.0
        # Min-heap of completion times of writes occupying write-queue slots.
        self._write_slots: list[float] = []

    # ------------------------------------------------------------------
    # Bank timing
    # ------------------------------------------------------------------
    def _service(self, addr: int, now: float, is_write: bool) -> tuple[float, float, bool]:
        """Occupy bus and bank for one access; return (start, finish, row_hit).

        Reads are scheduled with priority: a read waits for earlier reads
        on its bank and for at most one non-preemptible in-service write,
        while posted writes drain behind both read and write occupancy —
        the read-over-write policy of contemporary persistent-memory
        controllers (e.g. FIRM).  Row-buffer state is shared, so heavy
        write drains still cost reads their row hits.
        """
        nvram = self.nvram
        bank = nvram.bank_of(addr)
        row = nvram.row_of(addr)
        # The channel is occupied per transfer from issue time (DIMM-side
        # buffers decouple the transfer from bank service).
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

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def read(self, addr: int, size: int, now: float) -> tuple[float, bytes]:
        """Blocking read; returns (finish_time, data)."""
        _start, finish, row_hit = self._service(addr, now, is_write=False)
        data = self.nvram.read(addr, size)
        self._stats.nvram_reads += 1
        self._stats.nvram_read_bytes += size
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
        size = len(data)
        stall = 0.0
        if self._infinite_write_bw:
            durable = max(now + self._queue_latency + self._row_hit, min_completion)
            accepted = now + self._queue_latency
            row_hit = True
        else:
            # Free slots whose writes have completed.
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
            # Durability: at bank-service completion in the paper's model,
            # or at controller acceptance under an ADR persist domain.
            durable = accepted if self._adr else service_finish
            durable = max(durable, min_completion)
        self.nvram.write(addr, data, durable)
        self._stats.nvram_writes += 1
        self._stats.nvram_write_bytes += size
        self._energy.nvram_write(size, row_hit)
        return WriteTicket(durable, stall, accepted)

    def pending_write_completion(self) -> float:
        """Latest completion time among writes still holding queue slots."""
        return max(self._write_slots) if self._write_slots else 0.0

    def retire(self, now: float) -> None:
        """Release bookkeeping for activity durable at ``now``."""
        while self._write_slots and self._write_slots[0] <= now:
            heapq.heappop(self._write_slots)
        self.nvram.retire_journal(now)

    @property
    def write_queue_occupancy(self) -> int:
        """Current number of occupied write-queue slots (test visibility)."""
        return len(self._write_slots)
