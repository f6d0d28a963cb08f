"""Write-combining buffer (WCB) for uncacheable stores.

Software log updates bypass the caches and are buffered in a small (4-6
cache-line) write-combining buffer, as in commodity x86 processors
(Section II-B of the paper).  Stores to the same line coalesce; when a new
line is needed and the buffer is full, the oldest entry drains to the
memory controller as a posted write.  ``sfence`` flushes the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..utils import line_address
from .memctrl import MemoryController
from .stats import MachineStats


@dataclass
class _Entry:
    line_addr: int
    data: bytearray
    lo: int
    hi: int


class WriteCombiningBuffer:
    """FIFO of line-sized write-combining entries."""

    def __init__(
        self,
        entries: int,
        line_size: int,
        memctrl: MemoryController,
        stats: MachineStats,
    ) -> None:
        self._capacity = entries
        self._line_size = line_size
        self._memctrl = memctrl
        self._stats = stats
        self._entries: list[_Entry] = []
        self.last_completion = 0.0

    def push(self, addr: int, data: bytes, now: float) -> float:
        """Buffer an uncacheable store; returns stall cycles (usually 0).

        A stall occurs only when an entry must drain and the memory
        controller's write queue is full.
        """
        line_addr = line_address(addr, self._line_size)
        for entry in self._entries:
            if entry.line_addr == line_addr:
                off = addr - line_addr
                entry.data[off:off + len(data)] = data
                entry.lo = min(entry.lo, off)
                entry.hi = max(entry.hi, off + len(data))
                return 0.0
        stall = 0.0
        if len(self._entries) >= self._capacity:
            stall = self._drain_one(now)
        off = addr - line_addr
        entry = _Entry(line_addr, bytearray(self._line_size), off, off + len(data))
        entry.data[off:off + len(data)] = data
        self._entries.append(entry)
        return stall

    def _drain_one(self, now: float) -> float:
        entry = self._entries.pop(0)
        # Uncacheable log stores must become durable in order (they bypass
        # the caches precisely to keep store order, Section II-B).
        ticket = self._memctrl.write(
            entry.line_addr + entry.lo,
            bytes(entry.data[entry.lo:entry.hi]),
            now,
            self.last_completion,
        )
        self.last_completion = max(self.last_completion, ticket.completion)
        self._stats.wcb_stall_cycles += ticket.stall
        return ticket.stall

    def flush(self, now: float) -> float:
        """Drain every entry (sfence); returns the last completion time."""
        while self._entries:
            self._drain_one(now)
        return self.last_completion

    def drop(self) -> None:
        """Power loss: buffered entries are lost."""
        self._entries.clear()

    @property
    def occupancy(self) -> int:
        """Number of open write-combining entries."""
        return len(self._entries)
