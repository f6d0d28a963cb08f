"""``log_grow()``: extra log regions for oversized transactions.

Section IV-A of the paper offers two defences against a single
transaction overflowing the circular log: allocate a large-enough log up
front (``MAX_TX_SIZE``), or let a library function ``log_grow()``
"allocate additional log regions when the log is filled by an
uncommitted transaction".  This module implements the second option:

* :class:`GrowableCircularLog` behaves like
  :class:`~repro.core.nvlog.CircularLog`, but when an append would
  overwrite an entry that still belongs to an *active* transaction it
  switches to a freshly allocated region instead (old regions freeze and
  remain valid for recovery);
* a small *region directory* is persisted in NVRAM so that recovery can
  find every region after a crash (the paper stores the equivalent
  pointers "as part of the log structure");
* recovery (:func:`~repro.core.recovery.recover_image`) replays every
  listed region, in creation order, as one window, so replay semantics
  are unchanged.
"""

from __future__ import annotations

from typing import Callable, Optional

from typing import TYPE_CHECKING

from ..errors import LogError, RecoveryError
from .logrecord import LogRecord, RecordKind
from .nvlog import CircularLog, PlacedRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.nvram import NVRAM

DIRECTORY_MAGIC = 0x474C4F47_52444952  # "GLOGRDIR"
DIRECTORY_BYTES = 512
_HEADER_WORDS = 3  # magic, count, entry_size
_WORDS_PER_REGION = 2
MAX_REGIONS = (DIRECTORY_BYTES // 8 - _HEADER_WORDS) // _WORDS_PER_REGION


class RegionDirectory:
    """The persistent list of log regions (base, entries) in NVRAM."""

    def __init__(self, nvram: "NVRAM", addr: int) -> None:
        self._nvram = nvram
        self.addr = addr

    @classmethod
    def below(cls, nvram: "NVRAM", log_base: int) -> "RegionDirectory":
        """The directory block just below the primary log region."""
        return cls(nvram, log_base - DIRECTORY_BYTES)

    def write(self, regions: list, entry_size: int) -> None:
        """Persist the region list (system-software metadata update)."""
        if len(regions) > MAX_REGIONS:
            raise LogError(f"more than {MAX_REGIONS} log regions")
        buf = bytearray(DIRECTORY_BYTES)
        buf[0:8] = DIRECTORY_MAGIC.to_bytes(8, "little")
        buf[8:16] = len(regions).to_bytes(8, "little")
        buf[16:24] = entry_size.to_bytes(8, "little")
        for index, (base, entries) in enumerate(regions):
            offset = 24 + index * 16
            buf[offset:offset + 8] = base.to_bytes(8, "little")
            buf[offset + 8:offset + 16] = entries.to_bytes(8, "little")
        self._nvram.poke(self.addr, bytes(buf))

    def read(self) -> Optional[tuple]:
        """(entry_size, region list) from NVRAM, or None when absent."""
        raw = self._nvram.read(self.addr, DIRECTORY_BYTES)
        if int.from_bytes(raw[0:8], "little") != DIRECTORY_MAGIC:
            return None
        count = int.from_bytes(raw[8:16], "little")
        if count > MAX_REGIONS:
            raise LogError("corrupt log region directory")
        entry_size = int.from_bytes(raw[16:24], "little")
        regions = []
        for index in range(count):
            offset = 24 + index * 16
            base = int.from_bytes(raw[offset:offset + 8], "little")
            entries = int.from_bytes(raw[offset + 8:offset + 16], "little")
            regions.append((base, entries))
        return entry_size, regions

    def views(self) -> list:
        """Cold views (geometry only) of every listed region, in creation
        order — the log a restart finds."""
        directory = self.read()
        if directory is None:
            raise RecoveryError("no log region directory in NVRAM")
        entry_size, regions = directory
        return [CircularLog(base, entries, entry_size) for base, entries in regions]


class GrowableCircularLog(CircularLog):
    """A circular log that grows instead of overwriting active records.

    ``region_allocator(size_bytes)`` returns the base address of a fresh
    region; ``activity_token(physical_txid)`` consults the transaction-ID
    registers and returns the transaction's generation token while it is
    active (physical IDs recycle, so the token — not the ID — identifies
    the live instance).  Earlier regions freeze (append-complete) and
    stay valid for recovery.
    """

    def __init__(
        self,
        base: int,
        num_entries: int,
        entry_size: int,
        line_size: int,
        region_allocator: Callable[[int], int],
        activity_token: Callable[[int], Optional[int]],
        directory: RegionDirectory,
    ) -> None:
        super().__init__(base, num_entries, entry_size, line_size)
        self._allocator = region_allocator
        self._activity_token = activity_token
        self._directory = directory
        self._frozen: list[CircularLog] = []
        self.grow_count = 0
        self._directory.write(self._region_list(), entry_size)

    def _region_list(self) -> list:
        regions = [(log.base, log.num_entries) for log in self._frozen]
        regions.append((self.base, self.num_entries))
        return regions

    def place(self, record: LogRecord) -> PlacedRecord:
        """Place ``record``; grow first if it would overwrite an active
        transaction instance's entry."""
        slot = self.tail
        if self.wrapped and self._slot_tokens[slot] is not None:
            txid, token = self._slot_tokens[slot]
            if token is not None and self._activity_token(txid) == token:
                self._grow()
                slot = self.tail
        placed = super().place(record)
        self._slot_tokens[placed.slot] = (record.txid, self._activity_token(record.txid))
        return placed

    def reset(self) -> None:
        """Rewind the active region to an empty first pass."""
        super().reset()
        self._slot_tokens: list = [None] * self.num_entries

    def _grow(self) -> None:
        """Freeze the current ring and continue in a fresh region."""
        frozen = CircularLog(self.base, self.num_entries, self.entry_size)
        frozen.tail = self.tail
        frozen.parity = self.parity
        frozen.wrapped = self.wrapped
        self._frozen.append(frozen)
        self.base = self._allocator(self.size_bytes)
        self.reset()
        self.grow_count += 1
        self._directory.write(self._region_list(), self.entry_size)

    def region_views(self) -> list:
        """All regions in creation order (frozen first, active last)."""
        return [*self._frozen, self]

    @property
    def total_regions(self) -> int:
        """Number of regions including the active one."""
        return len(self._frozen) + 1
