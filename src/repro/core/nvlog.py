"""Single-producer single-consumer circular log in NVRAM (Section III-A).

The log is a fixed-size ring of fixed-size entries.  Appends advance the
tail; the torn bit carried by every record is the current *pass parity*,
which flips each time the tail wraps — "torn bits have the same value for
all entries in one pass over the log, but reverses when a log entry is
overwritten".  Recovery uses the parity boundary to find the tail without
any persistent pointer (:mod:`repro.core.recovery`).

Wrap-around protection: before an entry is overwritten, the data line it
covers must be durable (otherwise a crash could find neither the log
record nor the data).  :meth:`place` reports the line address of the entry
about to be overwritten so the caller (the HWL engine or the software
logging layer) can force a write-back first — the "log full" path whose
cost the FWB mechanism exists to avoid.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..errors import LogError
from .logrecord import LogRecord, RecordKind


class PlacedRecord(NamedTuple):
    """Result of placing a record: where to write it and what it displaces."""

    addr: int
    payload: bytes
    slot: int
    displaced_line: Optional[int]
    displaced_kind: Optional[RecordKind]
    record: LogRecord
    """The record as given to :meth:`CircularLog.place` (``payload`` is
    its encoding, stamped with the pass parity)."""


class CircularLog:
    """Address and parity management for the circular log region."""

    def __init__(
        self,
        base: int,
        num_entries: int,
        entry_size: int,
        line_size: int = 64,
    ) -> None:
        if num_entries <= 0:
            raise LogError("log must have at least one entry")
        self.base = base
        self.num_entries = num_entries
        self.entry_size = entry_size
        self._line_size = line_size
        self.tail = 0
        self.head = 0
        self.parity = 1  # zeroed NVRAM decodes as invalid; first pass writes torn=1
        self.wrapped = False
        self.appended = 0
        # Volatile shadow of what lives in each slot, for wrap protection.
        self._slot_lines: list[Optional[int]] = [None] * num_entries
        self._slot_kinds: list[Optional[RecordKind]] = [None] * num_entries

    @property
    def size_bytes(self) -> int:
        """Total byte size of the log region."""
        return self.num_entries * self.entry_size

    @property
    def end(self) -> int:
        """One past the last byte of the log region."""
        return self.base + self.size_bytes

    def entry_addr(self, slot: int) -> int:
        """NVRAM address of entry ``slot``."""
        if not 0 <= slot < self.num_entries:
            raise LogError(f"slot {slot} out of range")
        return self.base + slot * self.entry_size

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def place(self, record: LogRecord) -> PlacedRecord:
        """Assign the next slot to ``record`` and advance the tail.

        Returns the placement plus the *displaced* line address (the data
        line whose log entry is being overwritten) when the ring has
        wrapped; the caller must ensure that line is durable before
        writing the new entry.
        """
        slot = self.tail
        displaced_line = self._slot_lines[slot] if self.wrapped else None
        displaced_kind = self._slot_kinds[slot] if self.wrapped else None
        payload = record.encode(self.entry_size, self.parity)
        line = None
        if record.kind == RecordKind.DATA:
            line = record.addr - (record.addr % self._line_size)
        self._slot_lines[slot] = line
        self._slot_kinds[slot] = record.kind
        self.tail += 1
        self.appended += 1
        if self.tail == self.num_entries:
            self.tail = 0
            self.parity ^= 1
            self.wrapped = True
        return PlacedRecord(
            self.base + slot * self.entry_size,
            payload,
            slot,
            displaced_line,
            displaced_kind,
            record,
        )

    # ------------------------------------------------------------------
    # Truncation (system-software side, log_truncate())
    # ------------------------------------------------------------------
    def truncate(self, entries: int) -> None:
        """Advance the head by ``entries`` (release consumed records)."""
        if entries < 0:
            raise LogError("cannot truncate a negative number of entries")
        self.head = (self.head + entries) % self.num_entries

    @property
    def live_entries(self) -> int:
        """Entries between head and tail (whole ring once wrapped)."""
        if self.wrapped:
            return self.num_entries
        return self.tail - self.head

    def region_views(self) -> list:
        """Regions to scan during recovery (one, for the base ring)."""
        return [self]
