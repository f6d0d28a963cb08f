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

A BEGIN or COMMIT marker carries no address or value: its entry is a
function of its kind, physical transaction ID, thread ID, the pass
parity and the entry size alone.  Each log encodes a distinct marker
once per parity and reuses the bytes, so the marker table is bounded by
that key space, not by the number of transactions.
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


_placed = tuple.__new__
"""Builds a :class:`PlacedRecord` from a tuple without the NamedTuple's
Python-level ``__new__`` frame (:meth:`CircularLog.place` runs once per
log record)."""
_DATA = RecordKind.DATA


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
        self.appended = 0
        # Encoded markers by record, one table per pass parity.
        self._markers: tuple = ({}, {})
        self.reset()

    def reset(self) -> None:
        """Rewind to an empty first pass (the region holds no entry)."""
        self.tail = 0
        self.head = 0
        self.parity = 1  # zeroed NVRAM decodes as invalid; first pass writes torn=1
        self.wrapped = False
        # Volatile shadow of what lives in each slot, for wrap protection.
        self._slot_lines: list[Optional[int]] = [None] * self.num_entries
        self._slot_kinds: list[Optional[RecordKind]] = [None] * self.num_entries

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
        writing the new entry.  ``record.kind`` is tested by identity, so
        it must be a :class:`RecordKind` member (as every record the
        package builds carries).
        """
        slot = self.tail
        if self.wrapped:
            displaced_line = self._slot_lines[slot]
            displaced_kind = self._slot_kinds[slot]
        else:
            displaced_line = displaced_kind = None
        kind = record.kind
        if kind is _DATA:
            payload = record.encode(self.entry_size, self.parity)
            addr = record.addr
            line = addr - (addr % self._line_size)
        else:
            markers = self._markers[self.parity]
            payload = markers.get(record)
            if payload is None:
                payload = markers[record] = record.encode(self.entry_size, self.parity)
            line = None
        self._slot_lines[slot] = line
        self._slot_kinds[slot] = kind
        self.tail += 1
        self.appended += 1
        if self.tail == self.num_entries:
            self.tail = 0
            self.parity ^= 1
            self.wrapped = True
        return _placed(
            PlacedRecord,
            (
                self.base + slot * self.entry_size,
                payload,
                slot,
                displaced_line,
                displaced_kind,
                record,
            ),
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
