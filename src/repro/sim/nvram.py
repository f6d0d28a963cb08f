"""Byte-addressable NVRAM device: functional image plus bank/row state.

The device owns the persistent byte image and the per-bank row-buffer
state used by the memory controller for timing.  For crash testing it also
keeps an *undo journal* of recently applied writes so that
:meth:`revert_after` can discard writes that had been posted but were not
yet durable at the crash instant (writes still in the controller's queues
or in flight on the banks are, architecturally, volatile).

Device memory follows what a run writes, by two rules:

* *Allocation.*  Every image is a private anonymous mapping
  (:func:`_map_image`): the kernel zero-fills a page on first touch, so a
  run that writes its heap prefix and the log at the top of a
  multi-megabyte device makes only those pages resident.  The mapping is
  private, so a forked worker that writes into an inherited buffer gets
  its own copy of the page.  Finished devices :meth:`recycle` their
  buffer into a per-process pool.  The device tracks the extent of all
  writes as two windows — a low-address one (the heap grows up from the
  bottom) and a high-address one (the log region sits at the top) — and
  re-zeroes only those windows on recycle.
* *Snapshots.*  Copies, restores and comparisons cover those two windows
  only: :meth:`snapshot` returns an :class:`ImageSnapshot`,
  :meth:`restore` loads one into a fresh device, and snapshots compare
  by contents.  An image buffer itself compares by identity, so
  ``==``/``!=`` on ``nvram.image`` is never a contents check (``repro
  lint``'s ``device-image-eq`` rule flags it).

Workload set-up does not come through here word by word: its accessor
(:class:`~repro.workloads.base.SetupAccessor`) reads and writes aligned
words through a ``memoryview(image).cast("Q")`` view of the image, and
:meth:`poke` carries only byte strings and whole-slice fills.  Writes
through the view bypass :meth:`poke`, so the accessor first claims the
range it writes with :meth:`claim_written`, which keeps every set-up byte
inside the dirty extent.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

from ..errors import AddressError, SimulationError
from .config import NVDimmConfig


def _map_image(size: int) -> mmap.mmap:
    """A zeroed device image of ``size`` bytes whose pages exist once touched.

    The one allocation site for device images.  ``MAP_PRIVATE`` keeps a
    forked child's writes out of its parent's buffer (anonymous maps
    default to shared).
    """
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)


@dataclass(frozen=True, eq=False)
class ImageSnapshot:
    """The contents of a ``size``-byte image, held as its two windows.

    ``low`` is the image's ``[0, len(low))`` and ``high`` its
    ``[hi_start, size)``; every other byte is zero.  Two snapshots are
    equal exactly when the images they describe are, whatever windows
    each was taken over.
    """

    size: int
    low: bytes
    hi_start: int
    high: bytes

    def __len__(self) -> int:
        return self.size

    def tobytes(self) -> bytes:
        """The whole image (hashing and debugging; allocates ``size``)."""
        image = bytearray(self.size)
        image[: len(self.low)] = self.low
        image[self.hi_start :] = self.high
        return bytes(image)

    def spans(self, other: "ImageSnapshot") -> tuple:
        """``(mine, theirs)``: two same-size images over their windows.

        Each side is a list of byte strings covering the same address
        ranges, in order: the union of both snapshots' windows, widened
        to whole 8-byte words.  A byte outside both is zero in both
        images and is left out.
        """
        if self.size != other.size:
            raise ValueError(f"images of {self.size} and {other.size} bytes")
        lo = -(-max(len(self.low), len(other.low)) // 8) * 8
        hi = min(self.hi_start, other.hi_start) // 8 * 8
        if lo >= hi:  # the windows meet: compare whole images
            return [self.tobytes()], [other.tobytes()]
        tail = self.size - hi
        return (
            [self.low.ljust(lo, b"\0"), self.high.rjust(tail, b"\0")],
            [other.low.ljust(lo, b"\0"), other.high.rjust(tail, b"\0")],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImageSnapshot):
            return NotImplemented
        if self.size != other.size:
            return False
        mine, theirs = self.spans(other)
        return mine == theirs

    __hash__ = None  # equal contents, different windows: no stable hash


class NVRAM:
    """NVRAM DIMM: persistent image, banks, row buffers, traffic counters."""

    #: Recycled image buffers by size, shared within the process (sweeps
    #: build one machine per cell; a reused buffer keeps the pages its
    #: earlier runs wrote, re-zeroed, so a like run takes no fresh page
    #: faults).
    _image_pool: dict[int, list[mmap.mmap]] = {}
    _IMAGE_POOL_LIMIT = 4

    def __init__(self, config: NVDimmConfig) -> None:
        config.validate()
        self.config = config
        self._size = config.size_bytes
        pool = NVRAM._image_pool.get(self._size)
        self.image = pool.pop() if pool else _map_image(self._size)
        # Dirty-extent windows: every byte that may differ from zero lies
        # in [0, _lo_hwm) or [_hi_lwm, size).  Two windows match the
        # bimodal write pattern (heap at the bottom, log at the top); a
        # write anywhere still lands in one of them, it just widens it.
        self._mid = self._size // 2
        self._lo_hwm = 0
        self._hi_lwm = self._size
        self._row_buffers = config.row_buffers_per_bank
        # Per-bank open rows (LRU list, newest last; the cited PCM design
        # has several row buffers per bank) and next-free times.  The
        # memory controller maps addresses to banks and rows; reads and
        # writes are tracked separately because it schedules reads with
        # priority and drains posted writes in the gaps (see
        # MemoryController).
        self.open_rows: list[list[int]] = [[] for _ in range(config.num_banks)]
        self.bank_read_free: list[float] = [0.0] * config.num_banks
        self.bank_write_free: list[float] = [0.0] * config.num_banks
        # Undo journal: (completion_time, addr, old_bytes).
        self._journal: list[tuple[float, int, bytes]] = []
        # Latest instant retire_journal dropped entries at: a crash
        # before it could no longer revert what was dropped.
        self._retired_to = 0.0
        self.total_read_bytes = 0
        self.total_write_bytes = 0
        self.injector = None
        """Optional :class:`~repro.faults.plan.FaultInjector`: decides
        what in-flight writes leave behind at a crash (torn writes)."""
        self.tracer = None
        """Optional tracer (set by the machine's ``tracer`` property);
        emits one ``nvram_write`` event per timed write.  ``poke`` and
        bulk image restores are untimed setup paths and never emit."""
        self.log_tap = None
        """Optional log-stream tap (set by the machine's ``log_tap``
        property); told of every timed write, like the tracer."""

    def row_buffer_access(self, bank: int, row: int) -> bool:
        """Touch ``row`` in ``bank``'s row buffers; True on a hit."""
        rows = self.open_rows[bank]
        if row in rows:
            rows.remove(row)
            rows.append(row)
            return True
        rows.append(row)
        if len(rows) > self._row_buffers:
            rows.pop(0)
        return False

    # ------------------------------------------------------------------
    # Functional access
    # ------------------------------------------------------------------
    def read(self, addr: int, size: int) -> bytes:
        """Functional read of ``size`` bytes (no timing)."""
        end = addr + size
        if addr < 0 or size < 0 or end > self._size:
            raise AddressError(
                f"NVRAM read out of range: addr={addr:#x} size={size} "
                f"limit={self._size:#x}"
            )
        self.total_read_bytes += size
        return self.image[addr:end]

    def peek(self, addr: int, size: int) -> bytes:
        """Read without touching traffic counters (for recovery/tests)."""
        end = addr + size
        if addr < 0 or size < 0 or end > self._size:
            raise AddressError(
                f"NVRAM peek out of range: addr={addr:#x} size={size} "
                f"limit={self._size:#x}"
            )
        return self.image[addr:end]

    def write(self, addr: int, data: bytes, completion_time: float = 0.0) -> None:
        """Apply a write that becomes durable at ``completion_time``.

        The write is applied to the image immediately (the simulator is
        functional-first); the overwritten bytes are journaled so
        :meth:`revert_after` can undo writes that were still in flight at
        a crash.
        """
        size = len(data)
        end = addr + size
        if addr < 0 or end > self._size:
            raise AddressError(
                f"NVRAM write out of range: addr={addr:#x} size={size} "
                f"limit={self._size:#x}"
            )
        image = self.image
        self._journal.append((completion_time, addr, image[addr:end]))
        image[addr:end] = data
        if addr < self._mid:
            if end > self._lo_hwm:
                self._lo_hwm = end
        elif addr < self._hi_lwm:
            self._hi_lwm = addr
        self.total_write_bytes += size
        if self.tracer is not None:
            self.tracer.emit(
                completion_time,
                "nvram_write",
                -1,
                addr=addr,
                size=size,
                completion=completion_time,
            )
        if self.log_tap is not None:
            self.log_tap.on_nvram_write(addr, size, completion_time)

    def poke(self, addr: int, data: bytes) -> None:
        """Write without timing, journaling, or counters (setup/recovery)."""
        end = addr + len(data)
        if addr < 0 or end > self._size:
            raise AddressError(
                f"NVRAM poke out of range: addr={addr:#x} size={len(data)} "
                f"limit={self._size:#x}"
            )
        self.image[addr:end] = data
        if addr < self._mid:
            if end > self._lo_hwm:
                self._lo_hwm = end
        elif addr < self._hi_lwm:
            self._hi_lwm = addr

    def load_image_prefix(self, data: bytes) -> None:
        """Bulk-restore ``data`` at address 0 (prepared-workload restore)."""
        if len(data) > self._size:
            raise AddressError(
                f"image prefix of {len(data)} bytes exceeds device size {self._size}"
            )
        self.image[: len(data)] = data
        if len(data) > self._lo_hwm:  # address 0 lies in the low window
            self._lo_hwm = len(data)

    def claim_written(self, end: int) -> int:
        """Widen the low dirty window to cover ``[0, end)``; returns its end.

        For writers that bypass :meth:`poke`: they claim a range here
        before writing into the image directly.
        """
        end = min(end, self._size)
        if end > self._lo_hwm:
            self._lo_hwm = end
        return self._lo_hwm

    def written_extent(self) -> tuple[int, int]:
        """The dirty-extent windows as ``(lo_end, hi_start)``.

        All bytes that may differ from zero lie in ``[0, lo_end)`` or
        ``[hi_start, size)``.
        """
        return self._lo_hwm, self._hi_lwm

    def snapshot(self, end: int | None = None) -> ImageSnapshot:
        """Copy the written windows of ``image[:end]`` (default: all of it)."""
        end = self._size if end is None else min(end, self._size)
        lo = min(self._lo_hwm, end)
        hi = min(max(self._hi_lwm, lo), end)  # the high window past ``low``
        return ImageSnapshot(end, self.image[:lo], hi, self.image[hi:end])

    def restore(self, snapshot: ImageSnapshot) -> None:
        """Load ``snapshot``, taken of a device this size, into this fresh one."""
        if snapshot.size != self._size:
            raise AddressError(
                f"snapshot of {snapshot.size} bytes does not fit a "
                f"{self._size}-byte device"
            )
        self.load_image_prefix(snapshot.low)
        if snapshot.high:
            self.poke(snapshot.hi_start, snapshot.high)

    def recycle(self) -> None:
        """Re-zero the written extents and return the buffer to the pool.

        Only call when the device (and its machine) will not be used
        again — sweeps do this after extracting a cell's stats.  The
        image is detached so any later access fails loudly rather than
        reading a reused buffer.
        """
        image = self.image
        if image is None:
            return
        self.image = None
        image[: self._lo_hwm] = bytes(self._lo_hwm)
        if self._hi_lwm < self._size:
            image[self._hi_lwm:] = bytes(self._size - self._hi_lwm)
        pool = NVRAM._image_pool.setdefault(self._size, [])
        if len(pool) < NVRAM._IMAGE_POOL_LIMIT:
            pool.append(image)

    # ------------------------------------------------------------------
    # Crash support
    # ------------------------------------------------------------------
    def retire_journal(self, now: float) -> None:
        """Drop journal entries already durable at ``now`` (bounds memory).

        Once an entry is dropped, ``now`` becomes the device's retire
        horizon: :meth:`revert_after` refuses crash instants before it.
        """
        journal = self._journal
        if not journal:
            return
        keep = [entry for entry in journal if entry[0] > now]
        if len(keep) < len(journal) and now > self._retired_to:
            self._retired_to = now
        self._journal = keep

    def revert_after(self, crash_time: float) -> int:
        """Undo writes whose durability time is after ``crash_time``.

        Entries are reverted in reverse application order, which restores
        the image to exactly the set of writes durable at the crash (writes
        to the same address are serviced FIFO by their bank, so the lost
        set is a per-address suffix).  Returns the number of reverted
        writes.

        An installed fault injector may *tear* an in-flight write instead
        of fully reverting it (:meth:`~repro.faults.plan.FaultInjector
        .on_revert`): part of the new data persists, modelling a write
        that was partially transferred at the power cut.

        Raises :class:`~repro.errors.SimulationError` when ``crash_time``
        lies before the retire horizon (see :meth:`retire_journal`):
        writes durable between the two instants are gone from the
        journal, and keeping them would silently misstate the crash.
        """
        if crash_time < self._retired_to:
            raise SimulationError(
                f"cannot crash at cycle {crash_time}: the undo journal was "
                f"retired up to cycle {self._retired_to}, so writes durable "
                "in between can no longer be reverted"
            )
        injector = self.injector
        reverted = 0
        for completion, addr, old in reversed(self._journal):
            if completion > crash_time:
                left = old
                if injector is not None:
                    new = self.image[addr:addr + len(old)]
                    left = injector.on_revert(addr, old, new)
                self.image[addr:addr + len(old)] = left
                reverted += 1
        self._journal = []
        return reverted

    @property
    def journal_length(self) -> int:
        """Number of not-yet-retired journal entries (test visibility)."""
        return len(self._journal)
