"""Post-crash recovery (Section IV-F), hardened against damaged logs.

Recovery is design-agnostic: replay consumes whatever record sides the
design's ``log_content`` axis (:mod:`repro.core.design`) put in the log
— redo values for committed instances, undo values for uncommitted ones
— so the same manager serves every point of the mechanism space, and the
fault campaign exercises it against composed specs as well as the
paper's eight.

Steps, mirroring the paper:

1. Locate the valid log window.  The circular log's torn bit is constant
   within a pass and flips at each wrap, so the window boundary (the tail)
   is the first slot whose torn bit differs from slot 0's — no persistent
   head/tail pointers are needed.  Because the ring overwrites oldest
   entries first, the surviving window is always a *suffix* of log
   history, which is what makes replay sound.
2. Group records into transaction instances (physical transaction IDs are
   reused, so a BEGIN opens a new instance and a COMMIT closes it).  An
   instance is committed iff its COMMIT record lies in the window.
3. Forward pass: re-apply the redo values of committed instances in log
   order ("steal but no force": committed data may never have left the
   caches).  Reverse pass: apply the undo values of uncommitted instances
   ("steal": uncommitted data may already be in NVRAM).
4. Recovery writes bypass the caches and go directly to NVRAM; the log is
   then reset.

Damaged-log hardening (beyond the paper's discussion):

* **Torn entries.**  A log-entry write in flight at the crash may reach
  NVRAM partially.  Entries are classified via the per-record checksum
  (:meth:`~repro.core.logrecord.LogRecord.classify`); a checksum-failing
  entry at the parity frontier is the torn tail and ends the window
  (``torn_records_skipped``).  Dropping it is always safe: the record was
  not durable, and the designs order every record durable *before* its
  data, so a crash one instant earlier would have produced the same log.
* **Corrupt entries.**  A checksum or field failure *inside* the window
  (valid same-parity records follow it) or in the previous-pass remnant
  is counted in ``checksum_failures`` and skipped instead of silently
  truncating the window at the first bad slot.
* **Crash during recovery.**  Replay writes absolute values, so re-running
  an interrupted replay converges; the log reset is made crash-safe by
  first stamping slot 0 with a :func:`~repro.core.logrecord.reset_marker`
  (scanned as "region empty"), then clearing the rest, then clearing the
  marker.  A campaign can interrupt recovery deterministically by passing
  a ``crash_injector`` whose ``recovery_step()`` raises
  :class:`~repro.errors.RecoveryInterrupted` between NVRAM writes.

Every crash verifier recovers through :func:`recover_image`, which finds
the log the way a restart would — from the system's layout alone: one
central ring, one ring per thread (Section III-F), or every region the
persistent directory of a grown log lists (Section IV-A).  It replays
each independent window through :class:`RecoveryManager` and sums the
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Optional

from .growlog import RegionDirectory
from .logrecord import DecodeStatus, LogRecord, RecordKind, reset_marker
from .multilog import log_rings
from .nvlog import CircularLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.config import SystemConfig
    from ..sim.nvram import NVRAM


@dataclass
class _Instance:
    """One transaction instance reconstructed from the log window."""

    txid: int
    tid: int = 0
    last_pos: int = -1
    records: list[LogRecord] = field(default_factory=list)
    committed: bool = False


@dataclass
class RecoveryReport:
    """Summary of one recovery pass."""

    records_scanned: int = 0
    window_entries: int = 0
    committed_instances: int = 0
    uncommitted_instances: int = 0
    redo_writes: int = 0
    undo_writes: int = 0
    torn_records_skipped: int = 0
    checksum_failures: int = 0
    commits_inferred: int = 0
    """Open instances whose COMMIT record was lost to log damage but that
    a later record of the same thread proves finished (a thread runs one
    transaction at a time) — replayed as committed instead of undone."""

    @property
    def total_writes(self) -> int:
        """NVRAM writes generated during replay."""
        return self.redo_writes + self.undo_writes

    @property
    def damaged_records(self) -> int:
        """Entries the scan refused to replay (torn tail + corruption)."""
        return self.torn_records_skipped + self.checksum_failures


class RecoveryManager:
    """Replays one log window against a surviving NVRAM image.

    ``logs`` hold the window's regions, oldest first; a grown log stands
    for every region it spans (its ``region_views()``).  Crash verifiers
    build managers through :func:`recover_image`.

    ``verify_checksums=False`` falls back to the paper's bare scheme
    (magic byte + torn bit only, no per-record integrity check) — useful
    for demonstrating what torn or ghost entries do to an unchecked
    recovery.
    """

    def __init__(
        self, nvram: NVRAM, *logs: CircularLog, verify_checksums: bool = True
    ) -> None:
        self._nvram = nvram
        self._regions = [view for log in logs for view in log.region_views()]
        self._verify_checksums = verify_checksums

    # ------------------------------------------------------------------
    # Window scan
    # ------------------------------------------------------------------
    def scan_window(self, report: Optional[RecoveryReport] = None) -> list[LogRecord]:
        """Decode the valid window, oldest record first.

        With a grown log, frozen regions are scanned before the active
        one (creation order = history order).  Damage counters go into
        ``report`` when one is passed.
        """
        if report is None:
            report = RecoveryReport()
        window: list[LogRecord] = []
        for view in self._regions:
            window.extend(self._scan_region(view, report))
        return window

    def _scan_region(self, log, report: RecoveryReport) -> list[LogRecord]:
        region = self._nvram.read(log.base, log.size_bytes)  # one read per ring
        size, verify = log.entry_size, self._verify_checksums
        entries = [
            LogRecord.classify(region[offset:offset + size], verify)
            for offset in range(0, len(region), size)
        ]
        first, first_status = entries[0]
        if first_status in (DecodeStatus.EMPTY, DecodeStatus.RESET_MARKER):
            # A marker means a crash mid-reset: replay nothing; recover()
            # re-runs the reset so stale entries cannot resurface later.
            return []
        # Log writes drain FIFO, so durability is always a *prefix* of
        # append order and in-flight damage (torn entries, or entries
        # reverted to their previous-pass content) clusters at the append
        # frontier — never past it.  The last valid record in slot order
        # therefore always carries the OLD pass's torn parity, which
        # anchors the rest of the scan.  A valid record of the *newer*
        # parity in a position FIFO says cannot be durable is a
        # resurrected tear: an in-flight all-header record (BEGIN/COMMIT)
        # that kept its whole header through a torn write and still
        # checksums.  Such records are dropped, not replayed — they were
        # never durable, their transaction's data never left the caches
        # (data write-back waits on log durability), and wrap protection
        # already forced the displaced slot's data durable.
        old_parity = None
        for record, _status in reversed(entries):
            if record is not None:
                old_parity = record.torn
                break
        if old_parity is None:
            # Slot 0 is damaged and no valid record survives anywhere.
            report.torn_records_skipped += 1
            return []
        if first is None:
            # Slot 0 itself is torn or corrupt: its in-flight overwrite
            # means no current-pass record is durable, so the window is
            # exactly the previous-pass remnant in slot order.
            report.torn_records_skipped += 1
            remnant = []
            for record, status in entries[1:]:
                if record is not None:
                    if record.torn == old_parity:
                        remnant.append(record)
                    else:
                        report.torn_records_skipped += 1
                elif status in (DecodeStatus.CHECKSUM, DecodeStatus.CORRUPT):
                    report.checksum_failures += 1
            return remnant
        if first.torn == old_parity:
            # Slot 0 belongs to the oldest surviving pass: either the
            # ring never durably wrapped, or the crash reverted the wrap
            # itself (every newer-pass write was still in flight).  One
            # pass, slot order = history order.
            return self._scan_single_pass(entries, old_parity, report)
        return self._scan_two_pass(entries, first.torn, report)

    def _scan_single_pass(
        self, entries: list, parity: int, report: RecoveryReport
    ) -> list[LogRecord]:
        window: list[LogRecord] = []
        for index, (record, status) in enumerate(entries):
            if record is not None:
                if record.torn == parity:
                    window.append(record)
                else:
                    report.torn_records_skipped += 1
                continue
            if status in (DecodeStatus.EMPTY, DecodeStatus.RESET_MARKER):
                break
            # Torn or corrupt: mid-window corruption if valid same-pass
            # records follow; the torn append frontier otherwise.
            if any(
                later is not None and later.torn == parity
                for later, _status in entries[index + 1:]
            ):
                report.checksum_failures += 1
            else:
                report.torn_records_skipped += 1
                break
        return window

    def _scan_two_pass(
        self, entries: list, parity: int, report: RecoveryReport
    ) -> list[LogRecord]:
        # ``parity`` is the current (newest) pass; the durable part of
        # that pass is a contiguous run from slot 0.  The run ends at the
        # first old-parity record (the wrap boundary or a reverted
        # in-flight slot — either way the durable prefix is over), at an
        # empty slot, or at the torn append frontier.
        num = len(entries)
        boundary = num
        index = 1
        while index < num:
            record, status = entries[index]
            if record is not None:
                if record.torn != parity:
                    boundary = index
                    break
                index += 1
                continue
            if status in (DecodeStatus.EMPTY, DecodeStatus.RESET_MARKER):
                boundary = index
                break
            # Torn or corrupt: mid-window corruption iff the next valid
            # record continues the current pass; the frontier otherwise.
            nxt = next(
                (r for r, _s in entries[index + 1:] if r is not None), None
            )
            if nxt is not None and nxt.torn == parity:
                report.checksum_failures += 1
                index += 1
                continue
            report.torn_records_skipped += 1
            boundary = index
            break
        current_pass = [
            record
            for record, _status in entries[:boundary]
            if record is not None and record.torn == parity
        ]
        previous_pass = []
        for record, status in entries[boundary:]:
            if record is not None:
                if record.torn != parity:
                    previous_pass.append(record)
                else:
                    # Current-parity record past the frontier: a
                    # resurrected tear, non-durable by FIFO order.
                    report.torn_records_skipped += 1
            elif status in (DecodeStatus.CHECKSUM, DecodeStatus.CORRUPT):
                report.checksum_failures += 1
        return previous_pass + current_pass

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def recover(
        self,
        reset_log: bool = True,
        crash_injector=None,
    ) -> RecoveryReport:
        """Replay the log; optionally clear it afterwards.

        ``crash_injector`` (a :class:`~repro.faults.crashpoints
        .FaultMonitor` or anything with a ``recovery_step()`` method) is
        consulted after every recovery NVRAM write and may raise
        :class:`~repro.errors.RecoveryInterrupted` to simulate a crash
        mid-recovery; a subsequent full :meth:`recover` converges to the
        same state as an uninterrupted one.
        """
        report = RecoveryReport(
            records_scanned=sum(view.num_entries for view in self._regions)
        )
        window = self.scan_window(report)
        report.window_entries = len(window)
        open_instances: dict[int, _Instance] = {}
        ordered: list[_Instance] = []

        for pos, record in enumerate(window):
            if record.kind == RecordKind.BEGIN:
                instance = _Instance(record.txid, record.tid, pos)
                open_instances[record.txid] = instance
                ordered.append(instance)
            elif record.kind == RecordKind.DATA:
                instance = open_instances.get(record.txid)
                if instance is None:
                    # Head of this transaction was overwritten; any record
                    # still here belongs to the newest suffix of history.
                    instance = _Instance(record.txid, record.tid, pos)
                    open_instances[record.txid] = instance
                    ordered.append(instance)
                instance.records.append(record)
            elif record.kind == RecordKind.COMMIT:
                instance = open_instances.pop(record.txid, None)
                if instance is None:
                    instance = _Instance(record.txid, record.tid, pos)
                    ordered.append(instance)
                instance.committed = True
            instance.tid = record.tid
            instance.last_pos = pos

        # Lost-COMMIT inference: a thread runs one transaction at a time,
        # so an open instance followed by a *later* record of the same
        # thread necessarily finished — its COMMIT record was destroyed
        # (torn overwrite) or overwritten by the wrap.  Replaying it as
        # committed is the only sound choice: its durable data must not
        # be rolled back.  Truly in-flight transactions sit at the append
        # frontier, have no same-thread successor, and are still undone.
        newest_tid_pos: dict[int, int] = {}
        for pos, record in enumerate(window):
            newest_tid_pos[record.tid] = pos
        for instance in ordered:
            if instance.committed:
                continue
            if newest_tid_pos.get(instance.tid, -1) > instance.last_pos:
                instance.committed = True
                report.commits_inferred += 1

        # Forward pass: redo committed instances in log order.
        for instance in ordered:
            if not instance.committed:
                continue
            report.committed_instances += 1
            for record in instance.records:
                if record.has_redo:
                    _persist(self._nvram, record.addr, record.redo, crash_injector)
                    report.redo_writes += 1

        # Reverse pass: undo uncommitted instances, newest record first.
        for instance in reversed(ordered):
            if instance.committed:
                continue
            report.uncommitted_instances += 1
            for record in reversed(instance.records):
                if record.has_undo:
                    _persist(self._nvram, record.addr, record.undo, crash_injector)
                    report.undo_writes += 1

        if reset_log:
            reset_log_regions(self._nvram, self._regions, crash_injector)
        return report


def _persist(nvram: NVRAM, addr: int, data: bytes, crash_injector) -> None:
    """One recovery NVRAM write, then the crash injector's step."""
    nvram.poke(addr, data)
    if crash_injector is not None:
        crash_injector.recovery_step()


def reset_log_regions(nvram: NVRAM, regions, crash_injector=None) -> None:
    """Invalidate every entry of ``regions`` and rewind each to empty.

    The multi-write reset is crash-safe: slot 0 is first stamped with
    the reset marker (a region whose slot 0 holds the marker scans as
    empty), the remaining entries are cleared, and the marker is
    cleared last.  A crash anywhere in between leaves either a fully
    valid window (marker not yet durable — but slot 0 is always the
    first write, so only a torn marker is possible, which classify
    treats as a torn slot 0 over an otherwise intact window) or a
    marked-empty region; a second recovery converges either way.
    Recovery and the safe-switch barrier both truncate this way.
    """
    for view in regions:
        marker = reset_marker(view.entry_size)
        zero = bytes(view.entry_size)
        _persist(nvram, view.entry_addr(0), marker, crash_injector)
        for slot in range(1, view.num_entries):
            _persist(nvram, view.entry_addr(slot), zero, crash_injector)
        _persist(nvram, view.entry_addr(0), zero, crash_injector)
        view.reset()


def cold_windows(nvram: NVRAM, system: SystemConfig) -> list:
    """The log windows a restart finds in ``nvram`` under ``system``'s
    layout, each a list of cold region views (geometry only: no volatile
    ring state survives a crash) that replays independently.

    The centralized log is one window and per-thread rings are one
    window each.  A grown log is one window over every region its
    persistent directory lists, in creation order.
    """
    if system.logging.enable_log_grow:
        return [RegionDirectory.below(nvram, system.log_base).views()]
    return [[ring] for ring in log_rings(system)]


def recover_image(
    nvram: NVRAM, system: SystemConfig, *, crash_injector=None
) -> RecoveryReport:
    """Recover a crashed image the way a restart would; returns the sum
    of every window's report.

    Every window of :func:`cold_windows` is replayed and its log reset.
    ``crash_injector`` sees every recovery write of every window (see
    :meth:`RecoveryManager.recover`).
    """
    total = RecoveryReport()
    for window in cold_windows(nvram, system):
        report = RecoveryManager(nvram, *window).recover(crash_injector=crash_injector)
        for item in fields(RecoveryReport):
            name = item.name
            setattr(total, name, getattr(total, name) + getattr(report, name))
    return total
