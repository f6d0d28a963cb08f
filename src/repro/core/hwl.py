"""Hardware Logging (HWL) engine (Section III-B).

In the mechanism space (:mod:`repro.core.design`) this engine *is* the
``hw`` log-backend axis value: the machine instantiates it whenever
``DesignSpec.uses_hw_logging`` holds, and the ``log_content`` axis
selects which record sides (:meth:`record_undo` / :meth:`record_redo`)
are driven.

HWL piggybacks on the write-back write-allocate cache policies: every
persistent store already brings the *old* value (the write-allocated line)
and the *new* value (the in-flight store) together in the L1 cache
controller, so the engine assembles an undo+redo record with no extra
instructions and no extra data movement in the pipeline.  Records flow
through the (optional) volatile log buffer to the circular log in NVRAM.

Ordering guarantee: the engine returns the record's durability time and
the machine stamps it on the cache line as ``log_release`` — the line
cannot be written back to NVRAM earlier.  Because the log buffer depth is
below the minimum store traversal latency, this release time is in
practice already reached by the time the line could leave the hierarchy.

Wrap-around: when an append would overwrite a log entry whose data line
is still dirty in the hierarchy, the engine forces that line back first
(and the stall is charged) — the safety path the FWB scanner exists to
make rare.
"""

from __future__ import annotations

from typing import Optional

from ..sim.hierarchy import CacheHierarchy
from ..sim.stats import MachineStats
from .logrecord import LogRecord, RecordKind
from .registers import SpecialRegisters

_DATA = RecordKind.DATA


class HardwareLogging:
    """Generates undo/redo log records for persistent stores."""

    def __init__(
        self,
        router,
        hierarchy: CacheHierarchy,
        registers: SpecialRegisters,
        stats: MachineStats,
        record_undo: bool = True,
        record_redo: bool = True,
        protect_wrap: bool = True,
    ) -> None:
        self._router = router
        self._hierarchy = hierarchy
        self._registers = registers
        self._stats = stats
        self._record_undo = record_undo
        self._record_redo = record_redo
        self._protect_wrap = protect_wrap
        self._started: set[int] = set()
        self._lanes: dict = {}  # tid -> the router's (ring, buffer) lane
        self.tracer = None
        """Optional tracer (set by the machine's ``tracer`` property);
        emits one ``log_place`` event per appended record."""
        self.log_tap = None
        """Optional log-stream tap (set by the machine's ``log_tap``
        property); told of every appended record and its release time."""

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def on_tx_begin(self, txid: int, tid: int, now: float) -> None:
        """tx_begin: allocate a physical transaction ID."""
        self._registers.acquire_txid(txid)

    def on_store(
        self,
        core_id: int,
        txid: int,
        tid: int,
        addr: int,
        old: bytes,
        new: bytes,
        line_addr: int,
        now: float,
    ) -> tuple[float, float]:
        """Log one word-sized persistent store.

        ``old`` comes from the write-allocated cache line, ``new`` from
        the store itself.  Returns (stall_cycles, log_release_time).  A
        BEGIN header record is emitted before the first store of each
        transaction (step 1a of Section III-E).
        """
        physical = self._registers.physical_txid(txid)
        stall = 0.0
        if physical not in self._started:
            self._started.add(physical)
            header = LogRecord(RecordKind.BEGIN, physical, tid)
            header_stall, _ = self._append(header, tid, now)
            stall += header_stall
            now += header_stall
        record = LogRecord(
            _DATA,
            physical,
            tid,
            addr,
            old if self._record_undo else b"",
            new if self._record_redo else b"",
        )
        data_stall, release = self._append(record, tid, now)
        return stall + data_stall, release

    def on_tx_commit(self, txid: int, tid: int, now: float) -> float:
        """tx_commit: append the commit record; the transaction is
        committed once that record is durable (the "free ride" of
        Section III-D — no fence, no write-back).  Returns the commit
        durability time."""
        physical = self._registers.physical_txid(txid)
        stall, completion = (0.0, now)
        if physical in self._started:
            commit = LogRecord(RecordKind.COMMIT, physical, tid)
            stall, completion = self._append(commit, tid, now)
        self._started.discard(physical)
        self._registers.release_txid(txid)
        return completion

    # ------------------------------------------------------------------
    def _append(self, record: LogRecord, tid: int, now: float) -> tuple[float, float]:
        lane = self._lanes.get(tid)
        if lane is None:
            lane = self._lanes[tid] = self._router.lane(tid)
        log, buffer = lane
        entry_addr, payload, slot, displaced_line, _kind, _record = log.place(record)
        stall = 0.0
        displaced_dirty = False
        force_completion = None
        if displaced_line is not None and self._hierarchy.is_line_dirty(displaced_line):
            displaced_dirty = True
            if self._protect_wrap:
                completion = self._hierarchy.force_writeback(displaced_line, now)
                self._stats.log_wrap_forced_writebacks += 1
                if completion is not None:
                    force_completion = completion
                    stall = max(0.0, completion - now)
                    now += stall
        push_stall, release = buffer.push(entry_addr, payload, now)
        if self.tracer is not None:
            self.tracer.emit(
                now,
                "log_place",
                -1,
                kind=record.kind.name,
                txid=record.txid,
                tid=tid,
                addr=record.addr if record.kind is RecordKind.DATA else None,
                undo=record.undo.hex(),
                redo=record.redo.hex(),
                entry_addr=entry_addr,
                slot=slot,
                base=log.base,
                torn=payload[0] & 1,
                displaced_line=displaced_line,
                displaced_dirty=displaced_dirty,
                force_completion=force_completion,
                release=release,
            )
        if self.log_tap is not None:
            self.log_tap.on_log_place(record, entry_addr, payload, now, release)
        return stall + push_stall, release

    @property
    def active_transactions(self) -> int:
        """Transactions that have logged at least one store (visibility)."""
        return len(self._started)

    def retune(self, record_undo: bool, record_redo: bool, protect_wrap: bool) -> None:
        """Re-select record sides/wrap protection at a safe-switch barrier.

        Only legal with no in-flight transactions (the barrier quiesces
        them first): a record's sides must not change mid-transaction or
        recovery would see a mixed-content undo/redo stream.
        """
        if self._started:
            raise RuntimeError(
                "cannot retune HWL with transactions in flight "
                f"({len(self._started)} active)"
            )
        self._record_undo = record_undo
        self._record_redo = record_redo
        self._protect_wrap = protect_wrap
