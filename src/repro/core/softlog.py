"""Software logging baselines (Figure 1 / Figure 2(a) of the paper).

This module is the ``sw`` log-backend axis value in the mechanism space
(:mod:`repro.core.design`); the machine wires it for any design with
``DesignSpec.uses_sw_logging`` and passes the ``log_content`` axis down
as the ``record_undo`` / ``record_redo`` constructor flags.

Software logging runs as *instructions*: per logged word an undo scheme
loads the old value and stores a log record; a redo scheme stores the new
value to the log before the in-place store may proceed.  This module only
builds and places the records; the transaction runtime
(:mod:`repro.txn.runtime`) issues the corresponding core ops — an
explicit load, the uncacheable log store, ``clwb`` and ``sfence`` (the
``Core.exec_*`` methods) — so that the pipeline and memory-traffic
overheads the paper measures appear naturally.
"""

from __future__ import annotations

from .logrecord import LogRecord, RecordKind
from .nvlog import CircularLog, PlacedRecord
from .registers import SpecialRegisters


class SoftwareLog:
    """Builds and places software log records in the circular log."""

    def __init__(
        self,
        log: CircularLog,
        registers: SpecialRegisters,
        record_undo: bool,
        record_redo: bool,
    ) -> None:
        self._log = log
        self._registers = registers
        self._record_undo = record_undo
        self._record_redo = record_redo

    @property
    def records_undo(self) -> bool:
        """True when old values are logged."""
        return self._record_undo

    @property
    def records_redo(self) -> bool:
        """True when new values are logged."""
        return self._record_redo

    def retune(self, record_undo: bool, record_redo: bool) -> None:
        """Re-select record sides at a safe-switch barrier (the caller
        guarantees no transaction is in flight)."""
        self._record_undo = record_undo
        self._record_redo = record_redo

    def begin(self, txid: int, tid: int) -> PlacedRecord:
        """Place the transaction's header record (tx_begin)."""
        self._registers.acquire_txid(txid)
        physical = self._registers.physical_txid(txid)
        return self._log.place(LogRecord(RecordKind.BEGIN, physical, tid))

    def data(
        self, txid: int, tid: int, addr: int, old: bytes, new: bytes
    ) -> PlacedRecord:
        """Place a data record for one logged word."""
        physical = self._registers.physical_txid(txid)
        record = LogRecord(
            RecordKind.DATA,
            physical,
            tid,
            addr,
            undo=old if self._record_undo else b"",
            redo=new if self._record_redo else b"",
        )
        return self._log.place(record)

    def commit(self, txid: int, tid: int) -> PlacedRecord:
        """Place the commit record and release the physical txid."""
        physical = self._registers.physical_txid(txid)
        placed = self._log.place(LogRecord(RecordKind.COMMIT, physical, tid))
        self._registers.release_txid(txid)
        return placed
