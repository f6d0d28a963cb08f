"""The dynamic persistency-ordering checker (psan).

:class:`PersistOrderChecker` consumes the trace-event stream of one run
(see :mod:`repro.sim.events` for the schema) and verifies the ordering
invariants the paper's designs claim — see :data:`~repro.sanitizer.rules
.RULES` for the rule-by-rule statement.

The checker is a pure stream consumer: it never touches the machine, so
it can run live (subscribed to a :class:`~repro.sim.trace.Tracer`) or
offline over a saved JSONL trace.  Two structural facts about the stream
shape how it works:

* **Completion times are future values.**  ``nvram_write`` events are
  emitted when a write is *posted*, carrying the (already computed)
  completion time.  Rules that compare durability instants therefore
  accumulate observations during the stream and evaluate at
  :meth:`finish`, when every completion referenced has been seen.
* **Placement precedes the store.**  Both the hardware engine and the
  software runtime emit ``log_place`` before the corresponding ``store``
  event, so per-store rules (undo presence) can be checked inline.

Transactions are joined by thread id: the runner binds ``tid ==
core_id``, records carry ``tid`` in their headers, and ``store`` events
are attributed to the open transaction of their core's thread.  Physical
transaction IDs recycle (16-bit field), so they are reported but never
used as a join key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..core.design import DesignSpec, resolve_design
from ..utils import WORD_SIZE, align_down
from .rules import (
    LOGGING_RULES,
    RULES,
    PsanDiagnostic,
    PsanReport,
    claims_guarantee,
)

_EPS = 1e-6


@dataclass
class _Rec:
    """One placed log record, as seen by the checker."""

    kind: str
    txid: int
    tid: int
    addr: Optional[int]
    has_undo: bool
    has_redo: bool
    place_time: float
    entry_addr: int
    slot: int
    base: int
    durable: Optional[float] = None
    force_completion: Optional[float] = None
    displaced_dirty: bool = False


@dataclass
class _Txn:
    """One transaction's accumulated state."""

    tid: int
    txid: int
    begin_time: float
    stores: dict = field(default_factory=dict)  # piece addr -> store time
    word_stores: dict = field(default_factory=dict)  # word base -> set of piece addrs
    logged: dict = field(default_factory=dict)  # piece addr -> _Rec (DATA)
    records: list = field(default_factory=list)  # all DATA _Recs, in order
    commit_rec: Optional[_Rec] = None
    commit_time: Optional[float] = None
    reported: Optional[float] = None

    #: Minimum NVRAM completion of a heap write covering each stored
    #: piece, observed after the store (None until seen).
    data_durable: dict = field(default_factory=dict)

    @property
    def committed(self) -> bool:
        return self.commit_time is not None

    def commit_durable(self) -> Optional[float]:
        if self.commit_rec is None:
            return None
        return self.commit_rec.durable


class PersistOrderChecker:
    """Streaming verifier for the paper's persistency-ordering rules."""

    def __init__(self) -> None:
        self.policy: Optional[DesignSpec] = None
        self._enabled = True
        self._heap_base = 0
        self._heap_limit = 0
        self._entry_size = 64
        self._log_regions: list = []
        self._open: dict = {}  # tid -> _Txn
        self._last_closed: dict = {}  # tid -> _Txn
        self._txns: list = []
        self._word_owner: dict = {}  # word base -> _Txn
        self._pending_by_entry: dict = {}  # entry addr -> _Rec awaiting durability
        self._heap_obs: list = []  # (word base, completion, owner _Txn)
        self._slot_torn: dict = {}  # (log base, slot) -> last torn bit
        self._last_push: dict = {}  # buffer id -> last completion
        self._max_record_durable = 0.0  # latest known record completion
        self._crashed = False
        self._events = 0
        self.diagnostics: list = []
        self.tracer = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @staticmethod
    def meta_for(machine) -> dict:
        """The ``meta`` event detail describing ``machine``'s geometry."""
        return {
            "policy": machine.policy.value,
            "heap_base": machine.heap_base,
            "heap_limit": machine.heap_limit,
            "line_size": machine.config.line_size,
            "log_entry_size": machine.config.logging.log_entry_size,
            "log_regions": [
                [log.base, log.num_entries * log.entry_size] for log in machine.logs
            ],
        }

    @classmethod
    def attach(cls, machine, keep_events: bool = False):
        """Attach a fresh checker and tracer to ``machine``.

        Emits the ``meta`` event into the stream so a trace saved from
        this tracer can be re-checked offline, then subscribes the
        checker.  Returns the checker; its :attr:`tracer` is the tracer.
        The checker consumes each event as it is emitted, so the
        tracer's ring keeps events only when ``keep_events`` (a saved
        trace reads them).
        """
        from ..sim.trace import Tracer

        tracer = Tracer(capacity=1_000_000 if keep_events else 0)
        checker = cls()
        machine.tracer = tracer
        tracer.subscribe(checker.feed)
        tracer.emit(0.0, "meta", -1, **cls.meta_for(machine))
        checker.tracer = tracer
        return checker

    @classmethod
    def check_events(cls, events: Iterable) -> PsanReport:
        """Run the checker over an iterable of already-recorded events."""
        checker = cls()
        for event in events:
            checker.feed(event)
        return checker.finish()

    # ------------------------------------------------------------------
    # Stream consumption
    # ------------------------------------------------------------------
    def feed(self, event) -> None:
        """Consume one :class:`~repro.sim.trace.TraceEvent`."""
        self._events += 1
        if not self._enabled:
            return
        handler = self._DISPATCH.get(event.kind)
        if handler is not None:
            handler(self, event)

    def _on_meta(self, event) -> None:
        d = event.detail
        # The meta event carries the design's name (canonical or a
        # mechanism string); both resolve through the registry, so rule
        # gating works for custom ablation specs too.
        self.policy = resolve_design(d["policy"])
        self._heap_base = d["heap_base"]
        self._heap_limit = d["heap_limit"]
        self._entry_size = d.get("log_entry_size", 64)
        self._log_regions = [tuple(region) for region in d.get("log_regions", ())]
        if not (self.policy.uses_hw_logging or self.policy.uses_sw_logging):
            # No log backend, no persistence claim: nothing to check.
            self._enabled = False

    def _on_tx_begin(self, event) -> None:
        tid = event.detail["tid"]
        self._open[tid] = _Txn(tid, event.detail["txid"], event.time)

    def _on_tx_commit(self, event) -> None:
        tid = event.detail["tid"]
        txn = self._open.pop(tid, None)
        if txn is None:
            return
        txn.commit_time = event.time
        self._last_closed[tid] = txn
        self._txns.append(txn)

    def _on_commit_reported(self, event) -> None:
        txn = self._last_closed.get(event.detail["tid"])
        if txn is not None and txn.reported is None:
            txn.reported = event.detail["durable"]

    def _on_store(self, event) -> None:
        d = event.detail
        addr = d["addr"]
        if not (self._heap_base <= addr < self._heap_limit):
            return
        tid = event.core  # runner convention: tid == core_id
        txn = self._open.get(tid)
        word = align_down(addr, WORD_SIZE)
        if txn is None:
            self._check_post_txn_store(event, tid, addr, word)
            return
        txn.stores[addr] = event.time
        txn.word_stores.setdefault(word, set()).add(addr)
        self._word_owner[word] = txn
        # undo-missing: an in-place store during an open transaction must
        # be preceded by an undo-carrying DATA record for that word
        # (software redo logging defers the store instead, so its
        # transactional writes never reach this path).
        if self.policy.defers_in_place_stores:
            return
        rec = txn.logged.get(addr)
        if rec is None or not rec.has_undo:
            why = (
                "no log record placed"
                if rec is None
                else "record placed but carries no undo value"
            )
            self._report(
                "undo-missing",
                f"in-place store at {addr:#x} during open transaction "
                f"{txn.txid} has no undo record ({why})",
                event.time,
                core=event.core,
                addr=addr,
                txid=txn.txid,
                tid=tid,
                provenance=(
                    f"{txn.begin_time:.0f} tx_begin tid={tid} txid={txn.txid}",
                    f"{event.time:.0f} store core={event.core} addr={addr:#x}",
                ),
            )

    def _check_post_txn_store(self, event, tid: int, addr: int, word: int) -> None:
        """A timed heap store outside any transaction.

        Software redo logging legitimately flushes its deferred in-place
        stores right after commit; those target words of the just-committed
        transaction's logged write set.  Anything else is an unlogged
        persistent mutation.
        """
        last = self._last_closed.get(tid)
        if (
            self.policy.defers_in_place_stores
            and last is not None
            and addr in last.logged
        ):
            # The deferred store's durability feeds redo-missing's data
            # tracking for the owning transaction.
            last.stores.setdefault(addr, event.time)
            last.word_stores.setdefault(word, set()).add(addr)
            self._word_owner[word] = last
            return
        self._report(
            "unlogged-mutation",
            f"persistent heap store at {addr:#x} outside any transaction",
            event.time,
            core=event.core,
            addr=addr,
            tid=tid,
            provenance=(
                f"{event.time:.0f} store core={event.core} addr={addr:#x} "
                f"(no open transaction for tid={tid})",
            ),
        )

    def _on_log_place(self, event) -> None:
        d = event.detail
        rec = _Rec(
            kind=d["kind"],
            txid=d["txid"],
            tid=d["tid"],
            addr=d["addr"],
            has_undo=bool(d["undo"]),
            has_redo=bool(d["redo"]),
            place_time=event.time,
            entry_addr=d["entry_addr"],
            slot=d["slot"],
            base=d["base"],
            durable=d["release"],
            force_completion=d.get("force_completion"),
            displaced_dirty=bool(d.get("displaced_dirty")),
        )
        if rec.durable is None:
            # Software record: durability resolves when the WCB-drained
            # line's NVRAM write is observed for this entry.
            self._pending_by_entry[rec.entry_addr] = rec
        else:
            self._max_record_durable = max(self._max_record_durable, rec.durable)
        txn = self._open.get(rec.tid)
        if txn is not None:
            if rec.kind == "DATA" and rec.addr is not None:
                txn.logged[rec.addr] = rec
                txn.records.append(rec)
            elif rec.kind == "COMMIT":
                txn.commit_rec = rec
        # torn-parity: each pass over the circular log flips the bit.
        key = (rec.base, rec.slot)
        prev = self._slot_torn.get(key)
        if prev is not None and prev == d["torn"]:
            self._report(
                "torn-parity",
                f"record overwrote log slot {rec.slot} (base {rec.base:#x}) "
                f"without flipping the torn bit (still {d['torn']})",
                event.time,
                core=event.core,
                txid=rec.txid,
                tid=rec.tid,
                provenance=(
                    f"{event.time:.0f} log_place slot={rec.slot} torn={d['torn']}",
                ),
            )
        self._slot_torn[key] = d["torn"]
        # wrap-overwrite: overwriting an entry whose data line is dirty
        # requires a completed forced write-back ordered before the new
        # record's durability.
        if rec.displaced_dirty:
            if rec.force_completion is None:
                self._report(
                    "wrap-overwrite",
                    f"log wrap overwrote slot {rec.slot} whose data line "
                    f"{d['displaced_line']:#x} was dirty, with no forced "
                    "write-back",
                    event.time,
                    core=event.core,
                    addr=d["displaced_line"],
                    txid=rec.txid,
                    tid=rec.tid,
                    provenance=(
                        f"{event.time:.0f} log_place slot={rec.slot} "
                        f"displaced_line={d['displaced_line']:#x} dirty, no force",
                    ),
                )
            elif rec.durable is not None:
                self._check_wrap_order(rec)
        # Eagerly checked when durability is already known; software
        # records re-check at durability resolution / finish.

    def _check_wrap_order(self, rec: _Rec) -> None:
        if (
            rec.force_completion is not None
            and rec.durable is not None
            and rec.force_completion > rec.durable + _EPS
        ):
            self._report(
                "wrap-overwrite",
                f"record overwriting slot {rec.slot} became durable at "
                f"{rec.durable:.0f}, before the displaced line's forced "
                f"write-back completed at {rec.force_completion:.0f}",
                rec.place_time,
                txid=rec.txid,
                tid=rec.tid,
                provenance=(
                    f"{rec.place_time:.0f} log_place slot={rec.slot} "
                    f"force_completion={rec.force_completion:.0f}",
                    f"record durable={rec.durable:.0f}",
                ),
            )

    def _on_log_push(self, event) -> None:
        d = event.detail
        buffer = d.get("buffer", 0)
        completion = d["completion"]
        prev = self._last_push.get(buffer)
        if prev is not None and completion + _EPS < prev:
            self._report(
                "fifo-order",
                f"log buffer {buffer} completion went backwards "
                f"({completion:.0f} after {prev:.0f}) — records would "
                "reach NVRAM out of store-order",
                event.time,
                provenance=(
                    f"{event.time:.0f} log_push buffer={buffer} "
                    f"completion={completion:.0f} (prev {prev:.0f})",
                ),
            )
        if prev is None or completion > prev:
            self._last_push[buffer] = completion

    def _on_nvram_write(self, event) -> None:
        d = event.detail
        addr = d["addr"]
        size = d["size"]
        completion = d["completion"]
        if self._heap_base <= addr < self._heap_limit:
            self._observe_heap_write(addr, size, completion)
            return
        for base, region_size in self._log_regions:
            if base <= addr < base + region_size:
                self._resolve_log_write(addr, size, completion)
                return

    def _observe_heap_write(self, addr: int, size: int, completion: float) -> None:
        end = addr + size
        word = align_down(addr, WORD_SIZE)
        while word < end:
            owner = self._word_owner.get(word)
            if owner is not None:
                for piece in owner.word_stores.get(word, ()):
                    known = owner.data_durable.get(piece)
                    if known is None or completion < known:
                        owner.data_durable[piece] = completion
                self._heap_obs.append((word, completion, owner))
            word += WORD_SIZE

    def _resolve_log_write(self, addr: int, size: int, completion: float) -> None:
        entry = addr - (addr % self._entry_size)
        end = addr + size
        while entry < end:
            rec = self._pending_by_entry.get(entry)
            if rec is not None and rec.durable is None:
                rec.durable = completion
                self._max_record_durable = max(self._max_record_durable, completion)
                self._check_wrap_order(rec)
            entry += self._entry_size

    def _on_design_switch(self, event) -> None:
        """switch-epoch-clean: nothing may straddle the epoch barrier.

        By the time the ``design_switch`` event appears in the stream the
        barrier's own write-backs have already been observed (NVRAM
        emits ``nvram_write`` at post time, and the machine emits the
        switch event only after forcing), so three stream-visible facts
        must hold at the barrier instant: no transaction is open, no
        placed log record is still awaiting durability (or becomes
        durable after the barrier), and every logged-and-stored heap
        piece of every closed transaction has reached NVRAM.
        """
        barrier = event.time
        d = event.detail
        label = f"{d.get('old', '?')} -> {d.get('new', '?')}"
        for tid in sorted(self._open):
            txn = self._open[tid]
            self._report(
                "switch-epoch-clean",
                f"design switch ({label}) at {barrier:.0f} with "
                f"transaction {txn.txid} still open on tid {tid} — its "
                "pre-switch log records straddle the epoch barrier",
                barrier,
                txid=txn.txid,
                tid=tid,
                provenance=(
                    f"{txn.begin_time:.0f} tx_begin tid={tid} txid={txn.txid}",
                    f"{barrier:.0f} design_switch {label}",
                ),
            )
        for rec in self._pending_by_entry.values():
            if rec.durable is not None:
                continue
            self._report(
                "switch-epoch-clean",
                f"design switch ({label}) at {barrier:.0f} while the log "
                f"record in slot {rec.slot} (entry {rec.entry_addr:#x}) "
                "had not drained to NVRAM",
                barrier,
                txid=rec.txid,
                tid=rec.tid,
                provenance=(
                    f"{rec.place_time:.0f} log_place slot={rec.slot} "
                    "(no matching nvram_write)",
                    f"{barrier:.0f} design_switch {label}",
                ),
            )
        if self._max_record_durable > barrier + _EPS:
            self._report(
                "switch-epoch-clean",
                f"design switch ({label}) at {barrier:.0f} before the log "
                "FIFO settled: a pre-switch record completes at "
                f"{self._max_record_durable:.0f}, after the barrier",
                barrier,
                provenance=(
                    f"record durable={self._max_record_durable:.0f}",
                    f"{barrier:.0f} design_switch {label}",
                ),
            )
        # Un-written-back logged data: each heap word's *current* content
        # belongs to its latest owning transaction (older owners were
        # overwritten; their line state no longer exists to force).  A
        # logged-and-stored piece of that owner with no NVRAM completion
        # by the barrier means the barrier left a logged line dirty.
        open_txns = set(id(txn) for txn in self._open.values())
        for word in sorted(self._word_owner):
            owner = self._word_owner[word]
            if id(owner) in open_txns:
                continue  # already reported as a straddling open txn
            for piece in sorted(owner.word_stores.get(word, ())):
                if piece not in owner.logged or piece not in owner.stores:
                    continue
                durable = owner.data_durable.get(piece)
                if durable is not None and durable <= barrier + _EPS:
                    continue
                where = (
                    "was never written back"
                    if durable is None
                    else f"reaches NVRAM only at {durable:.0f}"
                )
                self._report(
                    "switch-epoch-clean",
                    f"design switch ({label}) at {barrier:.0f} while the "
                    f"logged line for {piece:#x} (transaction {owner.txid}) "
                    f"{where} — the barrier must force logged-dirty "
                    "lines durable",
                    barrier,
                    addr=piece,
                    txid=owner.txid,
                    tid=owner.tid,
                    provenance=(
                        f"{owner.stores[piece]:.0f} store addr={piece:#x}",
                        f"{barrier:.0f} design_switch {label}",
                    ),
                )
                break  # one diagnostic per word keeps reports readable
        if d.get("truncated"):
            # A content switch truncates the ring at the barrier: every
            # slot restarts empty on pass parity 1, so the recorded torn
            # bits no longer describe what the next placement overwrites.
            self._slot_torn.clear()
            self._pending_by_entry.clear()

    def _on_crash(self, event) -> None:
        self._crashed = True

    _DISPATCH = {
        "meta": _on_meta,
        "tx_begin": _on_tx_begin,
        "tx_commit": _on_tx_commit,
        "commit_reported": _on_commit_reported,
        "store": _on_store,
        "log_place": _on_log_place,
        "log_push": _on_log_push,
        "nvram_write": _on_nvram_write,
        "design_switch": _on_design_switch,
        "crash": _on_crash,
    }

    # ------------------------------------------------------------------
    # End-of-stream evaluation
    # ------------------------------------------------------------------
    def finish(self) -> PsanReport:
        """Evaluate the completion-time rules and assemble the report.

        Call exactly once, after the run (or trace replay) has ended.
        """
        if self._enabled:
            for txn in self._txns:
                self._finish_txn(txn)
            self._finish_steal_order()
        return PsanReport(
            policy=self.policy.value if self.policy else "?",
            diagnostics=list(self.diagnostics),
            events_processed=self._events,
            txns_checked=len(self._txns),
            rules_checked=LOGGING_RULES if self._enabled else (),
        )

    def _finish_txn(self, txn: _Txn) -> None:
        commit = txn.commit_rec
        commit_durable = txn.commit_durable()
        # commit-durability: the runtime must not report a durability
        # time earlier than the COMMIT record's actual NVRAM completion.
        if txn.reported is not None and commit is not None:
            if commit_durable is None:
                if not self._crashed:
                    self._report(
                        "commit-durability",
                        f"transaction {txn.txid} reported durable at "
                        f"{txn.reported:.0f} but its commit record never "
                        "reached NVRAM in the observed stream",
                        txn.commit_time or txn.reported,
                        txid=txn.txid,
                        tid=txn.tid,
                        provenance=(
                            f"{commit.place_time:.0f} log_place COMMIT "
                            f"slot={commit.slot} (no matching nvram_write)",
                            f"reported durable={txn.reported:.0f}",
                        ),
                    )
            elif txn.reported + _EPS < commit_durable:
                self._report(
                    "commit-durability",
                    f"transaction {txn.txid} reported durable at "
                    f"{txn.reported:.0f}, {commit_durable - txn.reported:.0f} "
                    "cycles before its commit record actually completed "
                    f"at {commit_durable:.0f}",
                    txn.commit_time or txn.reported,
                    txid=txn.txid,
                    tid=txn.tid,
                    provenance=(
                        f"{commit.place_time:.0f} log_place COMMIT "
                        f"slot={commit.slot}",
                        f"record durable={commit_durable:.0f}",
                        f"reported durable={txn.reported:.0f}",
                    ),
                )
        if commit is None or commit_durable is None:
            # Without a durable commit record the transaction rolls back
            # on a crash; the remaining rules are commit-conditioned.
            return
        for rec in txn.records:
            # commit-order: every DATA record durable no later than the
            # COMMIT record.
            if rec.durable is None:
                self._report(
                    "commit-order",
                    f"transaction {txn.txid}: DATA record for "
                    f"{rec.addr:#x} never became durable although the "
                    f"commit record completed at {commit_durable:.0f}",
                    rec.place_time,
                    addr=rec.addr,
                    txid=txn.txid,
                    tid=txn.tid,
                    provenance=(
                        f"{rec.place_time:.0f} log_place DATA slot={rec.slot}",
                        f"commit durable={commit_durable:.0f}",
                    ),
                )
            elif rec.durable > commit_durable + _EPS:
                self._report(
                    "commit-order",
                    f"transaction {txn.txid}: DATA record for {rec.addr:#x} "
                    f"became durable at {rec.durable:.0f}, after the commit "
                    f"record at {commit_durable:.0f}",
                    rec.place_time,
                    addr=rec.addr,
                    txid=txn.txid,
                    tid=txn.tid,
                    provenance=(
                        f"{rec.place_time:.0f} log_place DATA slot={rec.slot} "
                        f"durable={rec.durable:.0f}",
                        f"commit durable={commit_durable:.0f}",
                    ),
                )
            # redo-missing: once the commit record is durable the data
            # must be recoverable — either already durable in place, or
            # reconstructible from a redo value.
            if rec.has_redo or rec.addr is None:
                continue
            data_durable = txn.data_durable.get(rec.addr)
            if data_durable is None or data_durable > commit_durable + _EPS:
                where = (
                    "was never written back"
                    if data_durable is None
                    else f"became durable only at {data_durable:.0f}"
                )
                self._report(
                    "redo-missing",
                    f"transaction {txn.txid} committed durably at "
                    f"{commit_durable:.0f} but its store to {rec.addr:#x} "
                    f"{where} and its log record carries no redo value",
                    commit.place_time,
                    addr=rec.addr,
                    txid=txn.txid,
                    tid=txn.tid,
                    provenance=(
                        f"{txn.stores.get(rec.addr, rec.place_time):.0f} "
                        f"store addr={rec.addr:#x}",
                        f"{rec.place_time:.0f} log_place DATA (undo-only)",
                        f"commit durable={commit_durable:.0f}",
                    ),
                )

    def _finish_steal_order(self) -> None:
        for word, completion, owner in self._heap_obs:
            commit_durable = owner.commit_durable()
            if commit_durable is not None and commit_durable <= completion + _EPS:
                continue  # post-commit write-back: always fine
            # The transaction was uncommitted when this word reached
            # NVRAM — the "steal".  Some log record for the word must
            # have been durable by then.
            covered = False
            for piece in owner.word_stores.get(word, ()):
                rec = owner.logged.get(piece)
                if (
                    rec is not None
                    and rec.durable is not None
                    and rec.durable <= completion + _EPS
                ):
                    covered = True
                    break
            if not covered:
                self._report(
                    "steal-order",
                    f"heap word {word:#x} of uncommitted transaction "
                    f"{owner.txid} reached NVRAM at {completion:.0f} with no "
                    "log record durable by then",
                    completion,
                    addr=word,
                    txid=owner.txid,
                    tid=owner.tid,
                    provenance=(
                        f"{owner.begin_time:.0f} tx_begin tid={owner.tid}",
                        f"nvram_write word={word:#x} completion={completion:.0f}",
                        "commit record durable: "
                        + (
                            f"{commit_durable:.0f}"
                            if commit_durable is not None
                            else "never"
                        ),
                    ),
                )

    # ------------------------------------------------------------------
    def _report(
        self,
        rule: str,
        message: str,
        cycle: float,
        core: int = -1,
        addr: Optional[int] = None,
        txid: Optional[int] = None,
        tid: Optional[int] = None,
        provenance: tuple = (),
    ) -> None:
        assert rule in RULES, rule
        self.diagnostics.append(
            PsanDiagnostic(
                rule=rule,
                message=message,
                cycle=cycle,
                core=core,
                addr=addr,
                txid=txid,
                tid=tid,
                provenance=provenance,
            )
        )


# ----------------------------------------------------------------------
# Harness entry points
# ----------------------------------------------------------------------
def replay_checked(trace, run, bind_out=None, keep_events: bool = False):
    """Replay ``trace`` under ``run`` with a checker attached.

    The checker is attached to the freshly built machine, before the
    image is restored, so its stream covers exactly the timed execution.
    The replayed device is recycled.  ``bind_out`` receives the replay's
    symbolic binding (see :func:`~repro.sim.replay.run_compiled`).
    Returns ``(stats, report, tracer)``; ``report.threads`` is set, the
    caller names the benchmark.  The tracer holds the event stream only
    when ``keep_events`` (see :meth:`PersistOrderChecker.attach`).
    """
    from ..sim.replay import run_compiled

    checkers: list = []
    outcome = run_compiled(
        trace,
        run,
        machine_hook=lambda machine: checkers.append(
            PersistOrderChecker.attach(machine, keep_events)
        ),
        bind_out=bind_out,
    )
    outcome.machine.nvram.recycle()
    (checker,) = checkers
    report = checker.finish()
    report.threads = run.threads
    # The returned tracer would otherwise keep the checker's state alive.
    checker.tracer.unsubscribe(checker.feed)
    return outcome.stats, report, checker.tracer


def cell_trace(benchmark, threads, txns_per_thread, system, prepared, seed):
    """A microbenchmark cell's compiled trace and the system it runs on.

    The trace comes from :func:`~repro.harness.cache.compiled_trace`;
    ``prepared``, when given, is the benchmark's
    :class:`~repro.harness.runner.PreparedWorkload` or a
    :class:`~repro.harness.runner.Preparation` of it (either fixes the
    system), else the benchmark is built from ``seed``.  A preparation
    runs only if the trace misses.  Returns ``(trace, system)``.
    """
    from ..harness.cache import compiled_trace
    from ..harness.runner import Preparation
    from ..workloads import make_microbenchmark

    if prepared is None:
        prepared = Preparation(make_microbenchmark(benchmark, seed=seed), system)
    prepare = prepared if isinstance(prepared, Preparation) else lambda: prepared
    trace = compiled_trace(
        prepared.workload, prepared.system, threads, txns_per_thread, prepare
    )
    return trace, prepared.system


def run_psan(
    benchmark: str,
    policy,
    threads: int = 1,
    txns_per_thread: int = 40,
    system=None,
    prepared=None,
    seed: int = 42,
    trace_path: Optional[str] = None,
) -> PsanReport:
    """Run one (benchmark, policy, threads) cell under the sanitizer.

    The cell's trace (:func:`cell_trace`) replays through
    :func:`replay_checked`; its event stream is bit-identical to
    interpretation (``tests/sim/test_replay.py``).  ``trace_path``
    additionally saves the raw event stream as JSONL for offline
    re-checking (``repro psan --from-trace``).
    """
    from ..harness.runner import RunConfig

    trace, system = cell_trace(
        benchmark, threads, txns_per_thread, system, prepared, seed
    )
    _stats, report, tracer = replay_checked(
        trace,
        RunConfig(
            policy=policy,
            threads=threads,
            txns_per_thread=txns_per_thread,
            system=system,
            seed=seed,
        ),
        keep_events=trace_path is not None,
    )
    if trace_path is not None:
        tracer.to_jsonl(trace_path)
    report.benchmark = benchmark
    return report


@dataclass
class PsanSweepReport:
    """Reports for a benchmark x threads x policy sanitizer matrix."""

    reports: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no cell of a *guaranteed* design has a violation.

        Designs without a persistence guarantee (``unsafe-base``,
        ``hw-rlog``, ``hw-ulog``) are expected to trip rules — their
        diagnostics are reported but do not fail the sweep.
        """
        return all(
            report.clean
            for report in self.reports
            if claims_guarantee(report.policy)
        )

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "cells": [report.to_dict() for report in self.reports],
        }

    def render(self) -> str:
        # Composed design names (e.g. "hw+undo+redo+clwb+instant") can be
        # far wider than the canonical ones; size the policy column to
        # the longest rendered name so columns never shear.
        width = max(
            [len("policy")] + [len(report.policy) for report in self.reports]
        )
        lines = [
            f"{'benchmark':10s} {'threads':>7s} {'policy':{width}s} "
            f"{'events':>9s} {'txns':>6s} verdict",
            "-" * (width + 50),
        ]
        for report in self.reports:
            verdict = "clean"
            if not report.clean:
                fired = ",".join(sorted(report.rules_fired()))
                note = "" if claims_guarantee(report.policy) else " (no guarantee claimed)"
                verdict = f"{len(report.diagnostics)} violation(s): {fired}{note}"
            lines.append(
                f"{report.benchmark:10s} "
                f"{report.threads:7d} "
                f"{report.policy:{width}s} "
                f"{report.events_processed:9d} {report.txns_checked:6d} "
                f"{verdict}"
            )
        return "\n".join(lines)
