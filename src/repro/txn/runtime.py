"""Transaction runtime: the paper's software abstraction, lowered per design.

:class:`PersistentMemory` is the user-facing facade over one
:class:`~repro.sim.machine.Machine`.  Each software thread obtains a
:class:`ThreadAPI` bound to a core and drives transactions through it:

.. code-block:: python

    api = pm.api(core_id=0, tid=0)
    api.tx_begin()
    value = api.read(addr, 8)
    api.write(addr, new_value)
    api.tx_commit()

``write`` is lowered according to the machine's
:class:`~repro.core.design.DesignSpec` mechanisms:

* no log backend (``non-pers``) — a plain store;
* hardware logging (``hw-rlog``/``hw-ulog``/``hwl``/``fwb`` and any
  custom ``hw+…`` spec) — a persistent store; the HWL engine reacts
  inside the cache hierarchy with **zero extra instructions** (the
  paper's central efficiency claim);
* software logging with undo content (``unsafe-base``/``undo-clwb``) —
  an explicit old-value load, bookkeeping instructions, an uncacheable
  log store, then the data store (Figure 2(a));
* software redo-only logging (``redo-clwb``) — an uncacheable redo log
  store; the in-place store is *deferred* until the redo log is durable
  (the Figure 1(b) memory barrier), with reads served from a write-set
  overlay.

``tx_commit`` likewise lowers to a commit protocol chosen by the spec's
commit/content/write-back mechanisms and returns the transaction's
durability time, which the :class:`GoldenModel` records for
crash-consistency verification.

Each public method is a guard (the :class:`~repro.errors.TransactionError`
checks, and ``split_words`` for ``write``) over one private lowering
step: ``_begin``, ``_store`` (one word piece) and ``_commit``.  Those
steps are the only per-design lowering in the simulator; compiled
replay (:mod:`repro.sim.replay`) drives them directly.
"""

from __future__ import annotations

from typing import Optional

from ..core.design import CommitProtocol, DesignSpec
from ..core.logrecord import RecordKind
from ..core.nvlog import PlacedRecord
from ..errors import TransactionError
from ..sim.machine import Machine
from ..utils import align_up, split_words
from .heap import PersistentHeap

# How ``ThreadAPI._store`` lowers one word piece, by design: a plain
# store, a hardware-logged persistent store, a software redo record with
# the store deferred, or a software undo record before the store.
_PLAIN_STORE, _HW_LOGGED_STORE, _SW_REDO_STORE, _SW_UNDO_STORE = range(4)


class GoldenModel:
    """Commit-ordered record of every transaction's final writes.

    Used by crash tests: the expected NVRAM state at crash time ``T`` is
    the setup image plus the writes of every transaction whose commit was
    durable by ``T``, applied in commit order.
    """

    def __init__(self) -> None:
        self.commits: list[tuple[float, dict[int, bytes]]] = []
        self.staged: dict[int, tuple[int, dict[int, bytes]]] = {}

    def record(self, durable_time: float, writes: dict[int, bytes]) -> None:
        """Record one committed transaction.

        ``writes`` is kept, not copied: the caller must not change it
        afterwards (``ThreadAPI`` hands over a fresh dict per
        transaction).
        """
        self.commits.append((durable_time, writes))

    def stage(self, tid: int, physical_txid: int, writes: dict[int, bytes]) -> None:
        """Mark ``tid``'s current transaction *in doubt*.

        Called just before the first micro-op of the commit sequence that
        could make the commit record durable.  A crash inside that
        sequence leaves the transaction neither committed nor aborted
        from the program's point of view — recovery decides, by whether
        the commit record survived.  Crash verifiers consult
        :attr:`staged` together with the recovery report's committed
        transaction IDs to accept either outcome.  ``writes`` is kept as
        given, as in :meth:`record`.
        """
        self.staged[tid] = (physical_txid, writes)

    def finalize(self, tid: int) -> None:
        """The commit sequence completed; the transaction is no longer in
        doubt (its outcome is in :attr:`commits`)."""
        self.staged.pop(tid, None)

    def expected_at(self, crash_time: float) -> dict[int, bytes]:
        """Word-piece image of all transactions durable by ``crash_time``."""
        image: dict[int, bytes] = {}
        for durable, writes in sorted(self.commits, key=lambda item: item[0]):
            if durable <= crash_time:
                image.update(writes)
        return image

    def touched_addresses(self) -> set[int]:
        """Every word-piece address written by any recorded transaction."""
        touched: set[int] = set()
        for _durable, writes in self.commits:
            touched.update(writes)
        return touched


class ThreadAPI:
    """Transaction interface for one software thread on one core."""

    def __init__(self, pm: "PersistentMemory", core_id: int, tid: int) -> None:
        self._pm = pm
        self._machine = pm.machine
        self._core = pm.machine.cores[core_id]
        self._line_size = pm.machine.config.line_size
        self._line_mask = ~(self._line_size - 1)
        self._adopt(pm.machine.policy)
        self.core_id = core_id
        self.tid = tid
        self._txid: Optional[int] = None
        self._writes: dict[int, bytes] = {}
        self._write_lines: set[int] = set()
        self._overlay: dict[int, bytes] = {}
        self._pending_frees: list[tuple[int, int]] = []
        self._local_free: dict[int, list[int]] = {}
        self._tagged_requests: Optional[list] = None

    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        """True between ``tx_begin`` and ``tx_commit``."""
        return self._txid is not None

    def refresh_policy(self) -> None:
        """Re-read the machine's active design after a safe switch.

        The policy and its lowering are cached at construction because
        every ``write`` and ``tx_commit`` consults them; a mid-run design switch
        (:meth:`repro.sim.machine.Machine.switch_design`) must call this
        on every live API, outside any transaction, or the thread keeps
        lowering stores for the pre-switch mechanisms.
        """
        if self.in_transaction:
            raise RuntimeError(
                "cannot refresh the design policy mid-transaction "
                f"(tid={self.tid}, txid={self._txid})"
            )
        self._adopt(self._pm.machine.policy)

    def _adopt(self, policy: DesignSpec) -> None:
        """Cache ``policy`` and the parts of its lowering read per op."""
        self._policy = policy
        logging = self._machine.config.logging
        self._sw_logging = policy.uses_sw_logging
        self._protects_log_wrap = policy.protects_log_wrap
        self._clwb_at_commit = policy.uses_clwb_at_commit
        self._instrs_per_record = logging.softlog_instrs_per_record
        if policy.uses_hw_logging:
            self._store_lowering = _HW_LOGGED_STORE
            self._begin_overhead = logging.hw_instrs_tx_begin
        elif not policy.uses_sw_logging:
            self._store_lowering = _PLAIN_STORE
            self._begin_overhead = 0
        else:
            self._store_lowering = (
                _SW_REDO_STORE if policy.defers_in_place_stores else _SW_UNDO_STORE
            )
            self._begin_overhead = logging.softlog_instrs_tx_begin

    @property
    def now(self) -> float:
        """This thread's core clock."""
        return self._machine.core_time(self.core_id)

    @property
    def heap(self) -> PersistentHeap:
        """The shared persistent heap (allocation is host-side metadata)."""
        return self._pm.heap

    # ------------------------------------------------------------------
    # Allocation: thread-local recycling with commit-deferred frees.
    #
    # A block freed inside a transaction must not be reused by another
    # thread before that transaction commits — otherwise the reuser's
    # writes and the freer's undo records race in the log, and recovery
    # (which is not full ARIES) could roll a committed write back.  Frees
    # therefore quarantine until commit and recycle only within the
    # freeing thread.
    # ------------------------------------------------------------------
    def alloc(self, size: int) -> int:
        """Allocate persistent memory, preferring this thread's recycled
        blocks."""
        size = align_up(size, 8)
        bucket = self._local_free.get(size)
        if bucket:
            return bucket.pop()
        return self._pm.heap.alloc(size)

    def free(self, addr: int, size: int) -> None:
        """Release a block; deferred to commit when inside a transaction."""
        size = align_up(size, 8)
        if self._txid is not None:
            self._pending_frees.append((addr, size))
        else:
            self._local_free.setdefault(size, []).append(addr)

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def tx_begin(self) -> int:
        """Start a transaction; returns the user transaction ID."""
        if self._txid is not None:
            raise TransactionError("nested transactions are not supported")
        return self._begin()

    def tag_requests(self, requests: list) -> None:
        """Attribute the *next* transaction to a batch of client requests.

        Serve mode (:mod:`repro.sched`) batches client requests into one
        transaction; tagging before ``tx_begin`` makes the commit
        attributable: at ``tx_commit`` every tagged request is appended to
        :attr:`PersistentMemory.request_log` together with the commit's
        durability time, giving the enqueue→commit-durable latency the
        service layer reports.  The tag is consumed by the commit.
        """
        self._tagged_requests = list(requests)

    def tx_commit(self) -> float:
        """Commit; returns the commit's durability time.

        For designs without a persistence guarantee the returned time is
        the (optimistic) core clock at commit.
        """
        if self._txid is None:
            raise TransactionError("tx_commit outside a transaction")
        return self._commit()

    def transaction(self) -> "_TxContext":
        """Context manager: ``with api.transaction(): ...``."""
        return _TxContext(self)

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------
    def read(self, addr: int, size: int) -> bytes:
        """Transactional (or plain) read of ``size`` bytes."""
        if size == 8 and not addr & 7 and not self._overlay:
            # One aligned word: a single load, the same one the loop
            # below would issue.
            line = addr & self._line_mask
            core = self._core
            data = self._machine.issue(core, core.exec_load, addr, line)
            offset = addr - line
            return bytes(data[offset:offset + 8])
        line_size = self._line_size
        line_mask = self._line_mask
        out = bytearray()
        cursor = addr
        end = addr + size
        while cursor < end:
            take = min(end, (cursor & line_mask) + line_size) - cursor
            out += self._load(cursor, take)
            cursor += take
        if self._overlay:
            self._patch_overlay(addr, out)
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Persistent write, lowered according to the machine's policy."""
        if self._txid is None:
            raise TransactionError("persistent writes require a transaction")
        if len(data) == 8 and not addr & 7:
            # One aligned word: the one piece split_words would cut,
            # copied the same way (a bytes object is kept as is).
            self._store(addr, data if type(data) is bytes else bytes(data[0:8]))
            return
        for piece_addr, piece in split_words(addr, data):
            self._store(piece_addr, piece)

    def read_word(self, addr: int) -> int:
        """Read one little-endian word as an unsigned int."""
        return int.from_bytes(self.read(addr, 8), "little")

    def write_word(self, addr: int, value: int) -> None:
        """Write one unsigned int as a little-endian word."""
        self.write(addr, value.to_bytes(8, "little"))

    def compute(self, count: int) -> None:
        """Execute ``count`` non-memory instructions."""
        if count > 0:
            core = self._core
            self._machine.issue(core, core.exec_compute, count)

    # ------------------------------------------------------------------
    # Per-design lowering.  ``_begin``, ``_store`` and ``_commit`` run
    # under the public guards above; compiled replay
    # (:mod:`repro.sim.replay`) calls them directly.
    # ------------------------------------------------------------------
    def _begin(self) -> int:
        """Lower ``tx_begin``: the begin op, then (software logging) the
        begin record.  The write set, write-set lines and overlay are
        already empty: ``_commit`` leaves them so."""
        txid = self._pm.next_txid()
        self._txid = txid
        core = self._core
        self._machine.issue(
            core, core.exec_tx_begin, txid, self.tid, self._begin_overhead
        )
        if self._sw_logging:
            self._emit_log(self._machine.swlog.begin(txid, self.tid))
        return txid

    def _store(self, addr: int, piece: bytes) -> None:
        """Lower one word piece of a transactional write."""
        self._writes[addr] = piece
        if self._clwb_at_commit:
            self._write_lines.add(addr & self._line_mask)
        machine = self._machine
        core = self._core
        lowering = self._store_lowering
        if lowering == _HW_LOGGED_STORE:
            machine.issue(
                core, core.exec_store, addr, piece, True, self._txid, self.tid
            )
        elif lowering == _PLAIN_STORE:
            machine.issue(core, core.exec_store, addr, piece)
        elif lowering == _SW_REDO_STORE:
            self._sw_redo_write(addr, piece)
        else:
            self._sw_undo_write(addr, piece)

    def _sw_undo_write(self, addr: int, piece: bytes) -> None:
        """Software undo logging: load old value, log it, then store."""
        machine = self._machine
        core = self._core
        old = self._load(addr, len(piece))
        self.compute(self._instrs_per_record)
        self._emit_log(machine.swlog.data(self._txid, self.tid, addr, old, piece))
        machine.issue(core, core.exec_store, addr, piece)

    def _sw_redo_write(self, addr: int, piece: bytes) -> None:
        """Software redo logging: log the new value; defer the store."""
        machine = self._machine
        self.compute(self._instrs_per_record)
        self._emit_log(machine.swlog.data(self._txid, self.tid, addr, b"", piece))
        self._overlay[addr] = piece

    def _commit(self) -> float:
        """Lower ``tx_commit``: the design's commit protocol, then the
        commit report (tracer, log tap, golden model, tagged requests)
        and the release of the transaction's deferred frees."""
        txid = self._txid
        durable = self._commit_for_policy(self._policy, txid)
        tracer = self._machine.tracer
        if tracer is not None:
            tracer.emit(
                self.now,
                "commit_reported",
                self.core_id,
                txid=txid,
                tid=self.tid,
                durable=durable,
            )
        tap = self._machine.log_tap
        if tap is not None:
            tap.on_commit_reported(self.tid, durable, self.now)
        self._pm.golden.record(durable, self._writes)
        self._pm.golden.finalize(self.tid)
        if self._tagged_requests is not None:
            request_log = self._pm.request_log
            for request in self._tagged_requests:
                request_log.append((request, durable, self.tid))
                if tracer is not None:
                    tracer.emit(
                        self.now,
                        "request_done",
                        self.core_id,
                        txid=txid,
                        tid=self.tid,
                        seq=getattr(request, "seq", None),
                        arrival=getattr(request, "arrival", None),
                        durable=durable,
                    )
            self._tagged_requests = None
        self._txid = None
        self._writes = {}
        self._write_lines = set()
        self._overlay = {}
        for addr, size in self._pending_frees:
            self._local_free.setdefault(size, []).append(addr)
        self._pending_frees = []
        return durable

    def _commit_for_policy(self, policy: DesignSpec, txid: int) -> float:
        machine = self._machine
        logging = machine.config.logging
        core = self._core
        tx_commit = core.exec_tx_commit
        if policy.uses_hw_logging:
            # The commit record is appended inside exec_tx_commit; from
            # the moment it executes the transaction's fate belongs to
            # the log, so stage it as in-doubt first.
            self._pm.golden.stage(
                self.tid,
                machine.registers.physical_txid(txid),
                self._writes,
            )
            durable = machine.issue(
                core, tx_commit, txid, self.tid, logging.hw_instrs_tx_commit
            )
            if self._clwb_at_commit:
                # hwl still forces write-backs with clwb, but delayed past
                # the commit point and unfenced (Figure 1(c): "clwb can be
                # delayed") — the write-backs are posted, not waited on.
                self._clwb_write_set()
            if policy.commit is CommitProtocol.INSTANT:
                return self.now  # optimistic; durability not awaited
            return float(durable) if durable is not None else self.now

        if not policy.uses_sw_logging:
            machine.issue(core, tx_commit, txid, self.tid, 0)
            return self.now

        # Software logging designs.
        overhead = logging.softlog_instrs_tx_commit
        if policy.commit is CommitProtocol.INSTANT:
            # unsafe-base: append the commit record and report commit at
            # the core clock without ever fencing — no guarantee.
            self._sw_commit_record(txid)
            machine.issue(core, tx_commit, txid, self.tid, overhead)
            return self.now  # optimistic; no durability guarantee

        if not policy.logs_redo:
            # Undo protocol (undo-clwb): force the data (the write-back
            # hook already guarantees the undo records reach NVRAM
            # first), fence, then write the commit record.
            if self._clwb_at_commit:
                self._clwb_write_set()
            machine.issue(core, core.exec_fence)
            self._sw_commit_record(txid)
            machine.issue(core, tx_commit, txid, self.tid, overhead)
            # The commit record drains with the WCB; its completion is the
            # real commit point (no extra fence needed for correctness —
            # an un-drained commit record just rolls the transaction back).
            # Report that completion exactly: a crash between it and the
            # core observing it still recovers the transaction.
            return core.wcb.flush(self.now)

        # Redo protocol (redo-clwb): full redo log (incl. commit record)
        # durable is the commit point; only then do the in-place stores
        # start.  The post-transaction clwbs are posted, not fenced — the
        # redo log already guarantees recoverability of the in-place data.
        self._sw_commit_record(txid)
        machine.issue(core, core.exec_fence)
        # The commit point is the instant the commit record became
        # durable (recovery redoes any fully-logged transaction whose
        # commit record survived), not the later fence retirement.
        durable = core.wcb.last_completion
        machine.issue(core, tx_commit, txid, self.tid, overhead)
        for addr, piece in self._overlay.items():
            machine.issue(core, core.exec_store, addr, piece)
        if self._clwb_at_commit:
            self._clwb_write_set()
        return durable

    def _load(self, addr: int, size: int) -> bytes:
        """Issue one cacheable load of ``size`` bytes within one line."""
        core = self._core
        line = addr & self._line_mask
        data = self._machine.issue(core, core.exec_load, addr, line)
        offset = addr - line
        return bytes(data[offset:offset + size])

    def _clwb_write_set(self) -> None:
        """Post a clwb for every line the transaction wrote, in address order."""
        machine = self._machine
        core = self._core
        for line in sorted(self._write_lines):
            machine.issue(core, core.exec_clwb, line)

    def _sw_commit_record(self, txid: int) -> None:
        """Place the software commit record, stage the transaction as in
        doubt, and issue the record's log store."""
        physical = self._machine.registers.physical_txid(txid)
        placed = self._machine.swlog.commit(txid, self.tid)
        self._pm.golden.stage(self.tid, physical, self._writes)
        self._emit_log(placed)

    # ------------------------------------------------------------------
    def _emit_log(self, placed: PlacedRecord) -> None:
        """Issue the uncacheable store for a placed software log record."""
        machine = self._machine
        displaced_dirty = False
        force_completion = None
        if placed.displaced_line is not None and machine.hierarchy.is_line_dirty(
            placed.displaced_line
        ):
            displaced_dirty = True
            if self._protects_log_wrap:
                completion = machine.force_line_durable(
                    placed.displaced_line, self.now
                )
                force_completion = completion
                # The overwriting record must not become durable before
                # the displaced data line (a crash in between would lose
                # the only durable copy of that line's committed value),
                # so the log store stalls until the force completes —
                # the same ordering HWL._append enforces in hardware.
                core = self._core
                if completion > core.time:
                    core.time = completion
        record = placed.record
        tracer = machine.tracer
        if tracer is not None:
            tracer.emit(
                self.now,
                "log_place",
                self.core_id,
                kind=record.kind.name,
                txid=record.txid,
                tid=record.tid,
                addr=record.addr if record.kind is RecordKind.DATA else None,
                undo=record.undo.hex(),
                redo=record.redo.hex(),
                entry_addr=placed.addr,
                slot=placed.slot,
                base=machine.log.base,
                torn=placed.payload[0] & 1,
                displaced_line=placed.displaced_line,
                displaced_dirty=displaced_dirty,
                force_completion=force_completion,
                release=None,
            )
        tap = machine.log_tap
        if tap is not None:
            # Software records resolve their durability later, at the
            # NVRAM write that covers their entry.
            tap.on_log_place(record, placed.addr, placed.payload, self.now, None)
        core = self._core
        machine.issue(core, core.exec_logstore, placed.addr, placed.payload)

    def _patch_overlay(self, addr: int, out: bytearray) -> None:
        """Apply the redo write-set overlay to a read result."""
        end = addr + len(out)
        for piece_addr, piece in self._overlay.items():
            piece_end = piece_addr + len(piece)
            if piece_end <= addr or piece_addr >= end:
                continue
            lo = max(addr, piece_addr)
            hi = min(end, piece_end)
            out[lo - addr:hi - addr] = piece[lo - piece_addr:hi - piece_addr]


class _TxContext:
    """Context manager wrapping ``tx_begin``/``tx_commit``."""

    def __init__(self, api: ThreadAPI) -> None:
        self._api = api

    def __enter__(self) -> ThreadAPI:
        self._api.tx_begin()
        return self._api

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._api.tx_commit()
        return False


class PersistentMemory:
    """Facade over one machine: heap, thread APIs, golden model."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.heap = PersistentHeap(machine.heap_base, machine.heap_limit)
        self.golden = GoldenModel()
        self.request_log: list = []
        """``(request, commit_durable_time, tid)`` per client request
        served by a tagged transaction (see :meth:`ThreadAPI.tag_requests`),
        in commit order — the service layer's latency source."""
        self._txid_counter = 0

    def next_txid(self) -> int:
        """Allocate a fresh user transaction ID."""
        self._txid_counter += 1
        return self._txid_counter

    def api(self, core_id: int, tid: Optional[int] = None) -> ThreadAPI:
        """Create a thread API bound to ``core_id``."""
        return ThreadAPI(self, core_id, self.tid_for(core_id) if tid is None else tid)

    @staticmethod
    def tid_for(core_id: int) -> int:
        """Default thread ID for a core."""
        return core_id

    # ------------------------------------------------------------------
    # Setup (untimed) access, used to build initial workload state
    # ------------------------------------------------------------------
    def setup_write(self, addr: int, data: bytes) -> None:
        """Functional write bypassing caches and timing (pre-run setup)."""
        self.machine.nvram.poke(addr, data)

    def setup_read(self, addr: int, size: int) -> bytes:
        """Functional read bypassing caches and timing."""
        return self.machine.nvram.peek(addr, size)
