"""Durable-record collection and the deterministic shipping timeline.

Two halves:

* :class:`LogStreamCollector` taps a primary run for the ordered stream
  of *durable* log records.  It is installed as the machine's
  :attr:`~repro.sim.machine.Machine.log_tap`, so it hears of each record
  where it is placed — the HWL engine's append, or the transaction
  runtime's uncacheable log store — together with the encoded entry the
  primary wrote.  Hardware records carry their release time; software
  records resolve at the first timed NVRAM write covering their log
  entry (the same pairing psan uses on ``log_place``/``nvram_write``
  events).  Sequence numbers follow durability order, so "the primary
  crashed at cycle T" is exactly "truncate the stream at T".

* :class:`ShipTimeline` turns a stream into per-link shipping schedules:
  records are cut into batches (size- or COMMIT-bounded), each link
  ships asynchronously under a bounded in-flight window with per-batch
  ack tracking, and link faults (dropped / duplicated / delayed / torn
  batches) and node crashes reshape the schedule deterministically.  The
  timeline also derives the *cluster-commit* overlay — a transaction is
  cluster-committed once every replica acked the batch carrying its
  COMMIT record and the primary lived to see the quorum — and emits the
  whole thing as a trace-event stream
  (``ship``/``repl_deliver``/``repl_append``/``repl_ack``/``dist_commit``)
  for the replication-ordering sanitizer.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional

from ..core.logrecord import RecordKind
from ..errors import ConfigError
from ..sim.trace import TraceEvent
from .config import DistConfig


@dataclass
class ShippedRecord:
    """One durable log record as it travels the interconnect."""

    seq: int
    kind: str  # RecordKind name: BEGIN / DATA / COMMIT
    txid: int  # physical transaction id carried in the record
    tid: int
    addr: Optional[int]  # heap address (DATA records only)
    undo: bytes
    redo: bytes
    place_time: float
    durable: float
    payload: bytes
    """The entry exactly as the primary encoded it (its torn bit is the
    primary ring's pass parity); replicas write these bytes."""


@dataclass
class LogStream:
    """The primary's durable log records in durability (= seq) order."""

    records: list
    entry_size: int
    reported: list
    """``(tid, reported_durable, report_time)`` per reported commit, in
    report order — index ``i`` pairs with the golden model's
    ``commits[i]`` (the runtime records the golden entry immediately
    after reporting)."""

    undrained: int = 0
    """Records placed but never durable by end of run (not shippable)."""

    def truncated(self, crash_time: Optional[float]) -> list:
        """Records durable by ``crash_time`` (all of them when None)."""
        if crash_time is None:
            return list(self.records)
        return [rec for rec in self.records if rec.durable <= crash_time]

    def commit_map(self) -> dict:
        """``(tid, ordinal) -> (seq, physical_txid, golden_index, reported)``.

        ``ordinal`` is the per-thread commit counter (k-th COMMIT record
        of ``tid`` in stream order matches the k-th reported commit of
        ``tid``); ``golden_index`` indexes the golden model's commit
        list; ``reported`` is the durability the runtime reported.
        """
        reported_by_tid: dict = {}
        reported_index: dict = {}
        for index, (tid, durable, _time) in enumerate(self.reported):
            ordinal = reported_by_tid.get(tid, 0)
            reported_by_tid[tid] = ordinal + 1
            reported_index[(tid, ordinal)] = (index, durable)
        ordinals: dict = {}
        mapping: dict = {}
        for rec in self.records:
            if rec.kind != "COMMIT":
                continue
            ordinal = ordinals.get(rec.tid, 0)
            ordinals[rec.tid] = ordinal + 1
            entry = reported_index.get((rec.tid, ordinal))
            if entry is None:
                continue  # commit record durable but report never emitted
            index, durable = entry
            mapping[(rec.tid, ordinal)] = (rec.seq, rec.txid, index, durable)
        return mapping


class LogStreamCollector:
    """A machine's log-stream tap: collects its durable log records.

    Construction installs the collector as ``machine.log_tap``;
    :meth:`finish` removes it.  The machine calls the three ``on_*``
    methods; nothing else feeds the stream.
    """

    def __init__(self, machine) -> None:
        if machine.log_tap is not None:
            raise ConfigError("machine already has a log-stream tap")
        # Weak: the machine holds the tap, and a strong back-reference
        # would leave the machine (and its NVRAM image) to the cyclic
        # garbage collector instead of freeing it when the run is done.
        self._machine = weakref.ref(machine)
        self._entry_size = machine.log.entry_size
        self._placed: list = []  # (place_order, ShippedRecord), unharvested
        self._place_count = 0
        self._next_seq = 0  # continues across incremental harvests
        self._pending_by_entry: dict = {}  # entry addr -> unresolved sw record
        self._reported: list = []
        machine.log_tap = self

    # ------------------------------------------------------------------
    # Tap interface (called by the machine)
    # ------------------------------------------------------------------
    def on_log_place(
        self, record, entry_addr: int, payload: bytes, now: float, release
    ) -> None:
        """A record was placed at ``entry_addr``; ``release`` is its
        durability time, or None for a software record still on its way
        to NVRAM."""
        kind = record.kind
        rec = ShippedRecord(
            seq=-1,
            kind=kind.name,
            txid=record.txid,
            tid=record.tid,
            addr=record.addr if kind is RecordKind.DATA else None,
            undo=record.undo,
            redo=record.redo,
            place_time=now,
            durable=-1.0 if release is None else release,
            payload=payload,
        )
        self._placed.append((self._place_count, rec))
        self._place_count += 1
        if release is None:
            self._pending_by_entry[entry_addr] = rec

    def on_commit_reported(self, tid: int, durable: float, now: float) -> None:
        """The runtime reported a commit durable at ``durable``."""
        self._reported.append((tid, durable, now))

    def on_nvram_write(self, addr: int, size: int, completion: float) -> None:
        """A timed NVRAM write completes at ``completion``: it makes every
        pending software record whose log entry it covers durable.  (Only
        log entries are pending, so writes elsewhere match nothing.)"""
        pending = self._pending_by_entry
        if not pending:
            return
        entry_size = self._entry_size
        entry = addr - (addr % entry_size)
        stop = addr + size
        while entry < stop:
            rec = pending.pop(entry, None)
            if rec is not None:
                rec.durable = completion
            entry += entry_size

    # ------------------------------------------------------------------
    def _number(self, placed: list) -> list:
        """Sort ``(order, record)`` pairs into durability order (placement
        order breaks ties) and assign the next sequence numbers."""
        placed.sort(key=lambda item: (item[1].durable, item[0]))
        records = []
        for _order, rec in placed:
            rec.seq = self._next_seq
            self._next_seq += 1
            records.append(rec)
        return records

    def harvest(self, before: float) -> list:
        """Extract records durable strictly before ``before`` (mid-run).

        The incremental shipping API: once every thread of the tapped
        machine has been stepped to cycle ``before``, any record still
        pending durability will resolve at or after ``before``, so the
        harvested prefix is final — its durability order can never be
        perturbed by later execution.  Sequence numbers continue across
        harvests (and into :meth:`finish`), giving the same global
        durability order a single end-of-run collection would have
        assigned.
        """
        ripe: list = []
        rest: list = []
        for item in self._placed:
            durable = item[1].durable
            if 0 <= durable < before:
                ripe.append(item)
            else:
                rest.append(item)
        self._placed = rest
        return self._number(ripe)

    def finish(self) -> LogStream:
        """Detach from the machine; return the durability-ordered stream.

        After incremental :meth:`harvest` calls, only the leftover
        records appear here, numbered continuing from the harvested
        prefix.
        """
        machine = self._machine()
        if machine is not None and machine.log_tap is self:
            machine.log_tap = None
        undrained = sum(1 for _order, rec in self._placed if rec.durable < 0)
        durable = [item for item in self._placed if item[1].durable >= 0]
        self._placed = []
        return LogStream(
            records=self._number(durable),
            entry_size=self._entry_size,
            reported=self._reported,
            undrained=undrained,
        )


# ----------------------------------------------------------------------
# Link faults
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkFault:
    """One adversarial event on a primary->replica link.

    ``kind`` is one of:

    * ``drop`` — the batch's first transmission is lost; the primary
      re-ships it after the retransmit timeout.
    * ``dup`` — the batch is delivered twice; the replica must
      deduplicate by sequence number (the second delivery is re-acked
      but not re-applied).
    * ``delay`` — delivery is late by ``delay`` cycles, possibly
      arriving after later batches; the replica buffers successors and
      still appends in sequence order.
    * ``torn`` — the batch lands partially: ``keep_records`` records
      become durable, the next record's ring entry is torn after
      ``keep_bytes`` bytes, and the link goes dark (no ack, no further
      shipments) — the crash-during-log-ship case.
    """

    kind: str
    replica: int
    batch: int
    delay: float = 0.0
    keep_records: int = 0
    keep_bytes: int = 24

    def __post_init__(self) -> None:
        if self.kind not in ("drop", "dup", "delay", "torn"):
            raise ValueError(f"unknown link fault kind: {self.kind!r}")

    @property
    def label(self) -> str:
        extra = ""
        if self.kind == "delay":
            extra = f"+{self.delay:.0f}"
        elif self.kind == "torn":
            extra = f"@{self.keep_records}+{self.keep_bytes}B"
        return f"{self.kind}(r{self.replica},b{self.batch}){extra}"


@dataclass
class _Batch:
    index: int
    records: list  # ShippedRecord, contiguous seqs
    ready: float  # all records durable on the primary

    @property
    def start(self) -> int:
        return self.records[0].seq

    @property
    def count(self) -> int:
        return len(self.records)


@dataclass
class _LinkState:
    appends: list = field(default_factory=list)  # (seq, durable_time)
    torn: Optional[tuple] = None  # (seq, keep_bytes, time)
    acks: dict = field(default_factory=dict)  # batch -> (send, arrival)
    frontier: int = 0  # contiguous fully-durable records from seq 0
    dead_after: Optional[float] = None


class ShipTimeline:
    """Deterministic shipping schedule for one primary run.

    Pure function of ``(stream, config, crash/fault inputs)`` — no
    randomness, no wall clock — so every campaign point is reproducible
    and the timeline can be recomputed per point from one traced run.

    ``unsafe_early_ack`` is the deliberate protocol-violation probe: the
    replica acks a batch at delivery time, before its records are
    durable in the ring, which the ``repl-ack-durable`` sanitizer rule
    must flag.
    """

    def __init__(
        self,
        stream: LogStream,
        config: DistConfig,
        *,
        primary_crash: Optional[float] = None,
        replica_crashes: Optional[dict] = None,
        faults: tuple = (),
        unsafe_early_ack: bool = False,
    ) -> None:
        config.validate()
        self.stream = stream
        self.config = config
        self.primary_crash = primary_crash
        self.replica_crashes = dict(replica_crashes or {})
        self.faults = tuple(faults)
        self.unsafe_early_ack = unsafe_early_ack
        self.events: list = []
        self.links: dict = {}
        self.cluster_committed: dict = {}  # (tid, ordinal) -> commit time
        self.batches: list = []
        self._compute()

    # ------------------------------------------------------------------
    def _cut_batches(self, records: list) -> list:
        """Cut the (possibly truncated) stream into shipment batches.

        The trailing batch is shipped only if the normal cut rule closed
        it (full, or ending in a COMMIT record); a batch still
        accumulating when the primary died was never handed to the NIC.
        """
        batches: list = []
        current: list = []
        closed = True
        for rec in records:
            current.append(rec)
            closed = (
                len(current) >= self.config.batch_records or rec.kind == "COMMIT"
            )
            if closed:
                batches.append(
                    _Batch(
                        index=len(batches),
                        records=current,
                        ready=max(piece.durable for piece in current),
                    )
                )
                current = []
        if current and self.primary_crash is None:
            # End of a complete run: everything durable gets flushed.
            batches.append(
                _Batch(
                    index=len(batches),
                    records=current,
                    ready=max(piece.durable for piece in current),
                )
            )
        return batches

    def _batch_bytes(self, batch: _Batch) -> float:
        return (
            self.config.batch_header_bytes
            + batch.count * self.stream.entry_size
        )

    # ------------------------------------------------------------------
    def _compute(self) -> None:
        link = self.config.link
        crash = self.primary_crash
        records = self.stream.truncated(crash)
        self.batches = self._cut_batches(records)
        xmit_base = 1.0 / link.bandwidth_bytes_per_cycle
        fault_map = {
            (fault.replica, fault.batch): fault for fault in self.faults
        }
        for replica in self.config.replica_ids:
            state = _LinkState()
            self.links[replica] = state
            replica_crash = self.replica_crashes.get(replica)
            link_free = 0.0
            applied_end = 0.0
            contiguous = True
            for batch in self.batches:
                fault = fault_map.get((replica, batch.index))
                window_gate = 0.0
                behind = batch.index - self.config.window_batches
                if behind >= 0:
                    gate_ack = state.acks.get(behind)
                    if gate_ack is None:
                        break  # window full forever (unacked batch ahead)
                    window_gate = gate_ack[1]
                send = max(batch.ready, link_free, window_gate)
                if crash is not None and send > crash:
                    break  # the primary died before shipping this batch
                if state.dead_after is not None:
                    break  # link went dark (torn batch)
                xmit = self._batch_bytes(batch) * xmit_base
                attempt = 1
                if fault is not None and fault.kind == "drop":
                    # First transmission lost; the primary notices the
                    # missing ack at the timeout and re-ships.
                    self._emit(
                        send, "ship", replica=replica, batch=batch.index,
                        start_seq=batch.start, n=batch.count,
                        nbytes=int(self._batch_bytes(batch)), attempt=1,
                        lost=True,
                    )
                    send = send + link.retransmit_timeout
                    if crash is not None and send > crash:
                        break  # died before the retransmit
                    attempt = 2
                link_free = send + xmit
                arrival = send + link.latency + xmit
                self._emit(
                    send, "ship", replica=replica, batch=batch.index,
                    start_seq=batch.start, n=batch.count,
                    nbytes=int(self._batch_bytes(batch)), attempt=attempt,
                    lost=False,
                )
                if fault is not None and fault.kind == "delay":
                    arrival += fault.delay
                if replica_crash is not None and arrival > replica_crash:
                    contiguous = False  # replica dead; nothing lands
                    continue
                self._emit(
                    arrival, "repl_deliver", replica=replica,
                    batch=batch.index, start_seq=batch.start, n=batch.count,
                    duplicate=False,
                )
                # Append in sequence order: a delayed predecessor pushes
                # this batch's append start out via applied_end, which is
                # exactly the replica buffering successors until the gap
                # fills.
                append_start = max(arrival, applied_end)
                appended_all = True
                keep = batch.count
                if fault is not None and fault.kind == "torn":
                    keep = min(fault.keep_records, batch.count)
                for offset, rec in enumerate(batch.records):
                    if offset >= keep:
                        appended_all = False
                        if fault is not None and fault.kind == "torn":
                            tear_time = append_start + (
                                (offset + 1) * link.append_cycles_per_record
                            )
                            state.torn = (rec.seq, fault.keep_bytes, tear_time)
                            self._emit(
                                tear_time, "repl_append", replica=replica,
                                seq=rec.seq, slot=rec.seq, torn=True,
                                record_kind=rec.kind,
                            )
                        break
                    t_durable = append_start + (
                        (offset + 1) * link.append_cycles_per_record
                    )
                    if replica_crash is not None and t_durable > replica_crash:
                        appended_all = False
                        break
                    state.appends.append((rec.seq, t_durable))
                    if contiguous and rec.seq == state.frontier:
                        state.frontier += 1
                    self._emit(
                        t_durable, "repl_append", replica=replica,
                        seq=rec.seq, slot=rec.seq, torn=False,
                        record_kind=rec.kind,
                    )
                applied_end = append_start + keep * link.append_cycles_per_record
                if fault is not None and fault.kind == "torn":
                    state.dead_after = applied_end
                    continue  # no ack: the replica went dark mid-append
                if not appended_all:
                    contiguous = False
                    continue  # replica died mid-append: no ack
                if self.unsafe_early_ack:
                    ack_send = arrival  # PROBE: acked before durable
                else:
                    ack_send = applied_end
                ack_arrival = ack_send + link.latency
                state.acks[batch.index] = (ack_send, ack_arrival)
                self._emit(
                    ack_arrival, "repl_ack", replica=replica,
                    batch=batch.index, start_seq=batch.start, n=batch.count,
                    sent=ack_send,
                )
                if fault is not None and fault.kind == "dup":
                    dup_arrival = arrival + link.latency
                    self._emit(
                        dup_arrival, "repl_deliver", replica=replica,
                        batch=batch.index, start_seq=batch.start,
                        n=batch.count, duplicate=True,
                    )
                    # Already applied: re-ack without re-appending.
                    self._emit(
                        dup_arrival + link.latency, "repl_ack",
                        replica=replica, batch=batch.index,
                        start_seq=batch.start, n=batch.count,
                        sent=dup_arrival,
                    )
        self._derive_cluster_commits()
        self.events.sort(key=lambda item: (item[0], item[1]))
        self.events = [event for _time, _order, event in self.events]

    # ------------------------------------------------------------------
    def _derive_cluster_commits(self) -> None:
        batch_of: dict = {}
        for batch in self.batches:
            for rec in batch.records:
                batch_of[rec.seq] = batch.index
        crash = self.primary_crash
        for (tid, ordinal), (seq, txid, _index, reported) in sorted(
            self.stream.commit_map().items(), key=lambda item: item[1][0]
        ):
            batch_index = batch_of.get(seq)
            if batch_index is None:
                continue  # commit record durable after the primary died
            acks = []
            for replica in self.config.replica_ids:
                ack = self.links[replica].acks.get(batch_index)
                if ack is None:
                    acks = None
                    break
                acks.append(ack[1])
            if acks is None:
                continue  # no full quorum: never reported cluster-committed
            commit_time = max([reported] + acks)
            if crash is not None and commit_time > crash:
                continue  # primary died before seeing the quorum
            self.cluster_committed[(tid, ordinal)] = commit_time
            self._emit(
                commit_time, "dist_commit", tid=tid, ordinal=ordinal,
                txid=txid, seq=seq, batch=batch_index,
                quorum=list(self.config.replica_ids), acks=acks,
                reported=reported,
            )

    def _emit(self, time: float, kind: str, **detail) -> None:
        self.events.append(
            (time, len(self.events), TraceEvent(time, kind, -1, detail))
        )

    # ------------------------------------------------------------------
    def frontier(self, replica: int) -> int:
        """Contiguous durable records on ``replica`` starting at seq 0."""
        return self.links[replica].frontier

    def event_stream(self) -> list:
        """The timeline as trace events, time-ordered (for the sanitizer)."""
        meta = TraceEvent(
            0.0,
            "meta",
            -1,
            {
                "dist": True,
                "replicas": list(self.config.replica_ids),
                "window_batches": self.config.window_batches,
                "batch_records": self.config.batch_records,
            },
        )
        return [meta] + list(self.events)
