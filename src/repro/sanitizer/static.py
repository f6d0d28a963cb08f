"""Static persistency verifier: psan verdicts without replaying.

The dynamic checker (:mod:`repro.sanitizer.checker`) establishes each
cell's verdict by simulating it — every micro-op executes, every cache
line moves, and the checker watches the event stream.  This module
reaches the same verdicts *symbolically*: it walks a compiled trace's
columns (:mod:`repro.sim.ctrace`) exactly once, maintains per-address
abstract persist-states (logged-undo / logged-redo / written-back /
durable / torn-window), and drives the state transitions from the
design's predicate table (:meth:`~repro.core.design.DesignSpec
.predicate_table`) instead of from a machine.  The paper's central claim
— that persist ordering under hardware undo+redo logging is an
*architectural* property — is exactly what makes this possible: the
verdict depends on which mechanisms the design composes, not on the
timing of any particular execution.

Every rule's outcome is a :class:`StaticVerdict`: **proven** (with the
mechanism-level reason), **violated** (with a :class:`CounterExample`
carrying op indices replay can confirm — see
:func:`confirm_counterexample`), or **not-applicable** (designs without
a log backend claim nothing, mirroring the dynamic checker disabling
itself).

Proofs lean on four *architectural axioms* — facts about the simulated
mechanisms that hold for every trace, stated once here rather than
re-derived per cell:

A1 (placement order)
    A log record for a transactional store is placed before the store
    retires (software logging issues the record first; the hardware
    engine appends at store execution).
A2 (log-channel priority)
    Log channels (the per-core WCB's uncacheable stores, the per-thread
    hardware log FIFO) drain to NVRAM ahead of any later-issued data
    write-back of a covered line.
A3 (FIFO drains)
    Each buffer's completions are assigned in push order.
A4 (pass parity)
    The circular log flips the torn bit once per pass, so slot ``p`` on
    pass ``k`` carries bit ``k mod 2``.

The axioms themselves are *validated differentially*: the acceptance
gate (:func:`run_differential`) requires static and dynamic verdicts to
agree on every cell of the benchmark × design × threads matrix, and
every emitted counterexample to reproduce as a real dynamic diagnostic.

The one genuinely behavioural model the verifier carries is the
write-combining buffer: a software commit record is durable within the
run only once at least ``wcb_entries`` later records displace it
(:class:`_SwDrainModel`) — which is why ``unsafe-base`` trips
``redo-missing`` only from the second transaction on, exactly like the
dynamic checker.

Replication rules are verified over :class:`~repro.dist.ship
.ShipTimeline` *schedules* (the derived batch/append/ack structures,
not the event stream) by :func:`verify_ship_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.design import CommitProtocol, resolve_design
from ..sim.ctrace import (
    K_TX_BEGIN,
    K_TX_COMMIT,
    K_WRITE,
    SYM_BASE,
    SYM_OFF_MASK,
    CompiledTrace,
)
from .checker import cell_trace, replay_checked
from .hb import RaceReport, detect_races
from .rules import (
    LOGGING_RULES,
    REPLICATION_RULE_IDS,
    RULES,
    claims_guarantee,
    rules_for_design,
)

_EPS = 1e-6

PROVEN = "proven"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"


# ----------------------------------------------------------------------
# Verdict containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CounterExample:
    """A concrete witness for a violated rule, anchored in the trace.

    ``op_index`` indexes the owning thread's compiled op columns;
    ``addr`` may be a symbolic block token, which
    :func:`confirm_counterexample` relocates through the replay binding
    before matching it against the dynamic diagnostics.
    """

    rule: str
    tid: int
    op_index: int
    addr: Optional[int] = None
    piece_index: Optional[int] = None
    txn_ordinal: Optional[int] = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "tid": self.tid,
            "op_index": self.op_index,
            "addr": self.addr,
            "piece_index": self.piece_index,
            "txn_ordinal": self.txn_ordinal,
            "detail": self.detail,
        }

    def render(self) -> str:
        head = f"tid {self.tid} op {self.op_index}"
        if self.txn_ordinal is not None:
            head += f" txn#{self.txn_ordinal}"
        if self.addr is not None:
            head += f" addr {self.addr:#x}"
        return f"{head}: {self.detail}"


@dataclass(frozen=True)
class StaticVerdict:
    """Proof-or-counterexample outcome for one rule."""

    rule: str
    verdict: str  # PROVEN | VIOLATED | NOT_APPLICABLE
    reason: str
    counterexample: Optional[CounterExample] = None

    @property
    def violated(self) -> bool:
        return self.verdict == VIOLATED

    def to_dict(self) -> dict:
        data = {"rule": self.rule, "verdict": self.verdict, "reason": self.reason}
        if self.counterexample is not None:
            data["counterexample"] = self.counterexample.to_dict()
        return data

    def render(self) -> str:
        line = f"[{self.rule}] {self.verdict}: {self.reason}"
        if self.counterexample is not None:
            line += f"\n    witness {self.counterexample.render()}"
        return line


@dataclass
class StaticReport:
    """Outcome of statically verifying one (trace, design) cell."""

    policy: str = "?"
    benchmark: str = "?"
    threads: int = 0
    verdicts: dict = field(default_factory=dict)  # rule id -> StaticVerdict
    rules_checked: tuple = ()
    ops_examined: int = 0
    pieces_examined: int = 0
    txns_seen: int = 0
    races: Optional[RaceReport] = None

    @property
    def clean(self) -> bool:
        """True when no rule is violated (races reported separately)."""
        return not any(v.violated for v in self.verdicts.values())

    def rules_fired(self) -> set:
        """Violated rule ids — comparable to ``PsanReport.rules_fired``."""
        return {rule for rule, v in self.verdicts.items() if v.violated}

    def counterexamples(self) -> list:
        return [
            v.counterexample
            for v in self.verdicts.values()
            if v.counterexample is not None
        ]

    def cost(self) -> int:
        """Deterministic work counter: column entries examined once."""
        return self.ops_examined + self.pieces_examined

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "benchmark": self.benchmark,
            "threads": self.threads,
            "clean": self.clean,
            "rules_checked": list(self.rules_checked),
            "ops_examined": self.ops_examined,
            "pieces_examined": self.pieces_examined,
            "txns_seen": self.txns_seen,
            "verdicts": {rule: v.to_dict() for rule, v in self.verdicts.items()},
            "races": self.races.to_dict() if self.races is not None else None,
        }

    def render(self, proofs: bool = False) -> str:
        fired = sorted(self.rules_fired())
        verdict = "clean" if not fired else f"violates {','.join(fired)}"
        lines = [
            f"pstatic: {self.benchmark} @{self.threads}t {self.policy}: "
            f"{verdict} ({self.ops_examined} ops, {self.pieces_examined} "
            f"pieces, {self.txns_seen} txns, "
            f"{len(self.rules_checked)} rules)"
        ]
        for rule in self.rules_checked:
            v = self.verdicts[rule]
            if v.violated or proofs:
                lines.append("  " + v.render())
        if self.races is not None and not self.races.clean:
            lines.append("  " + self.races.render())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Trace facts: one walk over the columns
# ----------------------------------------------------------------------
@dataclass
class _Txn:
    """One transaction's statically-gathered shape."""

    ordinal: int
    begin_op: int
    commit_op: Optional[int]
    pieces: list = field(default_factory=list)  # (op, piece_index, addr, len)

    @property
    def committed(self) -> bool:
        return self.commit_op is not None


@dataclass
class _ThreadFacts:
    tid: int
    txns: list = field(default_factory=list)
    outside: list = field(default_factory=list)  # (op, piece_index, addr, sanctioned)
    ops: int = 0
    pieces: int = 0


def _gather(trace: CompiledTrace, defers: bool) -> list:
    """Walk every thread's columns once; returns per-thread facts.

    ``defers`` marks software-redo designs, whose runtime legitimately
    flushes a just-committed transaction's stores outside the span —
    compiled traces never contain such writes (the runtime emits them,
    not the workload), but synthetic analyzer inputs may, and the
    sanctioned-address check must match the dynamic checker's.
    """
    facts = []
    for tid, col in enumerate(trace.thread_cols):
        tf = _ThreadFacts(tid)
        current: Optional[_Txn] = None
        last_closed: Optional[_Txn] = None
        for i, kind, a, b in col.iter_ops():
            tf.ops += 1
            if kind == K_TX_BEGIN:
                current = _Txn(len(tf.txns), i, None)
                tf.txns.append(current)
            elif kind == K_TX_COMMIT:
                if current is not None:
                    current.commit_op = i
                    last_closed = current
                    current = None
            elif kind == K_WRITE:
                for j, addr, length, _sym in col.write_pieces(a, b):
                    tf.pieces += 1
                    if current is not None:
                        current.pieces.append((i, j, addr, length))
                    else:
                        sanctioned = (
                            defers
                            and last_closed is not None
                            and any(addr == p[2] for p in last_closed.pieces)
                        )
                        tf.outside.append((i, j, addr, sanctioned))
        facts.append(tf)
    return facts


class _SwDrainModel:
    """Which software commit records become durable within the run.

    Software log records are uncacheable stores through the placing
    core's write-combining buffer (capacity ``wcb_entries``); the buffer
    drains its oldest entry only under push pressure, and nothing
    flushes it at end of run.  A record at position ``p`` of a thread's
    ``n``-record stream therefore reaches NVRAM during the run iff
    ``p < n - wcb_entries`` — unless the design fences at commit, which
    flushes the buffer and makes every record durable immediately.
    """

    def __init__(self, tf: _ThreadFacts, wcb_entries: int) -> None:
        position = 0
        self._commit_pos: dict = {}
        for txn in tf.txns:
            position += 1  # BEGIN record, placed at tx_begin
            position += len(txn.pieces)  # one DATA record per piece
            if txn.committed:
                self._commit_pos[txn.ordinal] = position
                position += 1  # COMMIT record
        self._total = position
        self._wcb = wcb_entries

    def commit_drained(self, txn: _Txn) -> bool:
        pos = self._commit_pos.get(txn.ordinal)
        if pos is None:
            return False
        return pos < self._total - self._wcb

    def records(self) -> int:
        return self._total


def _records_for(tf: _ThreadFacts, hw: bool) -> int:
    """Log records thread ``tf`` places under a hw/sw backend."""
    total = 0
    for txn in tf.txns:
        if hw:
            # The hardware engine appends BEGIN lazily at the first
            # store and a COMMIT only for started transactions.
            if txn.pieces:
                total += 1 + len(txn.pieces) + (1 if txn.committed else 0)
        else:
            total += 1 + len(txn.pieces) + (1 if txn.committed else 0)
    return total


# ----------------------------------------------------------------------
# The verifier
# ----------------------------------------------------------------------
def verify_trace(
    trace: CompiledTrace,
    policy,
    system=None,
    hb: bool = True,
) -> StaticReport:
    """Statically verify every psan rule for (``trace``, ``policy``).

    ``system`` supplies the log/WCB geometry (defaults to the standard
    experiment configuration).  Set ``hb=False`` to skip the
    happens-before race pass.
    """
    spec = resolve_design(policy)
    if system is None:
        from ..harness.runner import default_experiment_config

        system = default_experiment_config()
    logging = system.logging

    report = StaticReport(policy=spec.value, threads=trace.threads)
    report.rules_checked = rules_for_design(spec)
    if not report.rules_checked:
        # No log backend: the dynamic checker disables itself; mirror it.
        report.verdicts = {
            rule: StaticVerdict(
                rule,
                NOT_APPLICABLE,
                "design has no log backend and claims no persistence",
            )
            for rule in RULES
        }
        report.ops_examined = trace.op_count()
        report.pieces_examined = trace.piece_count()
        if hb:
            report.races = detect_races(trace)
        return report

    pred = spec.predicate_table()
    fenced = pred["fenced_commit"]
    facts = _gather(trace, pred["defers_in_place_stores"])
    report.ops_examined = sum(tf.ops for tf in facts)
    report.pieces_examined = sum(tf.pieces for tf in facts)
    report.txns_seen = sum(len(tf.txns) for tf in facts)

    verdicts = report.verdicts

    # -- undo-missing --------------------------------------------------
    if pred["defers_in_place_stores"]:
        verdicts["undo-missing"] = StaticVerdict(
            "undo-missing",
            PROVEN,
            "software redo logging defers every in-place store past "
            "commit; no open transaction ever mutates the heap",
        )
    elif pred["logs_undo"]:
        verdicts["undo-missing"] = StaticVerdict(
            "undo-missing",
            PROVEN,
            "log content includes undo: a record carrying the old value "
            "is placed before every in-place store retires (A1)",
        )
    else:
        witness = _first_txn_piece(facts, committed_only=False)
        if witness is None:
            verdicts["undo-missing"] = StaticVerdict(
                "undo-missing", PROVEN, "vacuous: no transactional store"
            )
        else:
            tid, txn, op, j, addr = witness
            verdicts["undo-missing"] = StaticVerdict(
                "undo-missing",
                VIOLATED,
                "records carry no undo value, yet stores apply in place "
                "inside open transactions",
                CounterExample(
                    "undo-missing",
                    tid,
                    op,
                    addr=addr,
                    piece_index=j,
                    txn_ordinal=txn.ordinal,
                    detail=f"in-place store at {addr:#x} with a redo-only record",
                ),
            )

    # -- redo-missing --------------------------------------------------
    if pred["logs_redo"]:
        verdicts["redo-missing"] = StaticVerdict(
            "redo-missing",
            PROVEN,
            "log content includes redo: every DATA record carries the "
            "new value, so recovery replays any durably-committed "
            "transaction",
        )
    elif pred["uses_sw_logging"] and fenced and pred["uses_clwb_at_commit"]:
        verdicts["redo-missing"] = StaticVerdict(
            "redo-missing",
            PROVEN,
            "the write set is clwb-flushed and fenced before the commit "
            "record is even placed, so data is durable no later than any "
            "durable commit",
        )
    else:
        witness = _first_undrained_commit_witness(facts, spec, fenced, logging)
        if witness is None:
            verdicts["redo-missing"] = StaticVerdict(
                "redo-missing",
                PROVEN,
                "vacuous: no committed transaction's commit record "
                "becomes durable within the run (all remain buffered)",
            )
        else:
            tid, txn, op, j, addr = witness
            verdicts["redo-missing"] = StaticVerdict(
                "redo-missing",
                VIOLATED,
                "a commit record becomes durable while the data it "
                "covers is neither written back nor redo-logged",
                CounterExample(
                    "redo-missing",
                    tid,
                    op,
                    addr=addr,
                    piece_index=j,
                    txn_ordinal=txn.ordinal,
                    detail=(
                        f"store at {addr:#x} is unrecoverable once txn#"
                        f"{txn.ordinal}'s undo-only commit record lands"
                    ),
                ),
            )

    # -- commit-durability ---------------------------------------------
    if fenced:
        verdicts["commit-durability"] = StaticVerdict(
            "commit-durability",
            PROVEN,
            "fenced commit: the reported durability is the commit "
            "record's actual completion (wcb flush / fence / hw release)",
        )
    else:
        witness = _first_commit_record(facts, hw=pred["uses_hw_logging"])
        if witness is None:
            verdicts["commit-durability"] = StaticVerdict(
                "commit-durability", PROVEN, "vacuous: no commit record placed"
            )
        else:
            tid, txn = witness
            verdicts["commit-durability"] = StaticVerdict(
                "commit-durability",
                VIOLATED,
                "instant commit reports the core clock without awaiting "
                "the commit record's NVRAM completion",
                CounterExample(
                    "commit-durability",
                    tid,
                    txn.commit_op,
                    txn_ordinal=txn.ordinal,
                    detail=(
                        f"txn#{txn.ordinal} reports commit optimistically "
                        "at the core clock"
                    ),
                ),
            )

    # -- architectural-axiom rules ------------------------------------
    if pred["defers_in_place_stores"]:
        steal_reason = (
            "uncommitted data never enters the cache hierarchy "
            "(in-place stores are deferred past commit), so no steal "
            "can precede its log record"
        )
    else:
        steal_reason = (
            "every transactional store is preceded by a record placement "
            "for the same word (A1), and log channels drain ahead of any "
            "later data write-back of the line (A2)"
        )
    verdicts["steal-order"] = StaticVerdict("steal-order", PROVEN, steal_reason)
    verdicts["commit-order"] = StaticVerdict(
        "commit-order",
        PROVEN,
        "a transaction's DATA and COMMIT records share one FIFO channel "
        "(the placing core's WCB / the per-thread log buffer, A3) and "
        "DATA is placed first, so it completes no later",
    )
    verdicts["fifo-order"] = StaticVerdict(
        "fifo-order",
        PROVEN,
        "buffer completions are assigned in push order by the memory "
        "controller (A3); a drain can never complete out of store-order",
    )
    verdicts["torn-parity"] = StaticVerdict(
        "torn-parity",
        PROVEN,
        "slot p is rewritten only one full pass later and the torn bit "
        "is the pass parity (A4); consecutive occupants always differ",
    )
    verdicts["switch-epoch-clean"] = StaticVerdict(
        "switch-epoch-clean",
        PROVEN,
        "compiled op columns contain no design-switch op: the trace runs "
        "under one DesignSpec end to end, so no state can straddle an "
        "epoch barrier (adaptive runs are checked dynamically)",
    )

    # -- wrap-overwrite ------------------------------------------------
    total_records = sum(
        _records_for(tf, hw=pred["uses_hw_logging"]) for tf in facts
    )
    if total_records <= logging.log_entries:
        verdicts["wrap-overwrite"] = StaticVerdict(
            "wrap-overwrite",
            PROVEN,
            f"the run places {total_records} records into a "
            f"{logging.log_entries}-entry ring: no slot is ever "
            "overwritten",
        )
    elif pred["protects_log_wrap"]:
        verdicts["wrap-overwrite"] = StaticVerdict(
            "wrap-overwrite",
            PROVEN,
            "the ring wraps, but wrap protection forces each displaced "
            "entry's data line durable before the overwriting record "
            "may complete",
        )
    else:
        tid, txn = _last_commit(facts)
        verdicts["wrap-overwrite"] = StaticVerdict(
            "wrap-overwrite",
            VIOLATED,
            f"{total_records} records wrap a {logging.log_entries}-entry "
            "ring with no wrap protection: an overwritten DATA record's "
            "line may still be dirty, leaving a crash window with "
            "neither copy",
            CounterExample(
                "wrap-overwrite",
                tid,
                txn.commit_op if txn.commit_op is not None else txn.begin_op,
                txn_ordinal=txn.ordinal,
                detail=(
                    f"ring capacity exceeded by "
                    f"{total_records - logging.log_entries} records"
                ),
            ),
        )

    # -- unlogged-mutation ---------------------------------------------
    witness = None
    for tf in facts:
        for op, j, addr, sanctioned in tf.outside:
            if not sanctioned:
                witness = (tf.tid, op, j, addr)
                break
        if witness is not None:
            break
    if witness is None:
        verdicts["unlogged-mutation"] = StaticVerdict(
            "unlogged-mutation",
            PROVEN,
            "every write op lies inside a tx_begin/tx_commit span "
            "(deferred redo flushes target the just-committed write set)",
        )
    else:
        tid, op, j, addr = witness
        verdicts["unlogged-mutation"] = StaticVerdict(
            "unlogged-mutation",
            VIOLATED,
            "a persistent-heap write occurs outside any transaction",
            CounterExample(
                "unlogged-mutation",
                tid,
                op,
                addr=addr,
                piece_index=j,
                detail=f"store at {addr:#x} with no open transaction",
            ),
        )

    # -- replication rules (single-machine cell) -----------------------
    for rule in REPLICATION_RULE_IDS:
        verdicts[rule] = StaticVerdict(
            rule,
            PROVEN,
            "single-machine cell: no batch is shipped, nothing to order "
            "(ship schedules verify via verify_ship_schedule)",
        )

    if hb:
        report.races = detect_races(trace)
    return report


def _first_txn_piece(facts, committed_only: bool):
    """First transactional store piece, in (tid, op) order."""
    for tf in facts:
        for txn in tf.txns:
            if committed_only and not txn.committed:
                continue
            if txn.pieces:
                op, j, addr, _length = txn.pieces[0]
                return tf.tid, txn, op, j, addr
    return None


def _first_commit_record(facts, hw: bool):
    """First committed txn that places a COMMIT record under ``hw``."""
    for tf in facts:
        for txn in tf.txns:
            if not txn.committed:
                continue
            if hw and not txn.pieces:
                continue  # hardware appends nothing for storeless txns
            return tf.tid, txn
    return None


def _last_commit(facts):
    """The final transaction of the thread placing the most records."""
    best = max(facts, key=lambda tf: tf.pieces + 2 * len(tf.txns))
    return best.tid, best.txns[-1]


def _first_undrained_commit_witness(facts, spec, fenced: bool, logging):
    """First committed, store-carrying txn whose commit record becomes
    durable in-run while its data stays unrecoverable (no redo)."""
    for tf in facts:
        drain = None
        if spec.uses_sw_logging and not fenced:
            drain = _SwDrainModel(tf, logging.wcb_entries)
        for txn in tf.txns:
            if not (txn.committed and txn.pieces):
                continue
            if drain is not None and not drain.commit_drained(txn):
                continue
            op, j, addr, _length = txn.pieces[0]
            return tf.tid, txn, op, j, addr
    return None


# ----------------------------------------------------------------------
# Ship-schedule verification (the three replication rules)
# ----------------------------------------------------------------------
def verify_ship_schedule(timeline) -> dict:
    """Verify the replication rules over a :class:`ShipTimeline` schedule.

    Operates on the timeline's *derived structures* — per-link append
    and ack tables, the cluster-commit map — not on its event stream, so
    no event replay happens.  Returns ``rule id -> StaticVerdict``.
    """
    verdicts: dict = {}
    batches = {batch.index: batch for batch in timeline.batches}

    # repl-ack-durable: an ack must not be sent before every record of
    # its batch is durable on the replica.
    witness = None
    for replica, link in sorted(timeline.links.items()):
        durable_by_seq = dict(link.appends)
        for batch_index, (ack_send, _arrival) in sorted(link.acks.items()):
            batch = batches[batch_index]
            for rec in batch.records:
                durable = durable_by_seq.get(rec.seq)
                if durable is None or durable > ack_send + _EPS:
                    witness = (replica, batch_index, rec.seq, ack_send, durable)
                    break
            if witness is not None:
                break
        if witness is not None:
            break
    if witness is None:
        verdicts["repl-ack-durable"] = StaticVerdict(
            "repl-ack-durable",
            PROVEN,
            "every ack is sent at the batch's applied_end, which is no "
            "earlier than its last append completion; torn or truncated "
            "batches are never acked",
        )
    else:
        replica, batch_index, seq, ack_send, durable = witness
        verdicts["repl-ack-durable"] = StaticVerdict(
            "repl-ack-durable",
            VIOLATED,
            "a batch is acknowledged before its records are durable on "
            "the replica",
            CounterExample(
                "repl-ack-durable",
                replica,
                batch_index,
                detail=(
                    f"replica {replica} acks batch {batch_index} at "
                    f"{ack_send:.0f} but seq {seq} is "
                    + (
                        "never appended"
                        if durable is None
                        else f"durable only at {durable:.0f}"
                    )
                ),
            ),
        )

    # repl-commit-quorum: the derived cluster-commit instant must cover
    # the full quorum's ack arrivals for the carrying batch.
    witness = None
    batch_of = {}
    for batch in timeline.batches:
        for rec in batch.records:
            batch_of[rec.seq] = batch.index
    commit_map = timeline.stream.commit_map()
    for key, commit_time in sorted(timeline.cluster_committed.items()):
        entry = commit_map.get(key)
        if entry is None:
            witness = (key, "commit with no durable COMMIT record")
            break
        seq = entry[0]
        batch_index = batch_of.get(seq)
        if batch_index is None:
            witness = (key, f"seq {seq} never shipped")
            break
        for replica in timeline.config.replica_ids:
            ack = timeline.links[replica].acks.get(batch_index)
            if ack is None:
                witness = (key, f"replica {replica} never acked batch {batch_index}")
                break
            if ack[1] > commit_time + _EPS:
                witness = (
                    key,
                    f"replica {replica}'s ack arrives at {ack[1]:.0f}, "
                    f"after the cluster commit at {commit_time:.0f}",
                )
                break
        if witness is not None:
            break
    if witness is None:
        verdicts["repl-commit-quorum"] = StaticVerdict(
            "repl-commit-quorum",
            PROVEN,
            "each cluster commit is the max of the primary's report and "
            "the full quorum's ack arrivals for the carrying batch",
        )
    else:
        key, why = witness
        verdicts["repl-commit-quorum"] = StaticVerdict(
            "repl-commit-quorum",
            VIOLATED,
            "a transaction is reported cluster-committed without quorum "
            "ack coverage",
            CounterExample(
                "repl-commit-quorum",
                key[0],
                key[1],
                detail=f"(tid, ordinal) {key}: {why}",
            ),
        )

    # repl-seq-order: every replica's appends are a gap-free ascending
    # run (drops are retransmitted in order, dups never re-append, a
    # dead link simply stops).
    witness = None
    for replica, link in sorted(timeline.links.items()):
        prev = None
        for seq, _durable in link.appends:
            if prev is not None and seq != prev + 1:
                witness = (replica, prev, seq)
                break
            prev = seq
        if witness is not None:
            break
    if witness is None:
        verdicts["repl-seq-order"] = StaticVerdict(
            "repl-seq-order",
            PROVEN,
            "per-link appends start at the window base and advance "
            "seq+1 each record: batches are cut in seq order, delayed "
            "predecessors push successors' append start out, and "
            "duplicates are never re-applied",
        )
    else:
        replica, prev, seq = witness
        verdicts["repl-seq-order"] = StaticVerdict(
            "repl-seq-order",
            VIOLATED,
            "a replica appended records out of sequence",
            CounterExample(
                "repl-seq-order",
                replica,
                seq,
                detail=f"replica {replica} appended seq {seq} after {prev}",
            ),
        )
    return verdicts


# ----------------------------------------------------------------------
# Harness entry points
# ----------------------------------------------------------------------
def run_pstatic(
    benchmark: str,
    policy,
    threads: int = 1,
    txns_per_thread: int = 40,
    system=None,
    prepared=None,
    seed: int = 42,
    hb: bool = True,
) -> StaticReport:
    """Statically verify one (benchmark, policy, threads) cell.

    Compiles (or cache-fetches) the cell's trace and walks it once; no
    machine is built and nothing replays.  The companion of
    :func:`~repro.sanitizer.checker.run_psan`, returning comparable
    fired-rule sets.
    """
    trace, system = cell_trace(
        benchmark, threads, txns_per_thread, system, prepared, seed
    )
    report = verify_trace(trace, policy, system=system, hb=hb)
    report.benchmark = benchmark
    return report


def _relocate(addr: Optional[int], bind: dict) -> Optional[int]:
    """Translate a (possibly symbolic) trace address through ``bind``."""
    if addr is None or addr < SYM_BASE:
        return addr
    block = (addr - SYM_BASE) >> 24
    base = bind.get(block)
    if base is None:
        return None
    return base + (addr & SYM_OFF_MASK)


def _replay_bound(trace, policy, system, threads, txns_per_thread, seed):
    """Replay the cell under the checker; returns the dynamic report
    plus the symbolic address binding."""
    from ..harness.runner import RunConfig

    bind: dict = {}
    _stats, report, _tracer = replay_checked(
        trace,
        RunConfig(
            policy=policy,
            threads=threads,
            txns_per_thread=txns_per_thread,
            system=system,
            seed=seed,
        ),
        bind_out=bind,
    )
    return report, bind


def _diag_matches(diag, cex: CounterExample, real_addr: Optional[int]) -> bool:
    if diag.rule != cex.rule:
        return False
    if diag.tid is not None and diag.tid != cex.tid:
        return False
    if real_addr is not None and diag.addr is not None and diag.addr != real_addr:
        return False
    return True


def confirm_counterexample(
    benchmark: str,
    policy,
    cex: CounterExample,
    threads: int = 1,
    txns_per_thread: int = 40,
    system=None,
    prepared=None,
    seed: int = 42,
):
    """Replay the cell and locate the dynamic diagnostic ``cex`` predicts.

    Returns ``(confirmed, diagnostic)``: the replay runs with
    the dynamic checker attached, the counterexample's symbolic address
    is relocated through the replay's block binding, and the diagnostic
    must match on rule, thread and (when both carry one) address.
    """
    trace, system = cell_trace(
        benchmark, threads, txns_per_thread, system, prepared, seed
    )
    report, bind = _replay_bound(
        trace, resolve_design(policy), system, threads, txns_per_thread, seed
    )
    real_addr = _relocate(cex.addr, bind)
    for diag in report.diagnostics:
        if _diag_matches(diag, cex, real_addr):
            return True, diag
    return False, None


# ----------------------------------------------------------------------
# Sweeps and the differential gate
# ----------------------------------------------------------------------
@dataclass
class StaticSweepReport:
    """Static reports for a benchmark × threads × policy matrix."""

    reports: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No guaranteed design violates a rule, and no trace races."""
        return all(
            report.clean
            for report in self.reports
            if claims_guarantee(report.policy)
        ) and all(
            report.races is None or report.races.clean for report in self.reports
        )

    def total_cost(self) -> int:
        return sum(report.cost() for report in self.reports)

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "cells": [report.to_dict() for report in self.reports],
        }

    def render(self) -> str:
        width = max(
            [len("policy")] + [len(report.policy) for report in self.reports]
        )
        lines = [
            f"{'benchmark':10s} {'threads':>7s} {'policy':{width}s} "
            f"{'ops':>8s} {'races':>5s} verdict",
            "-" * (width + 50),
        ]
        for report in self.reports:
            fired = sorted(report.rules_fired())
            verdict = "clean" if not fired else "violates " + ",".join(fired)
            if fired and not claims_guarantee(report.policy):
                verdict += " (no guarantee claimed)"
            races = "-" if report.races is None else len(report.races.races)
            lines.append(
                f"{report.benchmark:10s} {report.threads:7d} "
                f"{report.policy:{width}s} {report.ops_examined:8d} "
                f"{races!s:>5s} {verdict}"
            )
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """Markdown verdict table (CI artifact for plain pstatic runs)."""
        lines = [
            "# Static persistency verdict matrix",
            "",
            f"{'**CLEAN**' if self.clean else '**VIOLATIONS**'} over "
            f"{len(self.reports)} cells "
            f"(total static cost {self.total_cost():,} column entries).",
            "",
            "| benchmark | threads | design | guarantee | verdict | races |",
            "|---|---|---|---|---|---|",
        ]
        for report in self.reports:
            fired = sorted(report.rules_fired())
            verdict = "clean" if not fired else ", ".join(fired)
            races = "—" if report.races is None else str(len(report.races.races))
            guarantee = "yes" if claims_guarantee(report.policy) else "no"
            lines.append(
                f"| {report.benchmark} | {report.threads} | {report.policy} "
                f"| {guarantee} | {verdict} | {races} |"
            )
        return "\n".join(lines)


@dataclass
class DifferentialCell:
    """One cell's static-vs-dynamic comparison."""

    benchmark: str
    threads: int
    policy: str
    static_fired: tuple
    dynamic_fired: tuple
    rules_agree: bool
    confirmations: list = field(default_factory=list)  # (rule, confirmed)
    static_cost: int = 0
    dynamic_cost: int = 0

    @property
    def passed(self) -> bool:
        return self.rules_agree and all(ok for _rule, ok in self.confirmations)

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "threads": self.threads,
            "policy": self.policy,
            "static_fired": list(self.static_fired),
            "dynamic_fired": list(self.dynamic_fired),
            "rules_agree": self.rules_agree,
            "confirmations": [
                {"rule": rule, "confirmed": ok} for rule, ok in self.confirmations
            ],
            "static_cost": self.static_cost,
            "dynamic_cost": self.dynamic_cost,
            "passed": self.passed,
        }


@dataclass
class DifferentialReport:
    """The differential gate's outcome over a full matrix."""

    cells: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    def static_cost(self) -> int:
        return sum(cell.static_cost for cell in self.cells)

    def dynamic_cost(self) -> int:
        return sum(cell.dynamic_cost for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "static_cost": self.static_cost(),
            "dynamic_cost": self.dynamic_cost(),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def render(self) -> str:
        width = max([len("policy")] + [len(c.policy) for c in self.cells])
        lines = [
            f"{'benchmark':10s} {'thr':>3s} {'policy':{width}s} "
            f"{'static':24s} {'dynamic':24s} verdict",
            "-" * (width + 72),
        ]
        for cell in self.cells:
            static = ",".join(cell.static_fired) or "clean"
            dynamic = ",".join(cell.dynamic_fired) or "clean"
            verdict = "agree" if cell.rules_agree else "DISAGREE"
            for rule, ok in cell.confirmations:
                verdict += f" {rule}:{'confirmed' if ok else 'UNCONFIRMED'}"
            lines.append(
                f"{cell.benchmark:10s} {cell.threads:3d} "
                f"{cell.policy:{width}s} {static:24s} {dynamic:24s} {verdict}"
            )
        lines.append(
            f"differential: {'PASS' if self.passed else 'FAIL'} "
            f"({len(self.cells)} cells, static cost {self.static_cost()}, "
            f"dynamic cost {self.dynamic_cost()})"
        )
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """A verdict-table artifact (CI uploads this)."""
        lines = [
            "# Static persistency verdict matrix",
            "",
            f"Differential gate: **{'PASS' if self.passed else 'FAIL'}** "
            f"over {len(self.cells)} cells "
            f"(static cost {self.static_cost():,}, "
            f"dynamic cost {self.dynamic_cost():,}).",
            "",
            "| benchmark | threads | design | static verdict | "
            "dynamic verdict | agree | counterexamples |",
            "|---|---|---|---|---|---|---|",
        ]
        for cell in self.cells:
            static = ", ".join(cell.static_fired) or "clean"
            dynamic = ", ".join(cell.dynamic_fired) or "clean"
            confirms = (
                "; ".join(
                    f"{rule}: {'confirmed' if ok else 'UNCONFIRMED'}"
                    for rule, ok in cell.confirmations
                )
                or "—"
            )
            lines.append(
                f"| {cell.benchmark} | {cell.threads} | {cell.policy} | "
                f"{static} | {dynamic} | "
                f"{'yes' if cell.rules_agree else 'NO'} | {confirms} |"
            )
        return "\n".join(lines)


def run_differential(
    benchmarks,
    threads_list,
    policies,
    txns_per_thread: int = 40,
    seed: int = 42,
    confirm: bool = True,
    hb: bool = True,
    progress=None,
) -> DifferentialReport:
    """Gate the static verifier against the dynamic checker, cell by cell.

    For every cell the static verdict's fired-rule set must equal the
    dynamic checker's, and (``confirm``) every static counterexample
    must match a diagnostic from the same replay, relocated
    through the replay's symbolic binding.  The dynamic run doubles as
    the cost baseline: its counter is the events processed plus the
    instructions the machine had to simulate.
    """
    from ..harness.runner import Preparation
    from ..workloads import make_microbenchmark

    result = DifferentialReport()
    for benchmark in benchmarks:
        prepared = Preparation(make_microbenchmark(benchmark, seed=seed))
        for threads in threads_list:
            trace, system = cell_trace(
                benchmark, threads, txns_per_thread, None, prepared, seed
            )
            for policy in policies:
                spec = resolve_design(policy)
                static = verify_trace(trace, spec, system=system, hb=hb)
                static.benchmark = benchmark
                dynamic, bind = _replay_bound(
                    trace, spec, system, threads, txns_per_thread, seed
                )
                dynamic_fired = dynamic.rules_fired()
                static_fired = static.rules_fired()
                agree = static_fired == dynamic_fired and set(
                    static.rules_checked
                ) == set(dynamic.rules_checked)
                confirmations = []
                if confirm:
                    for cex in static.counterexamples():
                        real_addr = _relocate(cex.addr, bind)
                        ok = any(
                            _diag_matches(diag, cex, real_addr)
                            for diag in dynamic.diagnostics
                        )
                        confirmations.append((cex.rule, ok))
                cell = DifferentialCell(
                    benchmark=benchmark,
                    threads=threads,
                    policy=spec.value,
                    static_fired=tuple(sorted(static_fired)),
                    dynamic_fired=tuple(sorted(dynamic_fired)),
                    rules_agree=agree,
                    confirmations=confirmations,
                    static_cost=static.cost(),
                    dynamic_cost=dynamic.events_processed
                    + int(getattr(dynamic, "txns_checked", 0)),
                )
                result.cells.append(cell)
                if progress is not None:
                    progress(
                        f"{benchmark} @{threads}t {spec.value}: "
                        f"{'agree' if cell.passed else 'MISMATCH'}"
                    )
    return result
