"""Replication-ordering sanitizer for the distributed log-shipping layer.

The single-node checker (:mod:`repro.sanitizer.checker`) verifies that a
log record is durable before the data it covers; this module verifies
the distributed analogue over a shipping timeline's event stream
(``ship`` / ``repl_deliver`` / ``repl_append`` / ``repl_ack`` /
``dist_commit`` — see :meth:`repro.dist.ship.ShipTimeline.event_stream`):

* ``repl-ack-durable`` — a replica's ack for a batch must not be sent
  before every record of the batch is durable in its ring (a torn
  landing must never be acked at all);
* ``repl-commit-quorum`` — a transaction may be reported
  cluster-committed only at/after the arrival of the *last* quorum ack
  for the batch carrying its COMMIT record, with every configured
  replica represented;
* ``repl-seq-order`` — each replica appends records in global sequence
  order, no gaps and no duplicate applications.

The checker is stream-shaped like :class:`PersistOrderChecker` so it can
consume live tracer subscriptions or offline event lists; the campaign
runs it over every fault point's timeline, and the deliberate
ack-before-durable probe (``ShipTimeline(unsafe_early_ack=True)``) must
trip the first rule.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .rules import REPLICATION_RULES, PsanDiagnostic, PsanReport


class ReplicationOrderChecker:
    """Streaming checker for the three replication-ordering rules."""

    def __init__(self, policy: str = "dist") -> None:
        self._policy = policy
        self._diagnostics: list = []
        self._events = 0
        self._replicas: tuple = ()
        self._next_seq: dict = {}  # replica -> next expected append seq
        self._appends: dict = {}  # (replica, seq) -> durable time (not torn)
        self._batches: dict = {}  # (replica, batch) -> (start_seq, n)
        self._acks: dict = {}  # (replica, batch) -> earliest ack arrival
        self._commits = 0

    # ------------------------------------------------------------------
    def feed(self, event) -> None:
        """Consume one trace event."""
        self._events += 1
        handler = getattr(self, f"_on_{event.kind}", None)
        if handler is not None:
            handler(event)

    def consume(self, events: Iterable) -> None:
        for event in events:
            self.feed(event)

    # ------------------------------------------------------------------
    def _report(self, rule: str, message: str, event, **fields) -> None:
        self._diagnostics.append(
            PsanDiagnostic(
                rule=rule,
                message=message,
                cycle=event.time,
                core=-1,
                **fields,
            )
        )

    def _on_meta(self, event) -> None:
        if event.detail.get("dist"):
            self._replicas = tuple(event.detail.get("replicas", ()))

    def _on_ship(self, event) -> None:
        d = event.detail
        self._batches[(d["replica"], d["batch"])] = (d["start_seq"], d["n"])

    def _on_repl_append(self, event) -> None:
        d = event.detail
        replica = d["replica"]
        seq = d["seq"]
        expected = self._next_seq.get(replica, 0)
        if seq != expected:
            kind = "duplicate application of" if seq < expected else "gap before"
            self._report(
                "repl-seq-order",
                f"replica {replica} appended seq {seq} out of order "
                f"({kind} seq {expected})",
                event,
                provenance=(
                    f"{event.time:.0f} repl_append replica={replica} "
                    f"seq={seq} expected={expected}",
                ),
            )
        self._next_seq[replica] = max(expected, seq + 1)
        if not d.get("torn"):
            self._appends[(replica, seq)] = event.time

    def _on_repl_ack(self, event) -> None:
        d = event.detail
        replica = d["replica"]
        batch = d["batch"]
        sent = d["sent"]
        start, count = self._batches.get(
            (replica, batch), (d["start_seq"], d["n"])
        )
        for seq in range(start, start + count):
            durable = self._appends.get((replica, seq))
            if durable is None or durable > sent:
                state = (
                    "never durable" if durable is None
                    else f"durable only at {durable:.0f}"
                )
                self._report(
                    "repl-ack-durable",
                    f"replica {replica} acked batch {batch} at {sent:.0f} "
                    f"but record seq {seq} was {state}",
                    event,
                    provenance=(
                        f"{sent:.0f} ack sent replica={replica} batch={batch}",
                        f"record seq={seq}: {state}",
                    ),
                )
        prev = self._acks.get((replica, batch))
        if prev is None or event.time < prev:
            self._acks[(replica, batch)] = event.time

    def _on_dist_commit(self, event) -> None:
        d = event.detail
        self._commits += 1
        batch = d["batch"]
        quorum = tuple(d.get("quorum", self._replicas)) or self._replicas
        for replica in quorum:
            arrival = self._acks.get((replica, batch))
            if arrival is None or arrival > event.time:
                state = (
                    "was never acked" if arrival is None
                    else f"ack arrived only at {arrival:.0f}"
                )
                self._report(
                    "repl-commit-quorum",
                    f"txn tid={d['tid']}#{d['ordinal']} reported "
                    f"cluster-committed at {event.time:.0f} but replica "
                    f"{replica}'s ack for batch {batch} {state}",
                    event,
                    txid=d.get("txid"),
                    tid=d.get("tid"),
                    provenance=(
                        f"{event.time:.0f} dist_commit seq={d['seq']} "
                        f"batch={batch}",
                        f"replica {replica}: {state}",
                    ),
                )

    # ------------------------------------------------------------------
    def finish(self) -> PsanReport:
        return PsanReport(
            policy=self._policy,
            diagnostics=list(self._diagnostics),
            events_processed=self._events,
            txns_checked=self._commits,
            rules_checked=REPLICATION_RULES,
        )


def check_replication(timeline, policy: Optional[str] = None) -> PsanReport:
    """Sanitize one shipping timeline; returns a standard psan report."""
    checker = ReplicationOrderChecker(policy=policy or "dist")
    checker.consume(timeline.event_stream())
    return checker.finish()
