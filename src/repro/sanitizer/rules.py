"""Psan rule registry, diagnostics, and the report container.

Each rule encodes one persistency-ordering invariant from the paper.  A
rule that fires produces a :class:`PsanDiagnostic` carrying enough
provenance (cycle, core, address, the event chain that led to the
verdict) to reconstruct the violation without re-running the simulation.

The registry doubles as documentation: ``repro psan --rules`` prints it,
and EXPERIMENTS.md renders the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Rule:
    """One checkable persistency-ordering invariant."""

    id: str
    title: str
    paper_ref: str
    description: str


#: Rule ids whose invariants concern the replication (log-shipping)
#: layer rather than a single machine's persist ordering.
REPLICATION_RULES = ("repl-ack-durable", "repl-commit-quorum", "repl-seq-order")

RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            "steal-order",
            "log record durable before data write-back",
            "§III-B",
            "A persistent heap word may reach NVRAM while its transaction "
            "is uncommitted (the 'steal') only after a log record for that "
            "word is durable; otherwise a crash loses the only recoverable "
            "copy of the old value.",
        ),
        Rule(
            "undo-missing",
            "in-place store without an undo record",
            "§III-A",
            "An in-place persistent store inside an open transaction needs "
            "a durably-ordered undo record (or must be deferred past "
            "commit, as software redo logging does); without it an aborted "
            "or crashed transaction cannot be rolled back.",
        ),
        Rule(
            "redo-missing",
            "commit durable before data with no redo record",
            "§III-A",
            "If a transaction's commit record can become durable before "
            "its data stores do, a redo record must exist for each store; "
            "otherwise a crash after commit loses committed data that "
            "undo records cannot reconstruct.",
        ),
        Rule(
            "commit-order",
            "commit record durable before a data record",
            "§III-D",
            "A transaction's COMMIT log record must not become durable "
            "before all of its DATA records: recovery treats a durable "
            "commit as 'fully logged'.",
        ),
        Rule(
            "commit-durability",
            "reported commit time earlier than real durability",
            "§III-D",
            "The durability time the runtime reports for a commit must "
            "not precede the instant the COMMIT record actually completed "
            "at NVRAM; an optimistic report breaks every consumer of the "
            "golden model.",
        ),
        Rule(
            "wrap-overwrite",
            "log wrap overwrote a record with dirty data",
            "§III-C/III-E",
            "Overwriting a circular-log entry whose data line is still "
            "dirty in the hierarchy requires forcing that line back first "
            "(and the force must complete before the overwriting record "
            "is durable); otherwise the crash window between them has "
            "neither the log copy nor the data copy.",
        ),
        Rule(
            "torn-parity",
            "torn bit failed to flip on slot overwrite",
            "§III-E",
            "Each circular-log pass flips the torn bit; a record written "
            "over an older one with the same bit makes the head "
            "undetectable after a crash.",
        ),
        Rule(
            "fifo-order",
            "log buffer drained out of order",
            "§IV-C",
            "Log records must arrive in NVRAM in store-order: a volatile "
            "log buffer's completions must be non-decreasing per buffer.",
        ),
        Rule(
            "unlogged-mutation",
            "persistent heap mutated outside a transaction",
            "§III-A",
            "Timed stores to the persistent heap outside any transaction "
            "are invisible to logging and recovery (deferred redo-logged "
            "stores flushed right after their commit are the one sanctioned "
            "exception).",
        ),
        Rule(
            "switch-epoch-clean",
            "design switch with pre-switch state in flight",
            "adapt",
            "A safe-switch epoch barrier must be clean: at the switch "
            "instant no transaction may be open, every log record must "
            "have drained to NVRAM, and no line recorded in the log may "
            "still be dirty in the hierarchy.  State straddling the "
            "barrier would be interpreted under the wrong spec by "
            "whichever side of the swap a crash lands on.",
        ),
        Rule(
            "repl-ack-durable",
            "batch acked before durable on the replica",
            "dist",
            "A replica must not acknowledge a shipped log batch before "
            "every record in the batch is durable in its own log ring; an "
            "early ack lets the primary report a cluster commit whose "
            "records no surviving replica can replay.",
        ),
        Rule(
            "repl-commit-quorum",
            "cluster commit reported before ack quorum",
            "dist",
            "A transaction may be reported cluster-committed only after "
            "the batch carrying its COMMIT record has been acknowledged "
            "by the full replica quorum; reporting earlier makes a "
            "single-replica loss lose an externally visible commit.",
        ),
        Rule(
            "repl-seq-order",
            "replica appended records out of sequence",
            "dist",
            "Each replica must append shipped records in global sequence "
            "order with no gaps or duplicate applications — reordered or "
            "re-shipped batches must be buffered/deduplicated — so every "
            "replica's ring is a prefix of the primary's durable record "
            "stream and recovery can truncate at a common frontier.",
        ),
    )
}
"""All registered psan rules, keyed by rule id."""

#: Rules evaluated for any design with a log backend.  ``non-pers``
#: makes no persistence claim, so no rule applies to it.  Shared by the
#: dynamic checker and the static verifier so both report the same
#: ``rules_checked`` universe for a given design.
LOGGING_RULES = tuple(RULES)

#: The single-machine ordering rules (everything but replication).
ORDERING_RULES = tuple(r for r in RULES if r not in REPLICATION_RULES)


def rules_for_design(spec) -> tuple:
    """The rule ids that apply to ``spec`` (a design or its name).

    A design without a log backend claims nothing, so nothing is
    checked; every logging design is measured against the full registry.
    Both the dynamic checker and the static verifier gate on this, which
    is what makes their ``rules_checked`` tuples comparable cell by
    cell.
    """
    from ..core.design import resolve_design

    spec = resolve_design(spec)
    if spec.uses_hw_logging or spec.uses_sw_logging:
        return LOGGING_RULES
    return ()


def claims_guarantee(policy_name) -> bool:
    """True when ``policy_name`` resolves to a guarantee-claiming design.

    Unknown design names are treated as claiming a guarantee so their
    violations are surfaced rather than excused.
    """
    from ..core.design import resolve_design

    try:
        return resolve_design(policy_name).persistence_guaranteed
    except ValueError:
        return True


@dataclass(frozen=True)
class PsanDiagnostic:
    """One rule violation, with provenance."""

    rule: str
    message: str
    cycle: float
    core: int = -1
    addr: Optional[int] = None
    txid: Optional[int] = None
    tid: Optional[int] = None
    provenance: tuple = ()
    """Chain of short ``"cycle kind detail"`` strings for the events that
    establish the violation, oldest first."""

    def to_dict(self) -> dict:
        """JSON-ready form (machine-readable report)."""
        return {
            "rule": self.rule,
            "message": self.message,
            "cycle": self.cycle,
            "core": self.core,
            "addr": self.addr,
            "txid": self.txid,
            "tid": self.tid,
            "provenance": list(self.provenance),
        }

    def render(self) -> str:
        """One human-readable block."""
        head = f"[{self.rule}] cycle {self.cycle:.0f}"
        if self.core >= 0:
            head += f" core {self.core}"
        if self.addr is not None:
            head += f" addr {self.addr:#x}"
        if self.txid is not None:
            head += f" txn {self.txid}"
        lines = [head, f"  {self.message}"]
        for step in self.provenance:
            lines.append(f"    <- {step}")
        return "\n".join(lines)


@dataclass
class PsanReport:
    """Outcome of sanitizing one run's event stream."""

    policy: str = "?"
    diagnostics: list = field(default_factory=list)
    events_processed: int = 0
    txns_checked: int = 0
    rules_checked: tuple = ()
    benchmark: str = "?"
    threads: int = 0

    @property
    def clean(self) -> bool:
        """True when no rule fired."""
        return not self.diagnostics

    def by_rule(self) -> dict:
        """Diagnostic counts keyed by rule id."""
        counts: dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.rule] = counts.get(diag.rule, 0) + 1
        return counts

    def rules_fired(self) -> set:
        """Set of rule ids with at least one diagnostic."""
        return {diag.rule for diag in self.diagnostics}

    def to_dict(self) -> dict:
        """JSON-ready form (machine-readable report)."""
        return {
            "policy": self.policy,
            "benchmark": self.benchmark,
            "threads": self.threads,
            "clean": self.clean,
            "events_processed": self.events_processed,
            "txns_checked": self.txns_checked,
            "rules_checked": list(self.rules_checked),
            "by_rule": self.by_rule(),
            "diagnostics": [diag.to_dict() for diag in self.diagnostics],
        }

    def render(self, limit: int = 10) -> str:
        """Human-readable report (at most ``limit`` diagnostics shown)."""
        if self.clean:
            return (
                f"psan: {self.policy}: clean "
                f"({self.events_processed} events, "
                f"{self.txns_checked} txns, "
                f"{len(self.rules_checked)} rules)"
            )
        lines = [
            f"psan: {self.policy}: {len(self.diagnostics)} violation(s) "
            f"({self.events_processed} events, {self.txns_checked} txns)"
        ]
        for rule_id, count in sorted(self.by_rule().items()):
            lines.append(f"  {rule_id:20s} x{count}")
        for diag in self.diagnostics[:limit]:
            lines.append(diag.render())
        if len(self.diagnostics) > limit:
            lines.append(f"  ... and {len(self.diagnostics) - limit} more")
        return "\n".join(lines)
