"""Persistency-ordering sanitizer (psan), static verifier and lint.

Three complementary checkers guard the simulator's correctness claims:

* :mod:`repro.sanitizer.checker` — the **dynamic** half.  A
  :class:`~repro.sanitizer.checker.PersistOrderChecker` consumes the
  trace-event stream of a run (live, via
  :meth:`~repro.sim.trace.Tracer.subscribe`, or offline from a
  :meth:`~repro.sim.trace.Tracer.to_jsonl` file) and verifies the
  paper's persistency-ordering invariants: log records durable before
  their data write-backs (Section III-B), undo+redo completeness
  (Section III-A), commit-record ordering and the reported commit
  durability (Section III-D), forced write-backs before log-wrap
  overwrites and the torn-bit discipline (Sections III-C/III-E), FIFO
  log drains (Section IV-C), and no persistent mutation outside a
  transaction.

* :mod:`repro.sanitizer.static` — the **symbolic** half.  The same
  twelve rules, proven or refuted from a compiled trace's op columns
  alone — one walk, no machine, no replay — with counterexamples
  replay can confirm (``repro pstatic``), plus a vector-clock
  happens-before race detector (:mod:`repro.sanitizer.hb`) over the
  trace's cross-thread accesses.
  The static and dynamic halves are *differentially gated*: CI
  requires their verdicts to agree on every cell of the benchmark x
  design x threads matrix.

* :mod:`repro.sanitizer.lint` — the **source** half.  Pluggable AST
  passes over the source tree rejecting determinism and accounting
  hazards: wall clock / ambient randomness in simulation paths,
  undeclared stats counters, float equality on cycle times,
  unregistered trace event kinds — plus an audit of stale
  ``lint: allow`` suppressions.

All three are exposed through the CLI (``repro psan`` / ``repro
pstatic`` / ``repro lint``) and run in CI as gates.
"""

from __future__ import annotations

from .checker import PersistOrderChecker, PsanSweepReport, run_psan
from .hb import Race, RaceDetector, RaceReport, detect_races
from .lint import LintFinding, lint_paths
from .replication import ReplicationOrderChecker, check_replication
from .rules import REPLICATION_RULES, PsanDiagnostic, PsanReport, RULES
from .static import (
    CounterExample,
    DifferentialReport,
    StaticReport,
    StaticSweepReport,
    StaticVerdict,
    confirm_counterexample,
    run_differential,
    run_pstatic,
    verify_trace,
)

__all__ = [
    "CounterExample",
    "DifferentialReport",
    "PersistOrderChecker",
    "PsanDiagnostic",
    "PsanReport",
    "PsanSweepReport",
    "REPLICATION_RULES",
    "RULES",
    "Race",
    "RaceDetector",
    "RaceReport",
    "ReplicationOrderChecker",
    "StaticReport",
    "StaticSweepReport",
    "StaticVerdict",
    "LintFinding",
    "check_replication",
    "confirm_counterexample",
    "detect_races",
    "lint_paths",
    "run_differential",
    "run_psan",
    "run_pstatic",
    "verify_trace",
]
