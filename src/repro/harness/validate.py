"""One-shot reproduction validation.

:func:`validate` runs a compact sweep and checks every headline *shape*
claim of the paper against it, returning a structured report.  It is the
programmatic answer to "did this reproduction actually reproduce?" and
backs the ``python -m repro validate`` command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.design import CANONICAL_DESIGNS, FWB, HWL, NON_PERS, REDO_CLWB, UNDO_CLWB
from ..core.fwb import required_scan_interval
from ..sim.config import SystemConfig
from .experiments import summarize_fwb_gain
from .report import format_table
from .sweep import SweepResult, run_micro_sweep


@dataclass
class Check:
    """One validated claim."""

    name: str
    claim: str
    measured: str
    passed: bool


@dataclass
class ValidationReport:
    """All checks plus an overall verdict."""

    checks: list = field(default_factory=list)

    def add(self, name: str, claim: str, measured, passed: bool) -> None:
        """Record one check outcome."""
        self.checks.append(Check(name, claim, str(measured), bool(passed)))

    @property
    def passed(self) -> bool:
        """True when every check passed."""
        return all(check.passed for check in self.checks)

    @property
    def rendered(self) -> str:
        """Fixed-width report."""
        rows = [
            [check.name, check.claim, check.measured, "ok" if check.passed else "FAIL"]
            for check in self.checks
        ]
        verdict = "ALL CHECKS PASSED" if self.passed else "SOME CHECKS FAILED"
        table = format_table(
            "Reproduction validation", ["check", "paper claim", "measured", "verdict"], rows
        )
        return f"{table}\n\n{verdict}"


def validate(
    sweep: Optional[SweepResult] = None,
    threads: int = 1,
    txns_per_thread: int = 250,
    **sweep_options,
) -> ValidationReport:
    """Run the headline shape checks; returns the report.

    ``sweep_options`` (``jobs``, ``cache``, ``psan_report``, ...) are
    forwarded to :func:`run_micro_sweep` when no sweep is supplied.
    """
    if sweep is None:
        sweep = run_micro_sweep(
            threads=(threads,),
            txns_per_thread=txns_per_thread,
            **sweep_options,
        )
    report = ValidationReport()

    gain = summarize_fwb_gain(sweep, threads)
    report.add(
        "fig6/fwb-gain",
        "fwb ~1.86x the better software-clwb design",
        f"{gain:.2f}x",
        1.2 < gain < 3.0,
    )

    orderings_ok = True
    for benchmark in sweep.benchmarks():
        stats = {
            policy: sweep.stats(benchmark, threads, policy) for policy in CANONICAL_DESIGNS
        }
        best_sw = max(
            stats[REDO_CLWB].throughput, stats[UNDO_CLWB].throughput
        )
        orderings_ok &= stats[NON_PERS].throughput >= stats[FWB].throughput * 0.95
        orderings_ok &= stats[FWB].throughput > best_sw
        orderings_ok &= stats[HWL].throughput > min(
            stats[REDO_CLWB].throughput, stats[UNDO_CLWB].throughput
        )
    report.add(
        "fig6/ordering",
        "non-pers >= fwb > software-clwb; hwl above the worst software design",
        "holds on every benchmark" if orderings_ok else "violated",
        orderings_ok,
    )

    instr_ok = True
    worst_sw = 0.0
    for benchmark in sweep.benchmarks():
        non_pers = sweep.stats(benchmark, threads, NON_PERS).instructions
        sw = sweep.stats(benchmark, threads, UNDO_CLWB).instructions
        hw = sweep.stats(benchmark, threads, FWB).instructions
        worst_sw = max(worst_sw, sw / non_pers)
        # Per-benchmark floors (compute-heavy ssca2 dilutes software
        # logging the most — the paper's reason it gains least); the
        # "up to ~2.5x" claim is checked on the worst case below.
        instr_ok &= sw > 1.5 * non_pers
        instr_ok &= hw < 1.7 * non_pers
    instr_ok &= worst_sw > 2.0
    report.add(
        "fig7/instructions",
        "software logging up to ~2.5x non-pers instructions; hardware ~1.3x",
        f"software worst {worst_sw:.2f}x",
        instr_ok,
    )

    energy_ok = all(
        sweep.stats(b, threads, FWB).memory_dynamic_energy_pj
        <= sweep.stats(b, threads, UNDO_CLWB).memory_dynamic_energy_pj
        for b in sweep.benchmarks()
    )
    report.add(
        "fig8/energy",
        "fwb at or below the software-clwb designs' memory energy",
        "holds" if energy_ok else "violated",
        energy_ok,
    )

    traffic_ok = all(
        sweep.stats(b, threads, FWB).nvram_write_bytes
        <= sweep.stats(b, threads, UNDO_CLWB).nvram_write_bytes
        for b in sweep.benchmarks()
    )
    report.add(
        "fig9/traffic",
        "fwb writes no more NVRAM than the forced-write-back designs",
        "holds" if traffic_ok else "violated",
        traffic_ok,
    )

    period = required_scan_interval(SystemConfig())
    report.add(
        "fig11b/interval",
        "64K-entry (4 MB) log needs a scan only every ~3M cycles",
        f"{period:,.0f} cycles",
        2e6 < period < 4e6,
    )
    return report
