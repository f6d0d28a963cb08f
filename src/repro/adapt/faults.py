"""Crash injection exactly at the safe-switch barrier.

The safe-switch protocol's whole claim is that the barrier instant is a
*clean* point: every pre-switch transaction is committed and durable,
every logged dirty line written back, the log buffer drained — so a
crash on either side of the atomic spec swap recovers to the same
committed state, regardless of which spec the restarted system believes
in.  This module proves that the same way the main fault campaign proves
ordinary crash points: run, crash (via the fault monitor's
``switch-before`` / ``switch-after`` hooks), recover, and compare the
surviving NVRAM to the golden committed image.

Per legal transition the campaign asserts three things:

* **before/after equivalence** — the crash images on the two sides of
  the swap recover to bit-identical NVRAM (the swap itself writes no
  persistent state, and the barrier left nothing in flight);
* **golden consistency** — both recovered images match the golden
  committed state at the barrier exactly (zero acceptable-candidate
  slack: nothing may be in doubt at a barrier);
* **post-switch execution** — a later crash in the switched run (a
  retire event in the new spec's epoch) still recovers consistently, so
  the swap left the logging machinery coherent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.design import DesignSpec, resolve_design, switch_legal
from ..core.recovery import recover_image
from ..faults.campaign import (
    campaign_trace,
    check_campaign_size,
    count_mismatches,
    crash_run,
    default_campaign_system,
    finish_run,
    start_run,
)
from ..faults.crashpoints import CrashPoint, EventKind, FaultMonitor
from ..sim.config import SystemConfig
from ..sim.ctrace import CompiledTrace
from ..sim.nvram import ImageSnapshot
from .drift import WRITEBACK_FAMILY

#: Transition candidates the default campaign ranges over: every ordered
#: pair inside the hw+undo+redo write-back family, plus the sw-logging
#: content switch, filtered down to the legal set at run time.
_DEFAULT_CANDIDATES = WRITEBACK_FAMILY + ("sw+undo+clwb", "sw+undo+redo+clwb")


def default_switch_transitions() -> Tuple[Tuple[DesignSpec, DesignSpec], ...]:
    """Every legal ordered transition among the default candidates."""
    specs = [resolve_design(name) for name in _DEFAULT_CANDIDATES]
    return tuple(
        (old, new)
        for old in specs
        for new in specs
        if old != new and switch_legal(old, new)
    )


@dataclass
class SwitchPointResult:
    """One crash point of one transition."""

    kind: str
    """``switch-before``, ``switch-after``, or ``post-switch-retire``."""
    triggered: bool
    crash_time: float
    mismatches: int
    converged: bool
    """A second cold recovery pass changed nothing (idempotence)."""

    @property
    def consistent(self) -> bool:
        return self.triggered and self.mismatches == 0 and self.converged


@dataclass
class TransitionReport:
    """All switch-point outcomes for one (old → new) transition."""

    old: DesignSpec
    new: DesignSpec
    points: List[SwitchPointResult] = field(default_factory=list)
    sides_identical: bool = True
    """Recovered images of the switch-before and switch-after crashes
    are bit-identical."""

    @property
    def label(self) -> str:
        return f"{self.old.mechanism_string()} -> {self.new.mechanism_string()}"

    @property
    def consistent(self) -> bool:
        return self.sides_identical and all(p.consistent for p in self.points)


@dataclass
class SwitchCampaignResult:
    """Verdicts for every transition of one switch campaign."""

    workload: str
    txns_per_thread: int
    threads: int
    seed: int
    reports: List[TransitionReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        ran = self.total_points > 0
        return ran and all(report.consistent for report in self.reports)

    @property
    def total_points(self) -> int:
        return sum(len(report.points) for report in self.reports)

    @property
    def rendered(self) -> str:
        width = max([len("transition")] + [len(r.label) for r in self.reports])
        lines = [
            f"switch campaign: workload={self.workload} "
            f"txns={self.txns_per_thread} threads={self.threads} "
            f"seed={self.seed}",
            f"{'transition':{width}s} {'points':>6s} {'sides':>6s}  verdict",
        ]
        for report in self.reports:
            bad = [p for p in report.points if not p.consistent]
            verdict = "CONSISTENT" if report.consistent else (
                "VIOLATED: " + ", ".join(p.kind for p in bad)
                + ("" if report.sides_identical else " sides-differ")
            )
            lines.append(
                f"{report.label:{width}s} {len(report.points):6d} "
                f"{'same' if report.sides_identical else 'DIFF':>6s}  {verdict}"
            )
        lines.append(
            f"{self.total_points} point(s) over {len(self.reports)} "
            f"transition(s); campaign {'PASSED' if self.passed else 'FAILED'}"
        )
        return "\n".join(lines)


def _crash_and_recover(
    trace: CompiledTrace,
    system: SystemConfig,
    old: DesignSpec,
    new: DesignSpec,
    horizon: float,
    trigger: CrashPoint,
    label: str,
) -> Tuple[SwitchPointResult, ImageSnapshot]:
    """Crash one switched run at ``trigger``; recover twice; verify."""
    shard = start_run(trace, system, old, FaultMonitor(trigger))
    crash_time, triggered = crash_run(shard, (horizon, new))
    nvram = shard.machine.nvram
    recover_image(nvram, system)
    recovered = nvram.snapshot()
    # Idempotence: a second cold recovery pass must be a no-op.
    recover_image(nvram, system)
    result = SwitchPointResult(
        kind=label,
        triggered=triggered,
        crash_time=crash_time,
        mismatches=count_mismatches(nvram, shard.pm, crash_time),
        converged=nvram.snapshot() == recovered,
    )
    nvram.recycle()  # verified: the next point reuses the buffer
    return result, recovered


def run_switch_campaign(
    transitions: Optional[Sequence] = None,
    workload: str = "hash",
    txns_per_thread: int = 24,
    threads: int = 2,
    seed: int = 7,
    system: Optional[SystemConfig] = None,
    progress=None,
) -> SwitchCampaignResult:
    """Crash every transition at its barrier (both sides) and after it.

    A campaign with no work raises :class:`~repro.errors.ConfigError`.
    """
    system = system or default_campaign_system()
    check_campaign_size(system, threads, txns_per_thread)
    if transitions is None:
        transitions = default_switch_transitions()
    transitions = [
        (resolve_design(old), resolve_design(new)) for old, new in transitions
    ]
    trace = campaign_trace(workload, seed, system, threads, txns_per_thread)
    makespans = {}

    result = SwitchCampaignResult(
        workload=workload,
        txns_per_thread=txns_per_thread,
        threads=threads,
        seed=seed,
    )
    for old, new in transitions:
        report = TransitionReport(old=old, new=new)
        # Switch halfway through the unswitched run under the old design.
        if old not in makespans:
            shard = finish_run(start_run(trace, system, old))
            makespans[old] = shard.clock()
            shard.machine.nvram.recycle()
        horizon = makespans[old] / 2

        before, image_before = _crash_and_recover(
            trace, system, old, new, horizon,
            CrashPoint(EventKind.SWITCH_BEFORE, 0), "switch-before",
        )
        after, image_after = _crash_and_recover(
            trace, system, old, new, horizon,
            CrashPoint(EventKind.SWITCH_AFTER, 0), "switch-after",
        )
        report.points.extend([before, after])
        report.sides_identical = image_before == image_after

        # Post-switch execution: profile the switched run's retire
        # stream, then crash 90% of the way in (inside the new epoch).
        profile = FaultMonitor()
        shard = start_run(trace, system, old, profile)
        finish_run(shard, (horizon, new)).machine.nvram.recycle()
        retire_total = profile.counts[EventKind.RETIRE]
        if retire_total > 0:
            late, _image = _crash_and_recover(
                trace, system, old, new, horizon,
                CrashPoint(EventKind.RETIRE, (retire_total * 9) // 10),
                "post-switch-retire",
            )
            report.points.append(late)

        result.reports.append(report)
        if progress is not None:
            bad = [p for p in report.points if not p.consistent]
            progress(
                f"{report.label}: {len(report.points)} point(s), "
                f"{len(bad)} violation(s)"
                + ("" if report.sides_identical else ", sides differ")
            )
    return result
