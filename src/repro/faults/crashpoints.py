"""Deterministic, event-indexed crash points.

Random wall-clock crash fractions miss the failure modes that matter —
the instant a log-buffer record drains, the middle of an FWB scan, the
half-written reset of the log during recovery.  This module keys crash
points to *simulator events* instead: "the 17th micro-op retire", "the
3rd log-buffer drain".  Event indices are stable across runs of the same
configuration, so every crash point is reproducible bit-for-bit.

A :class:`FaultMonitor` installs on ``machine.fault_monitor``; the
machine calls :meth:`FaultMonitor.after_op` once per executed micro-op
and the monitor derives drain/scan/wrap events from the shared stats
counters (zero instrumentation cost when no monitor is installed).  When
the armed :class:`CrashPoint` is reached the monitor raises
:class:`~repro.errors.SimulatedCrash` (execution events) or
:class:`~repro.errors.RecoveryInterrupted` (recovery write events) for
the campaign driver to catch.

Run once with no trigger to *profile* a configuration — the per-kind
event totals — then enumerate points against those totals
(:func:`sample_indices` spreads a budget evenly over an event stream).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..errors import RecoveryInterrupted, SimulatedCrash

if False:  # pragma: no cover - typing only
    from ..sim.stats import MachineStats


class EventKind(str, enum.Enum):
    """The simulator events a crash point can key on."""

    RETIRE = "retire"          # one micro-op retired
    LOG_DRAIN = "log-drain"    # one log record handed to the NVRAM bus
    FWB_SCAN = "fwb-scan"      # one FWB scan pass over the caches
    WRAP_FORCE = "wrap-force"  # one log-wrap forced data write-back
    RECOVERY = "recovery"      # one recovery-pass NVRAM write
    SWITCH_BEFORE = "switch-before"  # at a switch barrier, before the swap
    SWITCH_AFTER = "switch-after"    # at a switch barrier, after the swap

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_RETIRE = EventKind.RETIRE

#: Execution-side kinds (observable via Machine.issue); RECOVERY is
#: counted by the RecoveryManager instead.
EXECUTION_KINDS = (
    EventKind.RETIRE,
    EventKind.LOG_DRAIN,
    EventKind.FWB_SCAN,
    EventKind.WRAP_FORCE,
)


@dataclass(frozen=True)
class CrashPoint:
    """Crash at the ``index``-th (0-based) occurrence of ``kind``."""

    kind: EventKind
    index: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.value}[{self.index}]"


class FaultMonitor:
    """Counts simulator events; optionally trips one crash point.

    With ``trigger=None`` the monitor only profiles: run a workload to
    completion and read :attr:`counts` to learn how many events of each
    kind the configuration generates.  With a trigger armed, reaching
    the target occurrence raises immediately.

    ``deadline`` arms a *time-keyed* kill instead: the first retired
    micro-op whose cycle time reaches the deadline raises
    :class:`~repro.errors.SimulatedCrash`.  The distributed campaign
    uses this to kill a node at an instant derived from the shipping
    timeline (mid-transaction, mid-log-ship) rather than an event index;
    determinism still holds because cycle times are deterministic.
    """

    def __init__(
        self,
        trigger: Optional[CrashPoint] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.trigger = trigger
        self.deadline = deadline
        self.counts = {kind: 0 for kind in EventKind}
        self.fired = False
        self._prev_log_records = 0
        self._prev_fwb_scans = 0
        self._prev_wrap_forces = 0

    # ------------------------------------------------------------------
    # Execution-side events (called by Machine.issue)
    # ------------------------------------------------------------------
    def after_op(self, now: float, stats: "MachineStats") -> None:
        """Observe one retired micro-op and any events it generated."""
        if self.deadline is not None and not self.fired and now >= self.deadline:
            self.fired = True
            raise SimulatedCrash("deadline", 0, now)
        # The retire bump of _bump, for the one-occurrence case.
        counts = self.counts
        retired = counts[_RETIRE]
        counts[_RETIRE] = retired + 1
        trigger = self.trigger
        if (
            trigger is not None
            and trigger.index == retired
            and trigger.kind is _RETIRE
            and not self.fired
        ):
            self.fired = True
            raise SimulatedCrash(_RETIRE.value, retired, now)
        delta = stats.log_records - self._prev_log_records
        if delta:
            self._prev_log_records = stats.log_records
            self._bump(EventKind.LOG_DRAIN, delta, now)
        delta = stats.fwb_scans - self._prev_fwb_scans
        if delta:
            self._prev_fwb_scans = stats.fwb_scans
            self._bump(EventKind.FWB_SCAN, delta, now)
        delta = stats.log_wrap_forced_writebacks - self._prev_wrap_forces
        if delta:
            self._prev_wrap_forces = stats.log_wrap_forced_writebacks
            self._bump(EventKind.WRAP_FORCE, delta, now)

    # ------------------------------------------------------------------
    # Switch-barrier events (called by Machine.switch_design)
    # ------------------------------------------------------------------
    def at_switch(self, kind: EventKind, now: float) -> None:
        """Observe one side of a safe-switch epoch barrier.

        ``kind`` is :attr:`EventKind.SWITCH_BEFORE` (volatile state
        drained, old spec still active) or :attr:`EventKind.SWITCH_AFTER`
        (new spec just swapped in).  An armed trigger of the matching
        kind raises :class:`~repro.errors.SimulatedCrash` exactly at the
        barrier instant.
        """
        self._bump(kind, 1, now)

    # ------------------------------------------------------------------
    # Recovery-side events (called by RecoveryManager)
    # ------------------------------------------------------------------
    def recovery_step(self) -> None:
        """Observe one recovery NVRAM write (replay or log reset)."""
        count = self.counts[EventKind.RECOVERY]
        self.counts[EventKind.RECOVERY] = count + 1
        trigger = self.trigger
        if (
            trigger is not None
            and not self.fired
            and trigger.kind is EventKind.RECOVERY
            and count >= trigger.index
        ):
            self.fired = True
            raise RecoveryInterrupted(
                f"injected crash after recovery write {count}"
            )

    # ------------------------------------------------------------------
    def _bump(self, kind: EventKind, occurrences: int, now: float) -> None:
        count = self.counts[kind]
        self.counts[kind] = count + occurrences
        trigger = self.trigger
        if (
            trigger is not None
            and not self.fired
            and trigger.kind is kind
            and count <= trigger.index < count + occurrences
        ):
            self.fired = True
            raise SimulatedCrash(kind.value, trigger.index, now)


def sample_indices(total: int, budget: int) -> list[int]:
    """Up to ``budget`` distinct indices spread evenly over ``total`` events.

    Deterministic, endpoint-inclusive-ish (first event, spread, and the
    last event are all sampled when the budget allows), so a campaign
    exercises the earliest and latest occurrences as well as the middle.
    """
    if total <= 0 or budget <= 0:
        return []
    if budget >= total:
        return list(range(total))
    step = total / budget
    picked = sorted({min(total - 1, int(i * step)) for i in range(budget)})
    if total - 1 not in picked:
        picked[-1] = total - 1
    return picked
