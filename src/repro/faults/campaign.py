"""Structured fault-injection campaigns over crash points × faults × policies.

A campaign answers the paper's central question — "is a crash at *any*
instant recoverable?" — systematically instead of by sampling wall-clock
fractions.  For each policy it:

1. **Profiles** one deterministic run of the workload to learn how many
   events of each kind (micro-op retires, log-buffer drains, FWB scans,
   log-wrap forces) the configuration generates, and where the recovery
   pass writes.
2. **Enumerates** crash points against those totals — evenly spread
   event indices per kind, plus torn-write and ghost-record fault
   variants, plus crash-*during-recovery* points (first crash mid-run,
   second crash between recovery writes).
3. **Replays** the run once per crash instant — every point keyed to one
   event occurrence (a plain crash, its torn-write and ghost-record
   variants, the recovery scenario's mid-run crash) shares the replay —
   and stops it at the event.  Each point then crashes its own fork of
   that device (:meth:`~repro.sim.nvram.NVRAM.fork`), injects its
   faults, recovers (checksums on), and compares the surviving NVRAM
   against the golden committed state at the crash instant.

Every run — profile and crash instant — replays one compiled trace of
the workload (:func:`campaign_trace`): the workload's own code runs once
per campaign, not once per point, and replay leaves the same machine
state as interpreting it would.

Every point is a pure function of (workload, seed, policy, point), so a
verdict table is reproducible bit-for-bit.  Guaranteed designs (fwb,
hwl, undo-clwb, redo-clwb) must show **zero** violations; unguaranteed
designs (unsafe-base, hw-rlog, hw-ulog) are expected to violate — the
campaign labels their verdicts accordingly rather than failing.

Mid-recovery points additionally assert *convergence*: the NVRAM image
after crash → interrupted recovery → full recovery must be bit-identical
to the image after a single uninterrupted recovery.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.design import (
    FWB,
    HW_RLOG,
    HW_ULOG,
    HWL,
    REDO_CLWB,
    UNDO_CLWB,
    UNSAFE_BASE,
    CommitProtocol,
    DesignSpec,
    resolve_design,
)
from ..core.nvlog import CircularLog
from ..core.recovery import recover_image
from ..errors import ConfigError, RecoveryInterrupted, SimulatedCrash
from ..harness.cache import compiled_trace
from ..harness.runner import Preparation, RunConfig
from ..sched.shard import ShardMachine
from ..sim.config import (
    CacheConfig,
    CoreConfig,
    LoggingConfig,
    MemCtrlConfig,
    NVDimmConfig,
    SystemConfig,
)
from ..sim.ctrace import CompiledTrace
from ..sim.machine import Machine
from ..sim.nvram import NVRAM, ImageSnapshot
from ..sim.replay import replay_shard
from ..txn.runtime import PersistentMemory
from ..workloads import make_microbenchmark
from ..workloads.base import Workload
from .crashpoints import CrashPoint, EventKind, FaultMonitor, sample_indices
from .plan import FaultInjector, GhostRecord, TornWrite

#: The four designs the paper guarantees recoverability for.
GUARANTEED_POLICIES = (FWB, HWL, UNDO_CLWB, REDO_CLWB)

#: Designs the campaign may run but which promise nothing.
UNGUARANTEED_POLICIES = (UNSAFE_BASE, HW_RLOG, HW_ULOG)

FAULT_NONE = "none"
FAULT_TORN = "torn"
FAULT_GHOST = "ghost"

#: Small-footprint constructor overrides per microbenchmark so a campaign
#: cell runs in well under a second on the tiny campaign machine.
_SMALL_WORKLOADS: Dict[str, dict] = {
    "hash": dict(buckets_per_partition=16, keys_per_partition=64),
    "rbtree": dict(keys_per_partition=128),
    "btree": dict(keys_per_partition=128),
    "sps": dict(entries_per_partition=512),
    "ssca2": dict(vertices_per_partition=64, initial_edges_per_vertex=4),
}


def default_campaign_system(log_entries: int = 128) -> SystemConfig:
    """A miniature machine for campaigns: 2 cores, 4 MB NVRAM, small log.

    A small ring wraps within a short run, so the campaign exercises
    wrap-protection and parity-boundary scanning without long runs.
    """
    return SystemConfig(
        num_cores=2,
        core=CoreConfig(),
        l1=CacheConfig(size_bytes=4 * 1024, ways=4, line_size=64, latency_ns=1.6),
        llc=CacheConfig(size_bytes=32 * 1024, ways=8, line_size=64, latency_ns=4.4),
        memctrl=MemCtrlConfig(),
        nvram=NVDimmConfig(size_bytes=4 * 1024 * 1024),
        logging=LoggingConfig(log_entries=log_entries),
    )


def campaign_workload(name: str, seed: int) -> Workload:
    """A small-footprint instance of microbenchmark ``name``."""
    return make_microbenchmark(name, seed=seed, **_SMALL_WORKLOADS.get(name, {}))


def campaign_trace(
    name: str, seed: int, system: SystemConfig, threads: int, txns_per_thread: int
) -> CompiledTrace:
    """The compiled trace every run of a campaign replays: microbenchmark
    ``name`` (:func:`campaign_workload`) on ``system``, ``threads`` x
    ``txns_per_thread``.  The workload is prepared only when the trace
    cache misses."""
    workload = campaign_workload(name, seed)
    return compiled_trace(
        workload, system, threads, txns_per_thread, Preparation(workload, system)
    )


def check_campaign_size(
    system: SystemConfig, threads: int, txns_per_thread: int, points: int = 1
) -> None:
    """Raise :class:`ConfigError` unless a campaign of ``threads`` x
    ``txns_per_thread`` has work to crash, cores to run it on and a
    budget of ``points``."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if threads > system.num_cores:
        raise ConfigError(
            f"{threads} threads need {threads} cores, config has {system.num_cores}"
        )
    if txns_per_thread < 1:
        raise ConfigError(f"txns per thread must be >= 1, got {txns_per_thread}")
    if points < 1:
        raise ConfigError(f"points must be >= 1, got {points}")


@dataclass(frozen=True)
class FaultPoint:
    """One campaign cell: crash at an event occurrence, with a fault."""

    kind: EventKind
    index: int
    fault: str = FAULT_NONE

    @property
    def label(self) -> str:
        """Human-readable cell name (stable across runs)."""
        suffix = "" if self.fault == FAULT_NONE else f"+{self.fault}"
        return f"{self.kind.value}[{self.index}]{suffix}"


@dataclass
class PointResult:
    """Outcome of one fault point under one policy."""

    point: FaultPoint
    crash_time: float
    triggered: bool
    mismatches: int
    torn_records_skipped: int = 0
    checksum_failures: int = 0
    fault_applied: bool = False
    recovery_interrupted: bool = False
    converged: bool = True

    @property
    def consistent(self) -> bool:
        """True when recovery reproduced the golden committed state."""
        return self.mismatches == 0 and self.converged


@dataclass
class PolicyReport:
    """All point outcomes for one design."""

    policy: DesignSpec
    points: List[PointResult] = field(default_factory=list)

    @property
    def guaranteed(self) -> bool:
        """Whether the design promises crash consistency at all."""
        return self.policy.persistence_guaranteed

    @property
    def violations(self) -> List[PointResult]:
        """Points where recovery failed to reproduce the golden state."""
        return [result for result in self.points if not result.consistent]

    @property
    def consistent(self) -> bool:
        """True when every point recovered to the golden state."""
        return not self.violations

    @property
    def torn_records_skipped(self) -> int:
        """Total torn records the scans rejected across all points."""
        return sum(result.torn_records_skipped for result in self.points)

    @property
    def checksum_failures(self) -> int:
        """Total mid-window corrupt records skipped across all points."""
        return sum(result.checksum_failures for result in self.points)

    @property
    def verdict(self) -> str:
        """One-word verdict, qualified for unguaranteed designs."""
        if self.consistent:
            return "CONSISTENT"
        if not self.guaranteed:
            return "VIOLATED (expected: no guarantee)"
        return "VIOLATED"


@dataclass
class CampaignResult:
    """Verdict matrix of one campaign."""

    workload: str
    txns_per_thread: int
    threads: int
    seed: int
    reports: List[PolicyReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when points ran and no *guaranteed* policy shows a violation."""
        return self.total_points > 0 and all(
            report.consistent for report in self.reports if report.guaranteed
        )

    @property
    def total_points(self) -> int:
        """Points executed across all policies."""
        return sum(len(report.points) for report in self.reports)

    @property
    def rendered(self) -> str:
        """Terminal verdict table plus a per-kind breakdown."""
        width = max(
            [len("policy")] + [len(r.policy.value) for r in self.reports]
        )
        lines = [
            f"fault campaign: workload={self.workload} "
            f"txns={self.txns_per_thread} threads={self.threads} "
            f"seed={self.seed}",
            f"{'policy':{width}s} {'points':>6s} {'violations':>10s} "
            f"{'torn-skip':>9s} {'cksum-fail':>10s}  verdict",
        ]
        for report in self.reports:
            lines.append(
                f"{report.policy.value:{width}s} {len(report.points):6d} "
                f"{len(report.violations):10d} "
                f"{report.torn_records_skipped:9d} "
                f"{report.checksum_failures:10d}  {report.verdict}"
            )
        for report in self.reports:
            if not report.violations:
                continue
            shown = ", ".join(v.point.label for v in report.violations[:6])
            more = len(report.violations) - 6
            if more > 0:
                shown += f", … +{more}"
            lines.append(f"  {report.policy.value}: failing points: {shown}")
        lines.append(
            f"{self.total_points} point(s) total; campaign "
            f"{'PASSED' if self.passed else 'FAILED'}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Point enumeration
# ----------------------------------------------------------------------
#: Relative share of the point budget per (kind, fault) stream.  RETIRE
#: points dominate (they cover arbitrary instants); event-specific kinds
#: and fault variants each get a slice.
_BUDGET_SHARES: Tuple[Tuple[EventKind, str, float], ...] = (
    (EventKind.RETIRE, FAULT_NONE, 0.34),
    (EventKind.LOG_DRAIN, FAULT_NONE, 0.16),
    (EventKind.FWB_SCAN, FAULT_NONE, 0.08),
    (EventKind.WRAP_FORCE, FAULT_NONE, 0.06),
    (EventKind.RECOVERY, FAULT_NONE, 0.12),
    (EventKind.RETIRE, FAULT_TORN, 0.16),
    (EventKind.RETIRE, FAULT_GHOST, 0.08),
)


def enumerate_points(
    event_totals: Dict[EventKind, int],
    recovery_steps: int,
    budget: int = 60,
) -> List[FaultPoint]:
    """Deterministic crash/fault points against profiled event totals.

    Budget shares that land on event streams the configuration never
    generates (e.g. FWB scans under a software design) are dropped; the
    RETIRE streams absorb the slack so the total stays near ``budget``.
    """
    points: List[FaultPoint] = []
    spent = 0
    for kind, fault, share in _BUDGET_SHARES:
        slice_budget = max(1, round(budget * share))
        total = recovery_steps if kind is EventKind.RECOVERY else event_totals.get(kind, 0)
        indices = sample_indices(total, slice_budget)
        points.extend(FaultPoint(kind, index, fault) for index in indices)
        spent += len(indices)
    shortfall = budget - spent
    if shortfall > 0:
        # Densify the plain RETIRE stream with indices not yet taken.
        taken = {
            p.index for p in points
            if p.kind is EventKind.RETIRE and p.fault == FAULT_NONE
        }
        total = event_totals.get(EventKind.RETIRE, 0)
        extra = [
            index
            for index in sample_indices(total, len(taken) + 2 * shortfall)
            if index not in taken
        ]
        points.extend(
            FaultPoint(EventKind.RETIRE, index) for index in extra[:shortfall]
        )
    return points


# ----------------------------------------------------------------------
# Run drivers and single-point execution
# ----------------------------------------------------------------------
def start_run(
    trace: CompiledTrace,
    system: SystemConfig,
    policy: DesignSpec,
    monitor: Optional[FaultMonitor] = None,
    injector: Optional[FaultInjector] = None,
) -> ShardMachine:
    """A started replay of ``trace`` on ``system`` under ``policy``, with
    the fault monitor and torn-write injector armed
    (:func:`~repro.sim.replay.replay_shard`)."""

    def arm(machine: Machine) -> None:
        machine.fault_monitor = monitor
        machine.nvram.injector = injector

    run = RunConfig(
        policy=policy,
        threads=trace.threads,
        txns_per_thread=trace.txns_per_thread,
        system=system,
    )
    return replay_shard(trace, run, arm)


def finish_run(
    shard: ShardMachine, switch: Optional[Tuple[float, DesignSpec]] = None
) -> ShardMachine:
    """Drive a started shard to the end of its run, without crashing it.

    ``switch=(horizon, new_design)`` first steps the shard to the cycle
    horizon and runs its safe-switch protocol, so a switched run is the
    interleaving :class:`~repro.adapt.controller.AdaptiveController`
    runs in serve.  Profiles and makespans read the finished shard.
    """
    if switch is not None:
        horizon, new_design = switch
        shard.step(horizon)
        shard.switch_design(new_design)
    shard.drain()
    return shard


def run_to_crash(
    shard: ShardMachine, switch: Optional[Tuple[float, DesignSpec]] = None
) -> Tuple[float, bool]:
    """Drive a started shard as :func:`finish_run` does up to its crash
    instant, without crashing it.

    The instant is where the shard's fault monitor's crash point fired
    or, when the point lies past the run's last event, the end of the
    run.  Returns ``(crash_time, triggered)``; the device still holds
    every write posted by then, so it can be forked
    (:meth:`~repro.sim.nvram.NVRAM.fork`) and crashed more than one
    way.  The :class:`~repro.errors.SimulatedCrash` itself is not
    returned: its traceback's frames would keep the machine and its
    NVRAM image alive until the cyclic garbage collector ran.
    """
    machine = shard.machine
    try:
        finish_run(shard, switch)
    except SimulatedCrash as crash:
        return crash.at_time, True
    return max((core.time for core in machine.cores), default=0.0), False


def crash_run(
    shard: ShardMachine, switch: Optional[Tuple[float, DesignSpec]] = None
) -> Tuple[float, bool]:
    """:func:`run_to_crash`, then crash the machine at that instant.

    Returns ``(crash_time, triggered)``.
    """
    crash_time, triggered = run_to_crash(shard, switch)
    shard.machine.crash(at_time=crash_time)
    return crash_time, triggered


def _find_empty_slot(nvram: NVRAM, log: CircularLog) -> Optional[int]:
    """First never-written (all-zero) slot of the active region, if any."""
    zero = bytes(log.entry_size)
    for slot in range(log.num_entries):
        if nvram.read(log.entry_addr(slot), log.entry_size) == zero:
            return slot
    return None


def _candidate_states(pm: PersistentMemory, crash_time: float) -> List[dict]:
    """Acceptable golden images at the crash: one per in-doubt outcome.

    Three classes of transaction at a crash:

    * commits with ``durable <= crash_time`` — mandatory in every
      candidate (their commit record survived by construction);
    * commits whose durable time lies *after* the crash — the program
      issued the commit record but it was still in flight; a torn write
      may have persisted enough of it (commit records are all-header) to
      be valid, so recovery may commit or drop them.  The log drains
      FIFO, so only order-respecting prefixes of these are possible;
    * transactions staged mid-commit-sequence (the program never
      observed an outcome) — individually in doubt.

    What is never acceptable is a partial application, which matches no
    candidate."""
    mandatory: dict = {}
    optional: List[dict] = []
    for durable, writes in sorted(pm.golden.commits, key=lambda item: item[0]):
        if durable <= crash_time:
            mandatory.update(writes)
        else:
            optional.append(writes)
    candidates = []
    for depth in range(len(optional) + 1):
        image = dict(mandatory)
        for writes in optional[:depth]:
            image.update(writes)
        candidates.append(image)
    for _physical, writes in pm.golden.staged.values():
        extended = []
        for image in candidates:
            with_tx = dict(image)
            with_tx.update(writes)
            extended.append(with_tx)
        candidates.extend(extended)
    return candidates


def count_mismatches(nvram: NVRAM, pm: PersistentMemory, crash_time: float) -> int:
    """Word pieces off from the *closest* acceptable golden image."""
    touched = pm.golden.touched_addresses()
    best = None
    for expected in _candidate_states(pm, crash_time):
        wrong = 0
        for addr in touched | set(expected):
            want = expected.get(addr)
            if want is None:
                continue  # written only by post-crash transactions
            if nvram.read(addr, len(want)) != want:
                wrong += 1
        if best is None or wrong < best:
            best = wrong
        if best == 0:
            break
    return best or 0


def _torn_injector(system: SystemConfig) -> FaultInjector:
    """Tear up to two in-flight log-region writes at the crash."""
    return FaultInjector(
        [
            TornWrite(
                base=system.log_base,
                end=system.nvram.size_bytes,
                keep_words=2,
                max_tears=2,
            )
        ]
    )


@dataclass
class _RecoveryScenario:
    """Shared state for the crash-during-recovery points of one policy.

    Built once per policy from the run crashed at a fixed mid-run point:
    the surviving image, and a clean single recovery of it as the
    convergence reference.
    """

    image: ImageSnapshot
    crash_time: float
    golden_pm: PersistentMemory
    reference_image: ImageSnapshot
    steps: int


@dataclass
class _CrashInstant:
    """One replay of a design's run, stopped at a crash event.

    The machine is not crashed yet: its device still holds every write
    posted by ``crash_time``.  Every point keyed to this event (a plain
    crash and its ``+torn`` and ``+ghost`` variants) crashes a fork of
    that device, so the run is replayed once however many points share
    the instant.  Forks are made one at a time and recycled before the
    next.
    """

    trigger: CrashPoint
    shard: ShardMachine
    crash_time: float
    triggered: bool

    def crashed_image(self, injector: Optional[FaultInjector] = None) -> NVRAM:
        """A fork of the device, crashed at the instant; ``injector``
        decides what its in-flight writes leave behind."""
        nvram = self.shard.machine.nvram.fork()
        nvram.injector = injector
        nvram.revert_after(self.crash_time)
        nvram.injector = None  # recovery sees the damaged image as-is
        return nvram

    def run_point(self, system: SystemConfig, point: FaultPoint) -> PointResult:
        """Crash a fork, injure its log with the point's fault, recover,
        and verify it against the run's golden model."""
        injector = _torn_injector(system) if point.fault == FAULT_TORN else None
        nvram = self.crashed_image(injector)
        fault_applied = injector is not None and injector.tears_applied > 0
        if point.fault == FAULT_GHOST:
            log = self.shard.machine.log
            slot = _find_empty_slot(nvram, log)
            if slot is not None:
                ghost = GhostRecord(
                    slot_addr=log.entry_addr(slot),
                    entry_size=log.entry_size,
                    seed=point.index,
                )
                FaultInjector([ghost]).corrupt_image(nvram)
                fault_applied = True
        report = recover_image(nvram, system)
        mismatches = count_mismatches(nvram, self.shard.pm, self.crash_time)
        nvram.recycle()  # verified: the next fork reuses the buffer
        return PointResult(
            point=point,
            crash_time=self.crash_time,
            triggered=self.triggered,
            mismatches=mismatches,
            torn_records_skipped=report.torn_records_skipped,
            checksum_failures=report.checksum_failures,
            fault_applied=fault_applied,
        )

    def recovery_scenario(self, system: SystemConfig) -> _RecoveryScenario:
        """Snapshot the plainly crashed image and profile/reference its
        recovery pass."""
        nvram = self.crashed_image()
        image = nvram.snapshot()
        # Counting pass doubles as the convergence reference.
        counter = FaultMonitor()
        recover_image(nvram, system, crash_injector=counter)
        reference_image = nvram.snapshot()
        nvram.recycle()
        return _RecoveryScenario(
            image=image,
            crash_time=self.crash_time,
            golden_pm=self.shard.pm,
            reference_image=reference_image,
            steps=counter.counts[EventKind.RECOVERY],
        )

    def close(self) -> None:
        """Crash the run itself at the instant and recycle its device."""
        machine = self.shard.machine
        machine.crash(at_time=self.crash_time)
        machine.nvram.recycle()


def _replay_to_crash(
    trace: CompiledTrace,
    system: SystemConfig,
    policy: DesignSpec,
    trigger: CrashPoint,
) -> _CrashInstant:
    """Replay the run once, up to the instant ``trigger`` fires."""
    shard = start_run(trace, system, policy, FaultMonitor(trigger))
    crash_time, triggered = run_to_crash(shard)
    return _CrashInstant(trigger, shard, crash_time, triggered)


def _run_recovery_point(
    scenario: _RecoveryScenario,
    system: SystemConfig,
    point: FaultPoint,
) -> PointResult:
    """Interrupt recovery after the point's write; re-recover; verify."""
    nvram = NVRAM(system.nvram)
    nvram.restore(scenario.image)
    interrupted = False
    try:
        recover_image(
            nvram,
            system,
            crash_injector=FaultMonitor(CrashPoint(EventKind.RECOVERY, point.index)),
        )
    except RecoveryInterrupted:
        interrupted = True
    # Second (clean) recovery pass — the restart after the second crash.
    report = recover_image(nvram, system)

    pm = scenario.golden_pm
    wrong = count_mismatches(nvram, pm, scenario.crash_time)
    converged = nvram.snapshot() == scenario.reference_image
    nvram.recycle()
    return PointResult(
        point=point,
        crash_time=scenario.crash_time,
        triggered=interrupted,
        mismatches=wrong,
        torn_records_skipped=report.torn_records_skipped,
        checksum_failures=report.checksum_failures,
        fault_applied=interrupted,
        recovery_interrupted=interrupted,
        converged=converged,
    )


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------
def instant_variants(policies: Iterable = GUARANTEED_POLICIES) -> Tuple[DesignSpec, ...]:
    """The ``instant``-commit twin of each given design.

    Same mechanisms, commit protocol flipped to ``instant`` — the specs
    whose derived ``persistence_guaranteed`` goes false because the
    reported commit point is no longer tied to durability.  The campaign
    runs them end-to-end to demonstrate (not merely assert) the gap.
    """
    variants = []
    for policy in policies:
        spec = dataclasses.replace(
            resolve_design(policy), commit=CommitProtocol.INSTANT, name=""
        )
        if spec not in variants:
            variants.append(spec)
    return tuple(variants)


def resolve_policies(spec: str) -> Tuple[DesignSpec, ...]:
    """Turn a CLI design spec into a design tuple.

    ``"guaranteed"`` → the four guaranteed designs; ``"all"`` → those
    plus every unguaranteed logging design; ``"instant"`` → the
    instant-commit variants of the guaranteed grid (see
    :func:`instant_variants`); otherwise a comma-separated list of
    design names (e.g. ``"fwb"``) and/or custom mechanism strings
    (``"hw+undo+clwb"``, ``"hw+undo+redo+fwb+instant"``).  A spec that
    names no designs is a :class:`ConfigError`.
    """
    if spec == "guaranteed":
        return GUARANTEED_POLICIES
    if spec == "all":
        return GUARANTEED_POLICIES + UNGUARANTEED_POLICIES
    if spec == "instant":
        return instant_variants()
    policies = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        design = resolve_design(token)
        if design not in policies:
            policies.append(design)
    if not policies:
        raise ConfigError(f"design spec {spec!r} names no designs")
    return tuple(policies)


def run_fault_campaign(
    policies: Iterable = GUARANTEED_POLICIES,
    workload: str = "hash",
    points: int = 60,
    txns_per_thread: int = 60,
    threads: int = 1,
    seed: int = 7,
    system: Optional[SystemConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Run the crash-point × fault × policy matrix; returns all verdicts.

    ``points`` is the per-policy budget; the actual count can differ by a
    few when the configuration lacks some event streams.  ``progress``
    (e.g. ``print``) receives one line per policy as results land.
    A campaign with no work or no budget, or an unknown workload or
    design name, raises :class:`ConfigError` before any run; a design
    whose run exhausts the log-growth arena raises it from the profile
    runs, before any crash point.
    """
    system = system or default_campaign_system()
    check_campaign_size(system, threads, txns_per_thread, points)
    policies = [resolve_design(policy) for policy in policies]
    trace = campaign_trace(workload, seed, system, threads, txns_per_thread)
    result = CampaignResult(
        workload=workload,
        txns_per_thread=txns_per_thread,
        threads=threads,
        seed=seed,
    )
    # 1. Profile the event streams of each design's run, every design
    # before any point runs: a run the configuration cannot hold (an
    # exhausted log-growth arena) fails here, as a ConfigError.
    profiles = []
    for policy in policies:
        profile = FaultMonitor()
        finish_run(start_run(trace, system, policy, profile)).machine.nvram.recycle()
        profiles.append(profile)
    for policy, profile in zip(policies, profiles):
        report = _run_policy(trace, system, policy, profile, points)
        result.reports.append(report)
        if progress is not None:
            progress(
                f"{policy.value}: {len(report.points)} point(s), "
                f"{len(report.violations)} violation(s) — {report.verdict}"
            )
    return result


def _run_policy(
    trace: CompiledTrace,
    system: SystemConfig,
    policy: DesignSpec,
    profile: FaultMonitor,
    points: int,
) -> PolicyReport:
    """Enumerate one design's points and run them, one replay per crash
    instant; the report lists them in plan order."""
    retire_total = profile.counts[EventKind.RETIRE]
    instants: Dict[CrashPoint, List[int]] = {}
    instant = scenario = None
    if retire_total > 0:
        # The recovery scenario's mid-run crash is replayed first; plan
        # points at the same event fork that replay too.
        mid = CrashPoint(EventKind.RETIRE, (retire_total * 3) // 5)
        instant = _replay_to_crash(trace, system, policy, mid)
        scenario = instant.recovery_scenario(system)
        instants[mid] = []
    # 2. Enumerate points against the profiled totals.
    plan = enumerate_points(
        profile.counts,
        scenario.steps if scenario is not None else 0,
        budget=points,
    )
    # 3. Execute.
    results: List[Optional[PointResult]] = [None] * len(plan)
    for position, point in enumerate(plan):
        if point.kind is EventKind.RECOVERY:
            results[position] = _run_recovery_point(scenario, system, point)
        else:
            instants.setdefault(CrashPoint(point.kind, point.index), []).append(position)
    for trigger, positions in instants.items():
        if instant is None or instant.trigger != trigger:
            instant = _replay_to_crash(trace, system, policy, trigger)
        for position in positions:
            results[position] = instant.run_point(system, plan[position])
        instant.close()
    return PolicyReport(policy, results)
