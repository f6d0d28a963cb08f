"""One replay per crash instant gives the verdicts of one replay per point.

:func:`~repro.faults.campaign.run_fault_campaign` replays a design's run
once per crash event and crashes a fork of that run's device for every
point keyed to the event (a plain crash, its ``+torn`` and ``+ghost``
variants, the recovery scenario's mid-run crash).  The reference here
replays the run once per point, as the campaign used to: start the run
with the point's monitor and torn-write injector armed, crash it, plant
the point's ghost record, recover and verify; and one more run, crashed
mid-way, for the recovery scenario.  Both must give equal
:class:`~repro.faults.campaign.PointResult` lists, every field, on
configurations the campaign golden does not pin.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.recovery import recover_image
from repro.faults import (
    FAULT_GHOST,
    FAULT_TORN,
    GUARANTEED_POLICIES,
    UNGUARANTEED_POLICIES,
    run_fault_campaign,
)
from repro.faults import campaign
from repro.faults.campaign import (
    PointResult,
    _find_empty_slot,
    _RecoveryScenario,
    _run_recovery_point,
    _torn_injector,
    campaign_trace,
    count_mismatches,
    crash_run,
    default_campaign_system,
    enumerate_points,
    finish_run,
    instant_variants,
    start_run,
)
from repro.faults.crashpoints import CrashPoint, EventKind, FaultMonitor
from repro.faults.plan import FaultInjector, GhostRecord
from repro.sim.machine import Machine
from repro.sim.nvram import NVRAM

POINTS = 30
TXNS = 30
DESIGNS = GUARANTEED_POLICIES + UNGUARANTEED_POLICIES + instant_variants()


def _logging(system, **changes):
    return dataclasses.replace(
        system, logging=dataclasses.replace(system.logging, **changes)
    )


#: ``name -> (workload, seed, threads, system)``.
CONFIGS = {
    # Its ghost points crash with log writes in flight into the ring's
    # first empty slots, so only the reverted fork shows where the
    # ghost goes.
    "t1-seed11": ("hash", 11, 1, default_campaign_system()),
    "t2-seed7": ("btree", 7, 2, default_campaign_system()),
    "rings2-t2": ("rbtree", 7, 2, _logging(default_campaign_system(), distributed_logs=2)),
    "grown64": ("hash", 7, 1, _logging(default_campaign_system(64), enable_log_grow=True)),
}


def _reference_point(trace, system, policy, point) -> PointResult:
    """One replay for one point: crash at its event, injure, recover."""
    injector = _torn_injector(system) if point.fault == FAULT_TORN else None
    monitor = FaultMonitor(CrashPoint(point.kind, point.index))
    shard = start_run(trace, system, policy, monitor, injector)
    crash_time, triggered = crash_run(shard)
    machine = shard.machine
    fault_applied = injector is not None and injector.tears_applied > 0
    if point.fault == FAULT_GHOST:
        slot = _find_empty_slot(machine.nvram, machine.log)
        if slot is not None:
            ghost = GhostRecord(
                slot_addr=machine.log.entry_addr(slot),
                entry_size=machine.log.entry_size,
                seed=point.index,
            )
            FaultInjector([ghost]).corrupt_image(machine.nvram)
            fault_applied = True
    machine.nvram.injector = None
    report = recover_image(machine.nvram, machine.config)
    mismatches = count_mismatches(machine.nvram, shard.pm, crash_time)
    machine.nvram.recycle()
    return PointResult(
        point=point,
        crash_time=crash_time,
        triggered=triggered,
        mismatches=mismatches,
        torn_records_skipped=report.torn_records_skipped,
        checksum_failures=report.checksum_failures,
        fault_applied=fault_applied,
    )


def _reference_scenario(trace, system, policy, retire_total):
    """A run of its own, crashed at retire[3T/5], and its clean recovery."""
    if retire_total <= 0:
        return None
    mid = CrashPoint(EventKind.RETIRE, (retire_total * 3) // 5)
    shard = start_run(trace, system, policy, FaultMonitor(mid))
    crash_time, _triggered = crash_run(shard)
    image = shard.machine.nvram.snapshot()
    shard.machine.nvram.recycle()
    reference = NVRAM(system.nvram)
    reference.restore(image)
    counter = FaultMonitor()
    recover_image(reference, system, crash_injector=counter)
    reference_image = reference.snapshot()
    reference.recycle()
    return _RecoveryScenario(
        image=image,
        crash_time=crash_time,
        golden_pm=shard.pm,
        reference_image=reference_image,
        steps=counter.counts[EventKind.RECOVERY],
    )


def reference_campaign(policies, workload, seed, threads, system):
    """Every design's point results, one replay per point."""
    trace = campaign_trace(workload, seed, system, threads, TXNS)
    results = []
    for policy in policies:
        profile = FaultMonitor()
        finish_run(start_run(trace, system, policy, profile)).machine.nvram.recycle()
        retire_total = profile.counts[EventKind.RETIRE]
        scenario = _reference_scenario(trace, system, policy, retire_total)
        plan = enumerate_points(
            profile.counts, scenario.steps if scenario else 0, budget=POINTS
        )
        results.append(
            [
                _run_recovery_point(scenario, system, point)
                if point.kind is EventKind.RECOVERY
                else _reference_point(trace, system, policy, point)
                for point in plan
            ]
        )
    return results


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_one_replay_per_instant_equals_one_per_point(config):
    workload, seed, threads, system = CONFIGS[config]
    result = run_fault_campaign(
        DESIGNS,
        workload=workload,
        points=POINTS,
        txns_per_thread=TXNS,
        threads=threads,
        seed=seed,
        system=system,
    )
    want = reference_campaign(DESIGNS, workload, seed, threads, system)
    assert [report.policy for report in result.reports] == list(DESIGNS)
    for report, points in zip(result.reports, want):
        assert report.points == points, f"{config} {report.policy.value}"


def test_each_crash_instant_is_replayed_once(monkeypatch):
    """``repro faults``' defaults on hash build one machine per design's
    profile plus one per distinct crash instant of its plan: no
    ``(kind, index)`` is replayed twice, and the recovery scenario's
    mid-run crash shares a plan point's replay."""
    # Record the trace first: a cold trace cache prepares the workload
    # on a machine of its own.
    campaign_trace("hash", 7, default_campaign_system(), 1, 60)
    built = []
    original = Machine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(None)

    monkeypatch.setattr(Machine, "__init__", init)
    monitors = []
    start = campaign.start_run

    def recorded(trace, system, policy, monitor=None, injector=None):
        monitors.append((policy.value, monitor))
        return start(trace, system, policy, monitor, injector)

    monkeypatch.setattr(campaign, "start_run", recorded)
    result = run_fault_campaign(GUARANTEED_POLICIES, workload="hash")
    assert result.passed
    assert len(built) == len(monitors)
    profiles = {name: m for name, m in monitors if m.trigger is None}
    replayed = [(name, m.trigger) for name, m in monitors if m.trigger is not None]
    assert len(replayed) == len(set(replayed))
    points = 0
    for report in result.reports:
        name = report.policy.value
        executed = [p.point for p in report.points if p.point.kind is not EventKind.RECOVERY]
        instants = {CrashPoint(point.kind, point.index) for point in executed}
        assert {trigger for each, trigger in replayed if each == name} == instants
        retires = profiles[name].counts[EventKind.RETIRE]
        assert CrashPoint(EventKind.RETIRE, (retires * 3) // 5) in instants
        points += len(executed)
    assert len(built) == len(GUARANTEED_POLICIES) + len(replayed)
    assert len(replayed) < points  # the torn and ghost variants shared runs
