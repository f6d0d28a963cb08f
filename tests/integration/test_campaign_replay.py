"""Replayed crash runs equal interpreted ones where no golden pins them.

Every crash-campaign run replays the campaign workload's compiled trace
(:func:`~repro.faults.campaign.campaign_trace` through
:func:`~repro.faults.campaign.start_run`).  The campaign golden pins the
default campaigns' verdicts; this test covers configurations it does
not: two threads, another seed, two log rings, a grown log and a design
switch.  Each sampled point runs twice, once through the campaign's own
trace and once interpreted (``build_run`` plus
``ShardMachine.start_batch`` over the workload's thread bodies), and the
two must agree on the crash instant, whether the point triggered, every
``MachineStats`` field, the crashed and the recovered image, and
``count_mismatches``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.design import resolve_design
from repro.core.recovery import recover_image
from repro.faults import FAULT_GHOST, FAULT_TORN, GUARANTEED_POLICIES
from repro.faults.campaign import (
    _find_empty_slot,
    _torn_injector,
    campaign_trace,
    campaign_workload,
    count_mismatches,
    crash_run,
    default_campaign_system,
    enumerate_points,
    finish_run,
    start_run,
)
from repro.faults.crashpoints import EXECUTION_KINDS, CrashPoint, EventKind, FaultMonitor
from repro.faults.plan import FaultInjector, GhostRecord
from repro.harness.runner import RunConfig, build_run, prepare_workload
from repro.sched.shard import ShardMachine

TXNS = 24
POINTS = 12


def _logging(system, **changes):
    return dataclasses.replace(
        system, logging=dataclasses.replace(system.logging, **changes)
    )


#: ``name -> (workload, seed, threads, system)``.
CONFIGS = {
    "t2-seed7": ("hash", 7, 2, default_campaign_system()),
    "t1-seed11": ("btree", 11, 1, default_campaign_system()),
    "rings2-t2": ("rbtree", 7, 2, _logging(default_campaign_system(), distributed_logs=2)),
    "grown64-t2": ("hash", 7, 2, _logging(default_campaign_system(64), enable_log_grow=True)),
}


def _replayed(name, seed, threads, system, policy):
    """The campaign's start: its own trace, replayed."""
    trace = campaign_trace(name, seed, system, threads, TXNS)
    return lambda monitor=None, injector=None: start_run(
        trace, system, policy, monitor, injector
    )


def _interpreted(name, seed, threads, system, policy):
    """The reference start: the workload's thread bodies, interpreted."""
    prepared = prepare_workload(campaign_workload(name, seed), system)
    run = RunConfig(policy=policy, threads=threads, txns_per_thread=TXNS, system=system)

    def start(monitor=None, injector=None):
        def arm(machine):
            machine.fault_monitor = monitor
            machine.nvram.injector = injector

        machine, pm, workload = build_run(prepared.workload, run, prepared, arm)
        shard = ShardMachine(machine, pm, workload, threads=threads)
        shard.start_batch(TXNS)
        return shard

    return start


def _profile(start, switch=None) -> dict:
    monitor = FaultMonitor()
    finish_run(start(monitor), switch).machine.nvram.recycle()
    return dict(monitor.counts)


def _observe(start, system, trigger, fault=None, switch=None) -> tuple:
    """Crash one run at ``trigger`` as the campaigns do (torn writes
    armed, a ghost record planted), recover it, and read everything a
    verdict depends on."""
    injector = _torn_injector(system) if fault == FAULT_TORN else None
    shard = start(FaultMonitor(trigger), injector)
    crash_time, triggered = crash_run(shard, switch)
    machine = shard.machine
    nvram = machine.nvram
    stats = dataclasses.asdict(machine.stats)
    if fault == FAULT_GHOST:
        slot = _find_empty_slot(nvram, machine.log)
        if slot is not None:
            ghost = GhostRecord(
                slot_addr=machine.log.entry_addr(slot),
                entry_size=machine.log.entry_size,
                seed=trigger.index,
            )
            FaultInjector([ghost]).corrupt_image(nvram)
    nvram.injector = None
    crashed = nvram.snapshot()
    recover_image(nvram, system)
    observed = (
        crash_time,
        triggered,
        stats,
        crashed,
        nvram.snapshot(),
        count_mismatches(nvram, shard.pm, crash_time),
    )
    nvram.recycle()
    return observed


@pytest.mark.parametrize("policy", GUARANTEED_POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_replayed_points_equal_interpreted(config, policy):
    name, seed, threads, system = CONFIGS[config]
    replayed = _replayed(name, seed, threads, system, policy)
    interpreted = _interpreted(name, seed, threads, system, policy)
    counts = _profile(replayed)
    assert counts == _profile(interpreted)
    points = enumerate_points(counts, 0, budget=POINTS)
    streams = {(point.kind, point.fault) for point in points}
    assert {(EventKind.RETIRE, FAULT_TORN), (EventKind.RETIRE, FAULT_GHOST)} <= streams
    assert {kind for kind, _fault in streams} == {
        kind for kind in EXECUTION_KINDS if counts[kind]
    }
    for point in points:
        trigger = CrashPoint(point.kind, point.index)
        want = _observe(interpreted, system, trigger, point.fault)
        got = _observe(replayed, system, trigger, point.fault)
        assert got == want, f"{config} {policy.value} {point.label}"


def test_every_sampled_stream_appears_somewhere():
    """Across the configurations and designs above, each execution kind
    (retire, log-drain, fwb-scan, wrap-force) is sampled at least once."""
    seen = set()
    for name, seed, threads, system in CONFIGS.values():
        for policy in GUARANTEED_POLICIES:
            counts = _profile(_replayed(name, seed, threads, system, policy))
            seen |= {point.kind for point in enumerate_points(counts, 0, budget=POINTS)}
    assert set(EXECUTION_KINDS) <= seen


def test_replayed_switch_points_equal_interpreted():
    """One transition, crashed before and after its barrier and late in
    the new design's epoch, as the switch campaign crashes it."""
    old, new = resolve_design("hw+undo+redo+nowb"), resolve_design("hw+undo+redo+clwb")
    name, seed, threads, system = "hash", 7, 2, default_campaign_system()
    replayed = _replayed(name, seed, threads, system, old)
    interpreted = _interpreted(name, seed, threads, system, old)
    makespans = []
    for start in (replayed, interpreted):
        shard = finish_run(start())
        makespans.append(shard.clock())
        shard.machine.nvram.recycle()
    assert makespans[0] == makespans[1]
    switch = (makespans[0] / 2, new)
    retires = _profile(replayed, switch)[EventKind.RETIRE]
    assert retires == _profile(interpreted, switch)[EventKind.RETIRE]
    triggers = (
        CrashPoint(EventKind.SWITCH_BEFORE, 0),
        CrashPoint(EventKind.SWITCH_AFTER, 0),
        CrashPoint(EventKind.RETIRE, (retires * 9) // 10),
    )
    for trigger in triggers:
        want = _observe(interpreted, system, trigger, switch=switch)
        got = _observe(replayed, system, trigger, switch=switch)
        assert want[1], f"{trigger} never fired"
        assert got == want, str(trigger)
