"""Integration tests for the fault-injection campaign engine.

The unit tests (tests/unit/test_faults.py) cover plans, monitors and
point enumeration in isolation; here whole campaigns run on the real
simulator.  The guaranteed designs must survive every enumerated crash
point — including torn-log and ghost-record variants — while
``unsafe-base`` must demonstrably fail, and the whole matrix must be
reproducible bit-for-bit.
"""

import dataclasses
import gc
import weakref

import pytest

from repro import Machine, PersistentMemory, RecoveryManager
from repro.core.design import FWB, HWL, REDO_CLWB, UNDO_CLWB, UNSAFE_BASE
from repro.errors import SimulatedCrash
from repro.faults import (
    FAULT_GHOST,
    FAULT_NONE,
    FAULT_TORN,
    CrashPoint,
    EventKind,
    FaultMonitor,
    run_fault_campaign,
)
from repro.faults.campaign import (
    campaign_workload,
    count_mismatches,
    crash_run,
    default_campaign_system,
    finish_run,
    start_run,
)
from repro.harness.runner import prepare_workload
from repro.sim.nvram import NVRAM

GUARANTEED = [FWB, HWL, UNDO_CLWB, REDO_CLWB]

# Small budgets keep every campaign here well under a second.
POINTS = 16
TXNS = 24


def small_campaign(policies, **overrides):
    kwargs = dict(
        policies=policies,
        workload="hash",
        points=POINTS,
        txns_per_thread=TXNS,
        threads=1,
        seed=7,
    )
    kwargs.update(overrides)
    return run_fault_campaign(**kwargs)


@pytest.mark.parametrize("policy", GUARANTEED, ids=lambda p: p.value)
def test_guaranteed_policy_survives_all_points(policy):
    result = small_campaign((policy,))
    assert result.passed
    (report,) = result.reports
    assert report.consistent
    assert len(report.points) >= POINTS // 2
    # The plan must actually exercise the fault variants, not just
    # plain crashes.
    faults = {point.point.fault for point in report.points}
    assert faults >= {FAULT_NONE, FAULT_TORN, FAULT_GHOST}
    kinds = {point.point.kind for point in report.points}
    assert EventKind.RETIRE in kinds


def test_torn_faults_are_applied_and_skipped():
    # Across the torn-fault points of a guaranteed design, at least one
    # injected tear must land on the log and be rejected by the scan.
    result = small_campaign((FWB,), points=24)
    (report,) = result.reports
    torn_points = [p for p in report.points if p.point.fault == FAULT_TORN]
    assert torn_points
    assert any(point.fault_applied for point in torn_points)
    assert report.torn_records_skipped >= 1
    assert report.consistent


def test_ghost_records_are_rejected():
    result = small_campaign((FWB,))
    (report,) = result.reports
    ghost_points = [p for p in report.points if p.point.fault == FAULT_GHOST]
    assert ghost_points
    assert any(point.fault_applied for point in ghost_points)
    assert report.consistent


def test_mid_recovery_points_converge():
    result = small_campaign((UNDO_CLWB,))
    (report,) = result.reports
    recovery_points = [
        p for p in report.points if p.point.kind is EventKind.RECOVERY
    ]
    assert recovery_points
    assert all(point.converged for point in recovery_points)


def test_unsafe_base_demonstrably_fails():
    result = small_campaign((UNSAFE_BASE,))
    (report,) = result.reports
    assert not report.consistent
    assert len(report.violations) >= 1
    # An unguaranteed design's violations are expected, not a campaign
    # failure.
    assert result.passed
    assert "expected" in report.verdict


def test_campaign_is_deterministic():
    first = small_campaign((FWB,))
    second = small_campaign((FWB,))
    flatten = lambda result: [
        dataclasses.astuple(point) for point in result.reports[0].points
    ]
    assert flatten(first) == flatten(second)


# ----------------------------------------------------------------------
# Double-recovery idempotence (recovery must be restartable at any time)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", GUARANTEED, ids=lambda p: p.value)
def test_double_recovery_is_idempotent(policy):
    """Recovering an already-recovered image must change nothing.

    A machine crash *after* recovery but before the first new
    transaction replays the log again; the second pass must find the
    reset marker and leave the image bit-identical.
    """
    system = default_campaign_system()
    machine = Machine(system, policy)
    pm = PersistentMemory(machine)
    workload = campaign_workload("hash", seed=11)
    workload.setup(pm)
    machine.fault_monitor = FaultMonitor(CrashPoint(EventKind.RETIRE, 400))
    crash = None
    try:
        for _ in workload.thread_body(pm.api(0, 0), 0, TXNS):
            pass
    except SimulatedCrash as exc:
        crash = exc
    if crash is not None:
        machine.crash_at_point(crash)
    else:
        machine.crash()

    first = RecoveryManager(machine.nvram, machine.log).recover()
    after_first = bytes(machine.nvram.image)
    second = RecoveryManager(machine.nvram, machine.log).recover()
    assert bytes(machine.nvram.image) == after_first
    assert second.total_writes == 0
    assert second.window_entries == 0
    # Sanity: the first pass actually had work to do on this crashy run.
    assert crash is None or first.records_scanned >= 0


def test_software_design_machines_die_without_the_cyclic_collector():
    """No reference cycle runs through a software-logging machine: its
    write-back ordering hook holds the write-combining buffers, not the
    machine, so dropping a finished or crashed run frees the machine
    (and its NVRAM image) at once."""
    prepared = prepare_workload(campaign_workload("btree", 7), default_campaign_system())
    gc.collect()
    gc.disable()
    try:
        shard = finish_run(start_run(prepared, UNDO_CLWB, 1, 20))
        finished = weakref.ref(shard.machine)
        del shard
        assert finished() is None

        monitor = FaultMonitor(CrashPoint(EventKind.RETIRE, 300))
        shard = start_run(prepared, REDO_CLWB, 1, 20, monitor)
        _crash_time, triggered = crash_run(shard)
        assert triggered
        crashed = weakref.ref(shard.machine)
        del shard, monitor
        assert crashed() is None
    finally:
        gc.enable()


def test_trigger_past_the_last_event_crashes_at_the_end_of_the_run():
    """A crash point the run never reaches (a profile that drifted from
    the run it profiled) crashes at the end of the run, untriggered."""
    prepared = prepare_workload(campaign_workload("hash", 7), default_campaign_system())
    profile = FaultMonitor()
    finished = finish_run(start_run(prepared, FWB, 1, TXNS, profile))
    end = max(core.time for core in finished.machine.cores)
    finished.machine.nvram.recycle()
    retires = profile.counts[EventKind.RETIRE]

    shard = start_run(
        prepared, FWB, 1, TXNS, FaultMonitor(CrashPoint(EventKind.RETIRE, retires))
    )
    crash_time, triggered = crash_run(shard)
    assert not triggered
    assert crash_time == end
    assert shard.machine.crashed
    RecoveryManager(shard.machine.nvram, shard.machine.log).recover()
    assert count_mismatches(shard.machine.nvram, shard.pm, crash_time) == 0


def test_campaign_points_reuse_a_few_device_buffers_and_leave_them_zeroed(
    monkeypatch,
):
    """Every point returns its NVRAM buffer to the pool once verified, so
    the default campaign's machines share a handful of images instead of
    allocating one per point, and what the pool keeps is all zero."""
    monkeypatch.setattr(NVRAM, "_image_pool", {})
    limit = NVRAM._IMAGE_POOL_LIMIT
    images = {}  # id -> buffer; holding the buffers keeps their ids unique
    machines = []
    original = Machine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        machines.append(None)
        if len(images) <= limit:
            images.setdefault(id(self.nvram.image), self.nvram.image)

    monkeypatch.setattr(Machine, "__init__", init)
    result = run_fault_campaign(workload="hash")
    assert result.passed
    assert len(machines) > 4 * limit
    assert len(images) <= limit
    pooled = [buffer for buffers in NVRAM._image_pool.values() for buffer in buffers]
    assert pooled
    assert all(buffer[:].count(0) == len(buffer) for buffer in pooled)
