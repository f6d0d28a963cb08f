"""One recovery path over every log layout the paper describes.

Crash verifiers recover through :func:`repro.core.recovery.recover_image`,
which finds the log from the system's layout alone: the centralized
ring, one ring per thread (Section III-F), or every region a grown log's
persistent directory lists (Section IV-A).
"""

import dataclasses

import pytest

from repro import Machine, PersistentMemory, recover_image
from repro.core.design import FWB
from repro.core.logrecord import LogRecord, RecordKind
from repro.core.recovery import cold_windows
from repro.faults import EventKind
from repro.faults.campaign import (
    FAULT_TORN,
    default_campaign_system,
    run_fault_campaign,
)
from repro.sim.config import LoggingConfig
from tests.conftest import tiny_system, word

LAYOUTS = {
    "central": {},
    "rings": {"distributed_logs": 2},
    "grown": {"enable_log_grow": True},
}

TWO_RINGS = dataclasses.replace(
    default_campaign_system(),
    logging=dataclasses.replace(default_campaign_system().logging, distributed_logs=2),
)


def _geometry(views):
    return [(view.base, view.num_entries, view.entry_size) for view in views]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_cold_views_match_the_live_machine(layout):
    """Placement is read from one place: the views a restart builds
    cover exactly the regions the running machine logged into."""
    system = tiny_system(logging=LoggingConfig(log_entries=16, **LAYOUTS[layout]))
    machine = Machine(system, FWB)
    pm = PersistentMemory(machine)
    slots = [pm.heap.alloc(8) for _ in range(24)]
    api = pm.api(0)
    with api.transaction():  # larger than a ring: a grown log grows
        for index, addr in enumerate(slots):
            api.write(addr, word(index + 1))
    live = [view for log in machine.logs for view in log.region_views()]
    cold = [view for window in cold_windows(machine.nvram, system) for view in window]
    assert _geometry(cold) == _geometry(live)
    assert len(cold) == (1 if layout == "central" else 2)


def test_summed_report_keeps_the_damage_of_every_ring():
    machine = Machine(
        tiny_system(logging=LoggingConfig(log_entries=128, distributed_logs=2)), FWB
    )
    pm = PersistentMemory(machine)
    slots = [pm.heap.alloc(8) for _ in range(2)]
    durables = []
    for tid in range(2):
        api = pm.api(tid, tid)
        api.tx_begin()
        api.write(slots[tid], word(tid + 41))
        durables.append(api.tx_commit())
    machine.crash(at_time=max(durables))
    # Tear ring 1's newest entry (its COMMIT record) the way an in-flight
    # write does: a fragment of another record persists over it.
    ring = machine.logs[1]
    fragment = LogRecord(RecordKind.DATA, 0x3FF, 1, 0x7000, b"T" * 8, b"T" * 8)
    machine.nvram.poke(
        ring.entry_addr(ring.tail - 1), fragment.encode(ring.entry_size)[:8]
    )
    report = recover_image(machine.nvram, machine.config)
    assert report.torn_records_skipped == 1
    assert report.committed_instances == 1
    assert report.uncommitted_instances == 1
    assert report.records_scanned == 128
    assert machine.nvram.read(slots[0], 8) == word(41)
    assert machine.nvram.read(slots[1], 8) == bytes(8)


def test_two_ring_campaign_recovers_every_ring():
    result = run_fault_campaign(workload="hash", threads=2, points=30, system=TWO_RINGS)
    assert [len(report.points) for report in result.reports] == [30] * 4
    assert [len(report.violations) for report in result.reports] == [0] * 4
    assert result.passed


def test_two_ring_campaign_fails_only_torn_retire_points():
    """What is left on two rings is the torn-retire fault model's, not
    recovery's: no untorn point and no mid-recovery point fails."""
    result = run_fault_campaign(
        workload="rbtree", threads=2, points=30, system=TWO_RINGS
    )
    failing = [v.point for report in result.reports for v in report.violations]
    assert all(
        point.kind is EventKind.RETIRE and point.fault == FAULT_TORN
        for point in failing
    ), [point.label for point in failing]
