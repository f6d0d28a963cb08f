"""Golden fixture for the crash campaigns: every point, every verdict.

``tests/data/campaign_golden.json`` pins, for :func:`run_fault_campaign`
at its defaults on hash, btree and rbtree over the four guaranteed
designs, one row per crash point: design, point label, whether the
crash triggered, ``repr`` of the crash instant, mismatches, torn records
skipped, checksum failures, whether the fault was applied, and whether
recovery converged.  The crash instant depends on the order in which
threads advance, so the fixture pins drive order; it records the known
torn-retire violations as they stand rather than judging recovery.

For :func:`run_switch_campaign` only the rendered verdict tables are
pinned (default size, 48 txns/thread, and sps at 32 txns/thread): the
switch instants are not part of the contract, the verdicts are.

Regenerate (only for an intended behaviour change) with
``PYTHONPATH=src python -m tests.integration.test_campaign_golden``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.adapt.faults import run_switch_campaign
from repro.faults import GUARANTEED_POLICIES, run_fault_campaign

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "campaign_golden.json"

FAULT_WORKLOADS = ("hash", "btree", "rbtree")

SWITCH_CASES = {
    "default": {},
    "txns48": {"txns_per_thread": 48},
    "sps-txns32": {"workload": "sps", "txns_per_thread": 32},
}


def fault_rows(workload: str) -> list:
    """One space-separated row per crash point of the default campaign."""
    result = run_fault_campaign(GUARANTEED_POLICIES, workload=workload)
    return [
        f"{report.policy.value} {point.point.label} {point.triggered} "
        f"{point.crash_time!r} {point.mismatches} {point.torn_records_skipped} "
        f"{point.checksum_failures} {point.fault_applied} {point.converged}"
        for report in result.reports
        for point in report.points
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("workload", FAULT_WORKLOADS)
def test_fault_campaign_points_identical(golden, workload):
    assert fault_rows(workload) == golden["fault"][workload]


@pytest.mark.parametrize("case", sorted(SWITCH_CASES))
def test_switch_campaign_table_identical(golden, case):
    rendered = run_switch_campaign(**SWITCH_CASES[case]).rendered
    assert rendered.splitlines() == golden["switch"][case]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    payload = {
        "description": (
            "run_fault_campaign defaults (60 points, 60 txns, 1 thread, "
            "seed 7) over the four guaranteed designs, one row per point: "
            "design label triggered repr(crash_time) mismatches "
            "torn_records_skipped checksum_failures fault_applied "
            "converged. run_switch_campaign verdict tables, one entry per "
            "line."
        ),
        "fault": {workload: fault_rows(workload) for workload in FAULT_WORKLOADS},
        "switch": {
            case: run_switch_campaign(**kwargs).rendered.splitlines()
            for case, kwargs in sorted(SWITCH_CASES.items())
        },
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
