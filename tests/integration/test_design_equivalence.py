"""Golden-fixture equivalence: the mechanism refactor is bit-identical.

``tests/data/design_equivalence_golden.json`` was captured *before* the
eight-member design enum was decomposed into DesignSpec mechanisms, by running the
standard micro sweep (5 benchmarks x 8 designs x {1, 2} threads at
txns_per_thread=40, seed=42) and hashing each cell's canonical
MachineStats JSON.  These tests re-run the same sweep through the
refactored stack and demand the same bits — any drift means a mechanism
predicate or the commit lowering changed observable behavior.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.design import CANONICAL_DESIGNS
from repro.harness.cache import stats_to_dict
from repro.harness.sweep import run_micro_sweep

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "design_equivalence_golden.json"


def stats_digest(stats):
    blob = json.dumps(
        dataclasses.asdict(stats), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def sweep(golden):
    return run_micro_sweep(
        threads=(1, 2), txns_per_thread=golden["txns_per_thread"], seed=42
    )


def test_all_80_cells_bit_identical(golden, sweep):
    assert len(sweep.cells) == len(golden["digests"]) == 80
    mismatched = []
    for cell, stats in sweep.cells.items():
        key = f"{cell.benchmark}|{cell.threads}|{cell.policy.value}"
        if golden["digests"][key] != stats_digest(stats):
            mismatched.append(key)
    assert not mismatched, f"stats drifted for {len(mismatched)} cells: {mismatched}"


@pytest.mark.parametrize("design", CANONICAL_DESIGNS, ids=lambda d: d.name)
def test_hash_1t_full_stats_identical(golden, sweep, design):
    """Field-level comparison for one cell per design, so a drift points
    at the exact counter rather than an opaque digest mismatch."""
    stats = sweep.stats("hash", 1, design)
    expected = golden["full_hash_1t"][design.name]
    actual = json.loads(json.dumps(stats_to_dict(stats)))
    assert actual == expected
