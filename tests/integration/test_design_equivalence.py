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
from repro.harness.cache import CODE_SALT, stats_to_dict
from repro.harness.sweep import run_micro_sweep

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "design_equivalence_golden.json"

#: The golden each result-cache salt was cut against: sha256 of the
#: canonical JSON of its 80 "digests".  A simulated stat that moves
#: moves the golden, and a warm cache keyed by an unchanged salt would
#: then serve the old numbers.
SALTED_GOLDENS = {
    "sweep-v2": "67e2d2c33ee70439d445e8c97d01129a225c78f6fd17223b449ad7220e3590ac",
    # v3 moved only cells outside the 80 (instant-commit software redo).
    "sweep-v3": "67e2d2c33ee70439d445e8c97d01129a225c78f6fd17223b449ad7220e3590ac",
}


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


def test_code_salt_pins_the_golden(golden):
    blob = json.dumps(golden["digests"], sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert SALTED_GOLDENS.get(CODE_SALT) == digest, (
        "the 80-cell golden moved: bump CODE_SALT and pin the new salt"
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
