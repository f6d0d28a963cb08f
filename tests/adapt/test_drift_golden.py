"""Golden fixture for drift scenarios: whole reports, byte for byte.

``tests/data/drift_golden.json`` holds the sha256 of the canonical JSON
(sorted keys, compact separators) of three drift reports: the default
:func:`compare_drift` (adaptive run plus every static baseline), a
one-thread compare at another seed and controller window, and a static
two-shard :func:`run_drift`.  A report carries total cycles, completion
counts, cost counters, final designs and the controller's decision log,
so a change to how drift scenarios are driven must leave every one of
them where it was.

Regenerate (only for an intended behaviour change) with
``PYTHONPATH=src python -m tests.adapt.test_drift_golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.adapt import DriftConfig, compare_drift, run_drift

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "drift_golden.json"

CASES = {
    "compare-default": lambda: compare_drift(DriftConfig()),
    "compare-t1-seed3-w8": lambda: compare_drift(
        DriftConfig(threads=1, seed=3, window_txns=8)
    ),
    "static-2shard": lambda: run_drift(DriftConfig(shards=2)),
}


def digest(report: dict) -> str:
    """sha256 of the report's canonical JSON."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_drift_report_identical(golden, case):
    assert digest(CASES[case]()) == golden["cases"][case]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    payload = {
        "description": (
            "sha256 of json.dumps(report, sort_keys=True, "
            "separators=(',', ':')) per drift case"
        ),
        "cases": {case: digest(run()) for case, run in sorted(CASES.items())},
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
