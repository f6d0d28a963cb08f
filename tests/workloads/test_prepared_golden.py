"""Golden fixture for prepared workload images.

``tests/data/prepared_image_golden.json`` holds, per workload, the sha256
of the prepared ``image_prefix``, its length and the sha256 of
``repr(heap_state)`` — everything :func:`repro.harness.runner.build_run`
restores from a :class:`~repro.harness.runner.PreparedWorkload`.  Each
workload is prepared on the system its callers use: the sweep and
Figure 10 configuration for the microbenchmarks and WHISPER kernels, the
serve shard for the request-shaped kernels, and the campaign machine for
the crash-campaign workloads.  A change to how set-up touches memory
must leave every byte where it was.

Regenerate (only for an intended behaviour change) with
``PYTHONPATH=src python -m tests.workloads.test_prepared_golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.faults.campaign import campaign_workload, default_campaign_system
from repro.harness.runner import default_experiment_config, prepare_workload
from repro.sched.serve import default_serve_config
from repro.workloads import MICROBENCHMARKS, make_microbenchmark
from repro.workloads.whisper import WHISPER_KERNELS, make_whisper_kernel

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "prepared_image_golden.json"

#: Seeds the callers use: the sweep and serve default and the campaign's.
SWEEP_SEED = 42
CAMPAIGN_SEED = 7


def _cases() -> dict:
    cases = {}
    for name in MICROBENCHMARKS:
        for kind in ("int", "string"):
            cases[f"micro|{name}|{kind}"] = (
                lambda name=name, kind=kind: make_microbenchmark(
                    name, seed=SWEEP_SEED, value_kind=kind
                ),
                default_experiment_config,
            )
    for name in WHISPER_KERNELS:
        cases[f"whisper|{name}"] = (
            lambda name=name: make_whisper_kernel(name, seed=SWEEP_SEED),
            default_experiment_config,
        )
    for name in ("memcached", "redis", "ycsb"):
        cases[f"serve|{name}"] = (
            lambda name=name: make_whisper_kernel(name, seed=SWEEP_SEED),
            lambda: default_serve_config(2),
        )
    for name in ("hash", "btree", "rbtree"):
        cases[f"campaign|{name}"] = (
            lambda name=name: campaign_workload(name, CAMPAIGN_SEED),
            default_campaign_system,
        )
    return cases


CASES = _cases()


def run_case(case: str) -> dict:
    """Prepare ``case``; return its image and heap digests."""
    make_workload, make_system = CASES[case]
    prepared = prepare_workload(make_workload(), make_system())
    prefix = prepared.image_prefix
    return {
        "image_sha256": hashlib.sha256(prefix).hexdigest(),
        "prefix_len": len(prefix),
        "heap_sha256": hashlib.sha256(repr(prepared.heap_state).encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_prepared_image_bit_identical(golden, case):
    assert run_case(case) == golden["cases"][case]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    payload = {
        "description": (
            "prepare_workload output per workload: sha256 and length of "
            "image_prefix and sha256 of repr(heap_state). micro|* and "
            "whisper|* at default_experiment_config(), seed 42; serve|* at "
            "default_serve_config(2), seed 42; campaign|* are "
            "campaign_workload(name, 7) at default_campaign_system()."
        ),
        "cases": {case: run_case(case) for case in sorted(CASES)},
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
