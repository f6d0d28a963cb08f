"""Golden fixture for the interpreted run's tracer event stream.

``tests/data/tracer_stream_golden.json`` pins, per case, the number of
events an interpreted run emits and the sha256 of their
``(time, kind, core, sorted detail)`` tuples, in emission order.  The
cases are hash and btree (``campaign_workload(..., 7)``) on
``default_campaign_system()``, 2 threads x 60 transactions, seed 11, under
each of the eight canonical designs.

``tests/sim/test_replay.py`` compares the interpreter with replay inside
one tree, so it cannot see an event order that moves on both; this
fixture can.  The btree hwl/fwb streams must contain ``log_wrap_force``
and fwb's must contain ``fwb_scan``, so the golden cannot pass over
streams that lost those events.

Regenerate (only for an intended behaviour change) with
``PYTHONPATH=src python -m tests.sim.test_tracer_stream_golden``.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.core.design import CANONICAL_DESIGNS
from repro.faults.campaign import campaign_workload, default_campaign_system
from repro.harness.runner import RunConfig, prepare_workload, run_workload
from repro.sim.trace import Tracer

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "tracer_stream_golden.json"

WORKLOADS = ("hash", "btree")
THREADS = 2
TXNS = 60
SEED = 11

#: Event kinds each case's stream must contain.
REQUIRED_KINDS = {
    "btree/hwl": ("log_wrap_force",),
    "btree/fwb": ("log_wrap_force", "fwb_scan"),
}


def stream_digest(prepared, design) -> dict:
    """Event count, per-kind counts and sha256 of one interpreted run."""
    digest = hashlib.sha256()
    kinds: Counter = Counter()

    def listen(event) -> None:
        kinds[event.kind] += 1
        item = (event.time, event.kind, event.core, tuple(sorted(event.detail.items())))
        digest.update(repr(item).encode())
        digest.update(b"\n")

    def hook(machine) -> None:
        tracer = Tracer(capacity=1)
        tracer.subscribe(listen)
        machine.tracer = tracer

    run = RunConfig(
        policy=design,
        threads=THREADS,
        txns_per_thread=TXNS,
        system=prepared.system,
        seed=SEED,
    )
    run_workload(prepared.workload, run, prepared=prepared, machine_hook=hook)
    return {
        "events": sum(kinds.values()),
        "kinds": dict(sorted(kinds.items())),
        "sha256": digest.hexdigest(),
    }


def prepare_all() -> dict:
    """The prepared campaign workload of every case, by name."""
    system = default_campaign_system()
    return {name: prepare_workload(campaign_workload(name, 7), system) for name in WORKLOADS}


def all_digests() -> dict:
    """Every case, keyed ``"<workload>/<design>"``."""
    return {
        f"{name}/{design.name}": stream_digest(prepared, design)
        for name, prepared in prepare_all().items()
        for design in CANONICAL_DESIGNS
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def prepared_by_name():
    return prepare_all()


def test_golden_covers_every_case(golden):
    expected = {f"{name}/{design.name}" for name in WORKLOADS for design in CANONICAL_DESIGNS}
    assert set(golden) == expected
    for case, kinds in REQUIRED_KINDS.items():
        for kind in kinds:
            assert golden[case]["kinds"].get(kind, 0) > 0, (case, kind)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("design", CANONICAL_DESIGNS, ids=lambda d: d.name)
def test_tracer_stream_matches_golden(golden, prepared_by_name, workload, design):
    case = f"{workload}/{design.name}"
    got = stream_digest(prepared_by_name[workload], design)
    for kind in REQUIRED_KINDS.get(case, ()):
        assert got["kinds"].get(kind, 0) > 0, (case, kind)
    assert got == golden[case]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
