"""Golden fixture for replicated serving: reports and replica rings.

``tests/data/serve_replication_golden.json`` holds, per case, the
:meth:`ServeReport.digest`, the sha256 of every primary shard's full
NVRAM image and the sha256 of every replica's full NVRAM image
(mirrored heap plus log ring) at the end of the run.  It pins the whole
persist and replication path — what each primary wrote to its device,
which records ship, in which order, the bytes each replica ring holds
and what compaction folded into the mirrored heap — so a change to how
records are placed, written, collected or applied must leave every bit
where it was.  The ``memcached-overload`` case offers more than the
shards can take: admission refuses requests and the rings compact
many times.

Regenerate (only for an intended behaviour change) with
``PYTHONPATH=src python -m tests.sched.test_serve_golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.sched import replicate, serve
from repro.sched.loop import AdmissionConfig
from repro.sched.serve import ServeConfig
from repro.sched.traffic import TrafficConfig

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "serve_replication_golden.json"


def _cases() -> dict:
    cases = {}
    for workload in ("memcached", "redis", "ycsb"):
        for design in ("fwb", "hwl", "redo-clwb"):
            cases[f"{workload}|{design}"] = ServeConfig(
                workload=workload,
                policy=design,
                shards=2,
                threads=2,
                replicas=1,
                traffic=TrafficConfig(requests=256, rate=0.002, seed=42),
            )
    # The CI serve-smoke redis burst scenario, with two replicas.
    cases["redis-burst|fwb|r2"] = ServeConfig(
        workload="redis",
        shards=2,
        threads=2,
        replicas=2,
        ring_records=128,
        traffic=TrafficConfig(
            requests=192, rate=0.01, arrival="burst", burst_size=24, seed=42
        ),
        admission=AdmissionConfig(max_queue_depth=16),
    )
    # Past the knee: the default admission depth refuses requests.
    cases["memcached-overload|fwb"] = ServeConfig(
        workload="memcached",
        policy="fwb",
        shards=2,
        threads=2,
        replicas=1,
        traffic=TrafficConfig(requests=2048, rate=0.004, seed=42),
    )
    return cases


CASES = _cases()


def run_case(config: ServeConfig) -> dict:
    """Serve ``config``; return its digest and every device image hash."""
    primaries = []
    images = []

    def hook(_shard_id, machine) -> None:
        # run_serve recycles each shard's device, in shard order, once
        # its report is built: hash the image just before.
        nvram = machine.nvram

        def recycle() -> None:
            primaries.append(hashlib.sha256(nvram.image).hexdigest())
            type(nvram).recycle(nvram)

        nvram.recycle = recycle

    class Recording(replicate.ShardReplicator):
        def release(self) -> None:
            # run_serve releases each shard's replicator, in shard order,
            # once its report is built: the images' last readable state.
            for node in self.nodes:
                images.append(hashlib.sha256(node.nvram.image).hexdigest())
            super().release()

    original = serve.ShardReplicator
    serve.ShardReplicator = Recording
    try:
        report = serve.run_serve(config, machine_hook=hook)
    finally:
        serve.ShardReplicator = original
    return {
        "digest": report.digest(),
        "primary_images": primaries,
        "replica_images": images,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_serve_replication_bit_identical(golden, case):
    assert run_case(CASES[case]) == golden["cases"][case]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    payload = {
        "description": (
            "Replicated serve runs: ServeReport.digest(), the sha256 of "
            "every primary shard NVRAM image (shard order) and of every "
            "replica NVRAM image (shard-major, replica-minor) per case. "
            "memcached/redis/ycsb x fwb/hwl/redo-clwb are 2 shards x 2 "
            "threads, 1 replica, 256 Poisson requests at 0.002 req/cycle, "
            "seed 42; redis-burst is the CI serve-smoke burst scenario with "
            "2 replicas; memcached-overload is 2,048 Poisson requests at "
            "0.004 req/cycle under fwb, past the admission knee."
        ),
        "cases": {name: run_case(config) for name, config in sorted(CASES.items())},
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
