"""Golden fixture for serving: reports, primary images and replica rings.

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
many times.  The ``memcached-1shard`` and two ``ycsb-adaptive`` cases
are CI's unreplicated serve runs at its exact arguments (the latter
under the built-in table and under the table ``repro adapt train
--benchmarks hash,sps --txns 60`` writes), so a report that differs
between two processes fails here.

Regenerate (only for an intended behaviour change) with
``PYTHONPATH=src python -m tests.sched.test_serve_golden``.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache, partial
from pathlib import Path

import pytest

from repro.adapt import PolicyTable, default_policy_table, train_policy_table
from repro.sched import replicate, serve
from repro.sched.loop import AdmissionConfig
from repro.sched.serve import ServeConfig
from repro.sched.traffic import TrafficConfig

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "serve_replication_golden.json"


def _trained_table() -> PolicyTable:
    """``adapt train --benchmarks hash,sps --txns 60``'s table, read back
    from its JSON as ``serve --policy-table`` reads it."""
    table = train_policy_table(benchmarks=("hash", "sps"), txns_per_thread=60)
    return PolicyTable.from_json(table.to_json())


def _cases() -> dict:
    """Case name -> zero-argument factory of its :class:`ServeConfig`."""
    cases = {}
    for workload in ("memcached", "redis", "ycsb"):
        for design in ("fwb", "hwl", "redo-clwb"):
            cases[f"{workload}|{design}"] = partial(
                ServeConfig,
                workload=workload,
                policy=design,
                shards=2,
                threads=2,
                replicas=1,
                traffic=TrafficConfig(requests=256, rate=0.002, seed=42),
            )
    # CI's redis burst scenario, with two replicas.
    cases["redis-burst|fwb|r2"] = partial(
        ServeConfig,
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
    cases["memcached-overload|fwb"] = partial(
        ServeConfig,
        workload="memcached",
        policy="fwb",
        shards=2,
        threads=2,
        replicas=1,
        traffic=TrafficConfig(requests=2048, rate=0.004, seed=42),
    )
    # `serve --workload memcached --shards 1 --requests 128`.
    cases["memcached-1shard|fwb"] = partial(
        ServeConfig, workload="memcached", traffic=TrafficConfig(requests=128)
    )
    # `serve --workload ycsb --adaptive --requests 200`.
    cases["ycsb-adaptive|builtin"] = partial(
        ServeConfig,
        workload="ycsb",
        traffic=TrafficConfig(requests=200),
        policy_table=default_policy_table(),
    )
    # `serve --workload ycsb --requests 200 --policy-table <trained>`.
    cases["ycsb-adaptive|trained"] = lambda: ServeConfig(
        workload="ycsb",
        traffic=TrafficConfig(requests=200),
        policy_table=_trained_table(),
    )
    return cases


CASES = _cases()


@lru_cache(maxsize=None)
def served(case: str) -> tuple:
    """Serve ``case`` once per process; return its report and its golden
    entry: the report digest and every device image hash."""
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
        report = serve.run_serve(CASES[case](), machine_hook=hook)
    finally:
        serve.ShardReplicator = original
    return report, {
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
    assert served(case)[1] == golden["cases"][case]


def test_overload_refuses_and_accounts_for_every_request():
    report = served("memcached-overload|fwb")[0]
    assert report.rejected > 0
    assert report.offered == report.admitted + report.rejected
    assert report.completed == report.admitted


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    payload = {
        "description": (
            "Serve runs: ServeReport.digest(), the sha256 of "
            "every primary shard NVRAM image (shard order) and of every "
            "replica NVRAM image (shard-major, replica-minor) per case. "
            "memcached/redis/ycsb x fwb/hwl/redo-clwb are 2 shards x 2 "
            "threads, 1 replica, 256 Poisson requests at 0.002 req/cycle, "
            "seed 42; redis-burst is CI's burst serve scenario with 2 "
            "replicas; memcached-overload is 2,048 Poisson requests at "
            "0.004 req/cycle under fwb, past the admission knee. "
            "memcached-1shard and ycsb-adaptive are unreplicated 1-shard "
            "runs at 0.002 req/cycle, seed 42: 128 requests under fwb, and "
            "200 requests under the built-in and a trained policy table."
        ),
        "cases": {case: served(case)[1] for case in sorted(CASES)},
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
