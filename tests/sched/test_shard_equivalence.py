"""Differential gate: the steppable-shard runner is the old runner.

``run_workload`` is now a thin adapter draining a single
:class:`~repro.sched.shard.ShardMachine`; ``run_workload_monolithic``
(``tests/reference_runner.py``) is the pre-refactor loop, kept verbatim
as the reference.  These tests demand **bit-identical** cost
counters between the two across the full microbenchmark x canonical
design matrix at 1, 2 and 4 threads — any drift means the shard's step
loop no longer replicates the historical heap order.

(The golden-fixture suite in ``test_design_equivalence.py`` separately
pins ``run_workload`` — i.e. the shard path — to digests captured
before this refactor existed.)
"""

import dataclasses

import pytest

from repro.core.design import CANONICAL_DESIGNS
from repro.harness.runner import (
    RunConfig,
    prepare_workload,
    run_workload,
)
from repro.sim.config import NVDimmConfig
from repro.workloads import MICROBENCHMARKS, make_microbenchmark
from tests.conftest import tiny_system
from tests.reference_runner import run_workload_monolithic

TXNS = 10


@pytest.fixture(scope="module")
def system():
    # 4 cores for the 4-thread column; NVRAM large enough for every
    # microbenchmark's default footprint (ssca2 outgrows the 4 MB tiny
    # device).
    return tiny_system(
        num_cores=4, nvram=NVDimmConfig(size_bytes=16 * 1024 * 1024)
    )


@pytest.fixture(scope="module", params=sorted(MICROBENCHMARKS), ids=str)
def prepared(request, system):
    return prepare_workload(make_microbenchmark(request.param), system)


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("design", CANONICAL_DESIGNS, ids=lambda d: d.name)
def test_scheduler_matches_monolithic_bit_for_bit(prepared, design, threads):
    run = RunConfig(
        policy=design, threads=threads, txns_per_thread=TXNS,
        system=prepared.system,
    )
    fresh = prepared.workload
    sched_outcome = run_workload(fresh, run, prepared=prepared)
    mono_outcome = run_workload_monolithic(fresh, run, prepared=prepared)
    try:
        assert dataclasses.asdict(sched_outcome.stats) == dataclasses.asdict(
            mono_outcome.stats
        )
        assert bytes(sched_outcome.machine.nvram.image) == bytes(
            mono_outcome.machine.nvram.image
        )
    finally:
        sched_outcome.machine.nvram.recycle()
        mono_outcome.machine.nvram.recycle()
