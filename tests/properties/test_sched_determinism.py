"""Property-based determinism of the service layer.

Three layers of the same guarantee, at increasing cost:

* an open-loop schedule is a pure function of ``(TrafficConfig,
  num_shards)`` and satisfies its shape invariants for *any* seed,
  rate, and arrival process hypothesis picks;
* a single drained shard is bit-identical to the monolithic runner for
  hypothesis-chosen (benchmark, design, threads, txns) cells — the
  differential gate in ``tests/sched/test_shard_equivalence.py`` covers
  the fixed matrix, this covers the gaps between its grid points;
* a full ``repro serve`` run reproduces its report digest exactly.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.design import DESIGNS, CANONICAL_DESIGNS
from repro.harness.runner import (
    RunConfig,
    prepare_workload,
    run_workload,
)
from repro.sched.serve import ServeConfig, run_serve
from repro.sched.traffic import TrafficConfig, open_loop_schedule
from repro.sim.config import NVDimmConfig
from repro.workloads import make_microbenchmark
from tests.conftest import tiny_system
from tests.reference_runner import run_workload_monolithic

traffic_configs = st.builds(
    TrafficConfig,
    requests=st.integers(0, 64),
    rate=st.sampled_from([0.001, 0.004, 0.02, 0.5]),
    arrival=st.sampled_from(["poisson", "uniform", "burst"]),
    burst_size=st.integers(1, 8),
    clients=st.integers(1, 1 << 20),
    seed=st.integers(0, 2**31 - 1),
)


class TestScheduleProperties:
    @given(config=traffic_configs, shards=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_schedule_is_a_pure_function_of_config(self, config, shards):
        assert open_loop_schedule(config, shards) == open_loop_schedule(
            config, shards
        )

    @given(config=traffic_configs, shards=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_shape_invariants(self, config, shards):
        schedule = open_loop_schedule(config, shards)
        assert [r.seq for r in schedule] == list(range(config.requests))
        arrivals = [r.arrival for r in schedule]
        assert arrivals == sorted(arrivals)
        for request in schedule:
            assert 0 <= request.client < config.clients
            assert request.shard == request.client % shards
            assert 0.0 <= request.key_u < 1.0
            assert 0.0 <= request.op_u < 1.0

    @given(config=traffic_configs)
    @settings(max_examples=40, deadline=None)
    def test_different_seeds_differ(self, config):
        if config.requests < 8:
            return  # too short to distinguish reliably
        other = dataclasses.replace(config, seed=config.seed + 1)
        a = open_loop_schedule(config, 4)
        b = open_loop_schedule(other, 4)
        assert [r.key_u for r in a] != [r.key_u for r in b]


_PREPARED = {}


def _prepared(name):
    if name not in _PREPARED:
        system = tiny_system(nvram=NVDimmConfig(size_bytes=16 * 1024 * 1024))
        _PREPARED[name] = prepare_workload(make_microbenchmark(name), system)
    return _PREPARED[name]


class TestSchedulerEquivalence:
    @given(
        benchmark=st.sampled_from(["hash", "sps", "btree"]),
        design=st.sampled_from(sorted(d.name for d in CANONICAL_DESIGNS)),
        threads=st.integers(1, 2),
        txns=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_single_shard_scheduler_is_the_monolithic_runner(
        self, benchmark, design, threads, txns
    ):
        prepared = _prepared(benchmark)
        run = RunConfig(
            policy=DESIGNS.resolve(design),
            threads=threads,
            txns_per_thread=txns,
            system=prepared.system,
        )
        sched = run_workload(prepared.workload, run, prepared=prepared)
        mono = run_workload_monolithic(prepared.workload, run, prepared=prepared)
        try:
            assert dataclasses.asdict(sched.stats) == dataclasses.asdict(
                mono.stats
            )
            assert bytes(sched.machine.nvram.image) == bytes(
                mono.machine.nvram.image
            )
        finally:
            sched.machine.nvram.recycle()
            mono.machine.nvram.recycle()


class TestServeDeterminism:
    @given(
        seed=st.integers(0, 1000),
        arrival=st.sampled_from(["poisson", "uniform", "burst"]),
    )
    @settings(max_examples=5, deadline=None)
    def test_serve_report_digest_reproduces(self, seed, arrival):
        def go():
            return run_serve(
                ServeConfig(
                    workload="memcached",
                    shards=2,
                    threads=2,
                    traffic=TrafficConfig(
                        requests=12, rate=0.01, arrival=arrival, seed=seed
                    ),
                )
            )

        assert go().digest() == go().digest()
