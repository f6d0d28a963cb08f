"""Property test: compiled-trace replay == per-op interpretation.

The execution engine (:mod:`repro.sim.replay`) claims replaying a
compiled trace is *bit-identical* to interpreting the workload's
micro-op stream — for every design and thread count.  The structured
microbenchmarks exercise realistic streams; this test attacks the claim
with **randomized** ones: a synthetic workload whose transactions mix
reads, single- and multi-line writes, computes, allocations, pointer
stores and frees in seeded-random order, swept across all eight
canonical designs at 1, 2 and 4 threads.

Any divergence — a missed stall, a dropped log record, a mis-relocated
allocation — shows up as a differing :class:`MachineStats` field; a
log record with the wrong contents, as a differing NVRAM image; a
commit the golden model missed, as differing golden commits.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.design import CANONICAL_DESIGNS
from repro.harness.runner import RunConfig, prepare_workload, run_workload
from repro.sim.replay import compile_trace, run_compiled
from repro.workloads.base import SetupAccessor, Workload
from repro.workloads.rng import thread_rng
from tests.conftest import tiny_system

MAX_PARTITIONS = 4


class RandomOpsWorkload(Workload):
    """Seeded-random accessor-op soup (partitioned, so it compiles to a trace)."""

    name = "randomops"

    def __init__(
        self,
        seed: int = 42,
        value_kind: str = "int",
        words_per_partition: int = 40,
        ops_per_txn: int = 8,
    ) -> None:
        super().__init__(seed, value_kind)
        self.words_per_partition = words_per_partition
        self.ops_per_txn = ops_per_txn
        self._bases: list = []

    def setup(self, pm) -> None:
        acc = SetupAccessor(pm)
        self._bases = []
        for part in range(MAX_PARTITIONS):
            base = pm.heap.alloc(self.words_per_partition * 8)
            acc.write(
                base,
                b"".join(
                    (part * 1000 + i).to_bytes(8, "little")
                    for i in range(self.words_per_partition)
                ),
            )
            self._bases.append(base)

    def thread_body(self, api, tid: int, num_txns: int):
        base = self._bases[tid % MAX_PARTITIONS]
        rng = thread_rng(self.seed, tid)
        live: list = []
        for txn in range(num_txns):
            with api.transaction():
                for _ in range(self.ops_per_txn):
                    roll = rng.random()
                    index = rng.randrange(self.words_per_partition - 4)
                    addr = base + index * 8
                    if roll < 0.25:
                        api.read(addr, 8 * rng.choice((1, 2)))
                    elif roll < 0.50:
                        span = rng.choice((8, 16, 32))
                        # Word values stay below 2**32 (plain data must
                        # never collide with the engine's symbolic
                        # address range).
                        api.write(
                            addr,
                            b"".join(
                                rng.getrandbits(32).to_bytes(8, "little")
                                for _ in range(span // 8)
                            ),
                        )
                    elif roll < 0.62:
                        api.compute(rng.randrange(1, 24))
                    elif roll < 0.72 and live:
                        # Store a heap pointer into the partition array
                        # (exercises symbolic-piece relocation).
                        api.write(addr, live[-1][0].to_bytes(8, "little"))
                    elif roll < 0.88 or not live:
                        size = rng.choice((8, 16, 24, 32))
                        block = api.alloc(size)
                        api.write(block, bytes((txn % 251,)) * size)
                        api.read(block, 8)
                        live.append((block, size))
                    else:
                        block, size = live.pop(rng.randrange(len(live)))
                        api.free(block, size)
            yield


def _stats_dict(outcome) -> dict:
    return dataclasses.asdict(outcome.stats)


class TestReplayEquivalence:
    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=5, deadline=None)
    def test_replay_matches_interpretation(self, seed):
        workload = RandomOpsWorkload(seed=seed)
        system = tiny_system(num_cores=4)
        prepared = prepare_workload(workload, system)
        txns = 3
        for threads in (1, 2, 4):
            trace = compile_trace(prepared, threads, txns)
            for design in CANONICAL_DESIGNS:
                config = RunConfig(
                    policy=design,
                    threads=threads,
                    txns_per_thread=txns,
                    system=system,
                    seed=seed,
                )
                interpreted = run_workload(
                    workload, config, prepared=prepared
                )
                replayed = run_compiled(trace, config)
                cell = f"seed={seed} threads={threads} design={design.value}"
                assert _stats_dict(interpreted) == _stats_dict(replayed), (
                    f"stats drift: {cell}"
                )
                assert (
                    interpreted.machine.nvram.image[:]
                    == replayed.machine.nvram.image[:]
                ), f"NVRAM image drift: {cell}"
                assert interpreted.pm.golden.commits == replayed.pm.golden.commits, (
                    f"golden model drift: {cell}"
                )
