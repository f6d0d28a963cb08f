"""The volatile run-state checkpoint contract, over all ten kernels.

``Workload.run_state()`` / ``restore_run_state()`` is what lets many
shards share one workload instance while being stepped in interleaved
windows: anything host-side a thread body mutates (append cursors,
inode rotors) is checkpointed per shard and swapped in around every
step.  These tests pin the contract for every WHISPER kernel:

* ``restore_run_state(run_state())`` is an identity;
* ``reset_run_state()`` followed by ``run_state()`` reproduces the
  baseline checkpoint;
* interleaving two machines over one shared instance — stepping each in
  small alternating windows with the checkpoint swap — leaves both
  bit-identical to an uninterrupted solo run (the per-request isolation
  guarantee behind ``repro serve``).
"""

import dataclasses

import pytest

from repro.core.design import DESIGNS
from repro.errors import WorkloadError
from repro.harness.runner import (
    RunConfig,
    prepare_workload,
    run_workload_monolithic,
)
from repro.sched.shard import ShardMachine
from repro.sim.machine import Machine
from repro.txn.runtime import PersistentMemory
from repro.workloads.whisper import WHISPER_KERNELS, make_whisper_kernel
from tests.conftest import tiny_system

FWB = DESIGNS.resolve("fwb")
TXNS = 6

SMALL_KW = {
    "ctree": dict(keys_per_partition=64),
    "hashmap": dict(keys_per_partition=64),
    "echo": dict(keys_per_partition=64),
    "exim": dict(spool_slots=64),
    "memcached": dict(keys_per_partition=64),
    "nfs": dict(files_per_partition=64),
    "redis": dict(keys_per_partition=64),
    "tpcc": dict(items_per_partition=64),
    "vacation": dict(records_per_table=64),
    "ycsb": dict(keys_per_partition=64),
}

#: Kernels whose thread bodies mutate host-side state between yields —
#: the ones a broken checkpoint swap would actually corrupt.
STATEFUL = ("echo", "exim", "nfs", "redis", "tpcc", "vacation")


@pytest.fixture(scope="module", params=sorted(WHISPER_KERNELS), ids=str)
def prepared(request):
    kernel = make_whisper_kernel(request.param, seed=2, **SMALL_KW[request.param])
    return prepare_workload(kernel, tiny_system())


def test_restore_of_own_checkpoint_is_identity(prepared):
    workload = prepared.workload
    workload.reset_run_state()
    baseline = workload.run_state()
    workload.restore_run_state(baseline)
    assert workload.run_state() == baseline


def test_reset_reproduces_the_baseline_checkpoint(prepared):
    workload = prepared.workload
    workload.reset_run_state()
    baseline = workload.run_state()
    # Dirty the volatile state by running a few transactions...
    run = RunConfig(
        policy=FWB, threads=1, txns_per_thread=TXNS, system=prepared.system
    )
    outcome = run_workload_monolithic(workload, run, prepared=prepared)
    outcome.machine.nvram.recycle()
    # ...then reset must land back on the same checkpoint.
    workload.reset_run_state()
    assert workload.run_state() == baseline


def test_stateful_kernels_expose_nonempty_checkpoints():
    for name in STATEFUL:
        kernel = make_whisper_kernel(name, seed=2, **SMALL_KW[name])
        kernel.reset_run_state()
        assert kernel.run_state() != (), name


def test_stateless_kernels_reject_foreign_checkpoints():
    kernel = make_whisper_kernel("ctree", seed=2, **SMALL_KW["ctree"])
    assert kernel.run_state() == ()
    kernel.restore_run_state(())  # identity is fine
    with pytest.raises(WorkloadError):
        kernel.restore_run_state(("bogus",))


def _shard_for(prepared, threads):
    machine = Machine(prepared.system, FWB)
    pm = PersistentMemory(machine)
    machine.nvram.load_image_prefix(prepared.image_prefix)
    pm.heap.restore(prepared.heap_state)
    workload = prepared.workload
    workload.attach(pm)
    workload.reset_run_state()
    return ShardMachine(machine, pm, workload, threads=threads)


def test_interleaved_stepping_matches_solo_runs(prepared):
    """The per-request checkpoint guarantee: two machines sharing this
    kernel instance, stepped in alternating 90-cycle windows, each end
    with exactly the stats of an uninterrupted run."""
    run = RunConfig(
        policy=FWB, threads=2, txns_per_thread=TXNS, system=prepared.system
    )
    solo = run_workload_monolithic(prepared.workload, run, prepared=prepared)
    reference = dataclasses.asdict(solo.stats)
    solo.machine.nvram.recycle()

    shard_a = _shard_for(prepared, threads=2)
    shard_b = _shard_for(prepared, threads=2)
    shard_a.start_batch(TXNS)
    shard_b.start_batch(TXNS)
    horizon = 0.0
    while not (shard_a.done and shard_b.done):
        horizon += 90.0
        shard_a.step(horizon)
        shard_b.step(horizon)
    try:
        assert dataclasses.asdict(shard_a.machine.finalize()) == reference
        assert dataclasses.asdict(shard_b.machine.finalize()) == reference
    finally:
        shard_a.machine.nvram.recycle()
        shard_b.machine.nvram.recycle()
