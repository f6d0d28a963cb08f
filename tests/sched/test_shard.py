"""ShardMachine semantics: horizons, run-state isolation, serve queue."""

import dataclasses

import pytest

from repro.core.design import DESIGNS
from repro.errors import WorkloadError
from repro.faults.campaign import campaign_workload, default_campaign_system
from repro.harness.runner import (
    RunConfig,
    batch_shard,
    build_run,
    prepare_workload,
    run_workload_monolithic,
)
from repro.sched.shard import ShardMachine
from repro.workloads.whisper import make_whisper_kernel
from tests.conftest import tiny_system

FWB = DESIGNS.resolve("fwb")
TXNS = 8


@pytest.fixture(scope="module")
def prepared_redis():
    # redis has real volatile run state (the AOF append cursor), so
    # shard-interleaving bugs that leak state show up in its stats.
    kernel = make_whisper_kernel("redis", seed=2, keys_per_partition=64)
    return prepare_workload(kernel, tiny_system())


def _shard_for(prepared, threads=2):
    run = RunConfig(policy=FWB, threads=threads, system=prepared.system)
    machine, pm, workload = build_run(prepared.workload, run, prepared)
    return ShardMachine(machine, pm, workload, threads=threads)


def _reference_stats(prepared, threads=2):
    run = RunConfig(
        policy=FWB, threads=threads, txns_per_thread=TXNS,
        system=prepared.system,
    )
    outcome = run_workload_monolithic(prepared.workload, run, prepared=prepared)
    stats = dataclasses.asdict(outcome.stats)
    outcome.machine.nvram.recycle()
    return stats


def test_horizon_stepping_reaches_the_same_end_state(prepared_redis):
    """Chopping execution into small until_cycle windows must not change
    a single counter relative to one uninterrupted drain."""
    reference = _reference_stats(prepared_redis)
    shard = _shard_for(prepared_redis)
    shard.start_batch(TXNS)
    horizon = 0.0
    while not shard.done:
        horizon += 150.0
        shard.step(horizon)
    stats = dataclasses.asdict(shard.machine.finalize())
    assert stats == reference
    shard.machine.nvram.recycle()


def test_interleaved_shards_cannot_leak_run_state(prepared_redis):
    """Two shards sharing one workload instance, stepped alternately in
    small windows, must each end bit-identical to a solo run — the
    per-shard run-state checkpoint swap is what isolates them."""
    reference = _reference_stats(prepared_redis)
    shard_a = _shard_for(prepared_redis)
    shard_b = _shard_for(prepared_redis)
    shard_a.start_batch(TXNS)
    shard_b.start_batch(TXNS)
    horizon = 0.0
    while not (shard_a.done and shard_b.done):
        horizon += 97.0
        shard_a.step(horizon)
        shard_b.step(horizon)
    stats_a = dataclasses.asdict(shard_a.machine.finalize())
    stats_b = dataclasses.asdict(shard_b.machine.finalize())
    assert stats_a == reference
    assert stats_b == reference
    shard_a.machine.nvram.recycle()
    shard_b.machine.nvram.recycle()


def test_step_counts_generator_advances(prepared_redis):
    shard = _shard_for(prepared_redis)
    shard.start_batch(2)
    total = shard.step(None)
    assert total > 0 and shard.done
    assert shard.step(None) == 0  # idempotent once drained
    shard.machine.nvram.recycle()


def test_too_many_threads_rejected(prepared_redis):
    with pytest.raises(WorkloadError):
        _shard_for(prepared_redis, threads=3)  # tiny system has 2 cores


def test_step_before_start_rejected(prepared_redis):
    shard = _shard_for(prepared_redis)
    with pytest.raises(WorkloadError):
        shard.step(None)
    shard.machine.nvram.recycle()


def test_inject_requires_serve_mode(prepared_redis):
    shard = _shard_for(prepared_redis)
    shard.start_batch(1)
    with pytest.raises(WorkloadError):
        shard.inject(object())
    shard.machine.nvram.recycle()


def test_double_start_rejected(prepared_redis):
    shard = _shard_for(prepared_redis)
    shard.start_batch(1)
    with pytest.raises(WorkloadError):
        shard.start_serve()
    shard.machine.nvram.recycle()


def test_switch_reprices_drive_order_to_the_barrier():
    """After a horizon step and ``switch_design`` every core sits at the
    barrier, so thread 0 advances next even where thread 1 lagged before
    the barrier — the order serve, the switch campaign and the
    ``adapt-switch`` suite all run."""
    workload = campaign_workload("hash", 7)
    body = workload.thread_body
    advanced = []

    def logged(api, tid, txns):
        for _ in body(api, tid, txns):
            advanced.append(tid)
            yield

    workload.thread_body = logged
    prepared = prepare_workload(workload, default_campaign_system())
    run = RunConfig(
        policy="hw+undo+redo+nowb", threads=2, txns_per_thread=24,
        system=prepared.system,
    )
    shard = batch_shard(workload, run, prepared)
    machine = shard.machine
    horizon = 0.0
    while not machine.core_time(1) < machine.core_time(0):
        horizon += 50.0
        shard.step(horizon)
        assert not shard.done
    barrier = shard.switch_design(DESIGNS.resolve("hw+undo+redo+clwb"))
    assert [machine.core_time(tid) for tid in range(2)] == [barrier, barrier]
    taken = len(advanced)
    shard.drain()
    assert advanced[taken] == 0
    machine.nvram.recycle()
