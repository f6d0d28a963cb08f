"""Crash-consistency integration tests on real workloads.

The property tests (tests/properties) cover synthetic transaction mixes;
here the hash microbenchmark runs under each guaranteed design, the
machine crashes at randomized instants, and recovery must reproduce the
golden committed state.  A final test demonstrates that ``unsafe-base``
earns its name.
"""

import random

import pytest

from repro import Machine, PersistentMemory, RecoveryManager
from repro.core.design import FWB, HWL, REDO_CLWB, UNDO_CLWB, UNSAFE_BASE
from repro.sim.config import LoggingConfig
from repro.workloads.hashtable import HashTableWorkload
from tests.conftest import tiny_system, word

GUARANTEED = [FWB, HWL, UNDO_CLWB, REDO_CLWB]


def run_crash_trial(policy, seed, crash_fraction, threads=1, log_entries=128):
    system = tiny_system(logging=LoggingConfig(log_entries=log_entries))
    machine = Machine(system, policy)
    pm = PersistentMemory(machine)
    workload = HashTableWorkload(
        seed=seed, buckets_per_partition=16, keys_per_partition=64
    )
    workload.setup(pm)
    generators = [
        workload.thread_body(pm.api(tid, tid), tid, 60) for tid in range(threads)
    ]
    done = [False] * threads
    while not all(done):
        for tid, gen in enumerate(generators):
            if not done[tid]:
                try:
                    next(gen)
                except StopIteration:
                    done[tid] = True
    horizon = max(
        max(machine.core_time(t) for t in range(threads)),
        max((t for t, _ in pm.golden.commits), default=0.0),
    )
    crash_time = horizon * crash_fraction
    machine.crash(at_time=crash_time)
    RecoveryManager(machine.nvram, machine.log).recover()
    expected = pm.golden.expected_at(crash_time)
    mismatches = []
    for addr in pm.golden.touched_addresses():
        want = expected.get(addr)
        if want is None:
            continue  # written only by post-crash transactions
        got = machine.nvram.peek(addr, len(want))
        if got != want:
            mismatches.append((addr, got, want))
    return mismatches


@pytest.mark.parametrize("policy", GUARANTEED, ids=lambda p: p.value)
@pytest.mark.parametrize("fraction", [0.15, 0.5, 0.9])
def test_workload_crash_consistency(policy, fraction):
    assert run_crash_trial(policy, seed=7, crash_fraction=fraction) == []


@pytest.mark.parametrize("policy", [FWB, HWL], ids=lambda p: p.value)
def test_multithreaded_crash_consistency(policy):
    assert run_crash_trial(policy, seed=11, crash_fraction=0.6, threads=2) == []


@pytest.mark.parametrize("policy", GUARANTEED, ids=lambda p: p.value)
def test_crash_consistency_under_log_wrap(policy):
    assert (
        run_crash_trial(policy, seed=13, crash_fraction=0.7, log_entries=32) == []
    )


def test_unsafe_base_violates_consistency_somewhere():
    """unsafe-base offers no guarantee: across many crash points some
    committed transaction must be lost or some partial state leak through
    (this is exactly why the paper calls the configuration "unsafe")."""
    violations = 0
    for seed in range(6):
        rng = random.Random(seed)
        mismatches = run_crash_trial(
            UNSAFE_BASE, seed=seed, crash_fraction=0.3 + 0.1 * rng.random()
        )
        violations += bool(mismatches)
    assert violations > 0


def test_recovered_image_is_reusable():
    """After recovery the log is reset and a new machine can keep going
    from the recovered image."""
    system = tiny_system()
    machine = Machine(system, FWB)
    pm = PersistentMemory(machine)
    api = pm.api(0)
    addr = pm.heap.alloc(8)
    pm.setup_write(addr, word(0))
    with api.transaction():
        api.write(addr, word(41))
    durable = pm.golden.commits[-1][0]
    machine.crash(at_time=durable)
    RecoveryManager(machine.nvram, machine.log).recover()
    image = bytes(machine.nvram.image)

    restarted = Machine(system, FWB)
    restarted.nvram.image[:] = image
    pm2 = PersistentMemory(restarted)
    api2 = pm2.api(0)
    assert api2.read(addr, 8) == word(41)
    api2.tx_begin()
    api2.write(addr, word(42))
    api2.tx_commit()
    assert api2.read(addr, 8) == word(42)
