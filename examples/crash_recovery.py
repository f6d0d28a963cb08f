#!/usr/bin/env python3
"""Crash-consistency torture demo: steal but no force, visibly.

Runs a key-value workload under the full design, crashes at many random
instants, and verifies after every recovery that the NVRAM image equals
the committed prefix — then runs the same experiment under
``unsafe-base`` to show why software logging without forced write-backs
earns its name.

Run:  python examples/crash_recovery.py
"""

from __future__ import annotations

import random

from repro import Machine, PersistentMemory, RecoveryManager, SystemConfig
from repro.core.design import FWB, HWL, REDO_CLWB, UNDO_CLWB, UNSAFE_BASE, DesignSpec
from repro.sim.config import LoggingConfig, NVDimmConfig


def trial(policy: DesignSpec, seed: int) -> int:
    """One run + crash + recovery; returns number of corrupted slots."""
    rng = random.Random(seed)
    config = SystemConfig(
        num_cores=1,
        nvram=NVDimmConfig(size_bytes=8 * 1024 * 1024),
        logging=LoggingConfig(log_entries=128),  # small: wraps constantly
    )
    machine = Machine(config, policy)
    pm = PersistentMemory(machine)
    api = pm.api(0)
    slots = [pm.heap.alloc(8) for _ in range(16)]
    for addr in slots:
        pm.setup_write(addr, (0).to_bytes(8, "little"))

    for value in range(1, 81):
        with api.transaction():
            addr = slots[rng.randrange(16)]
            api.write(addr, value.to_bytes(8, "little"))
            api.compute(12)

    crash_time = rng.uniform(0, machine.core_time(0))
    machine.crash(at_time=crash_time)
    RecoveryManager(machine.nvram, machine.log).recover()

    expected = pm.golden.expected_at(crash_time)
    corrupted = 0
    for addr in slots:
        want = expected.get(addr, (0).to_bytes(8, "little"))
        if machine.nvram.peek(addr, 8) != want:
            corrupted += 1
    return corrupted


def main() -> None:
    trials = 40
    print(f"{trials} random-crash trials per design "
          "(128-entry log, wraps many times per run)\n")
    for policy in (FWB, HWL, UNDO_CLWB, REDO_CLWB,
                   UNSAFE_BASE):
        failures = sum(1 for seed in range(trials) if trial(policy, seed) > 0)
        verdict = "consistent" if failures == 0 else f"{failures} CORRUPTED runs"
        guarantee = "guaranteed" if policy.persistence_guaranteed else "no guarantee"
        print(f"{policy.value:12s} ({guarantee:12s}): {verdict}")
    print("\nThe guaranteed designs survive every crash point; unsafe-base "
          "does not — which is exactly the paper's Figure 2 argument.")


if __name__ == "__main__":
    main()
