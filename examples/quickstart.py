#!/usr/bin/env python3
"""Quickstart: persistent transactions under hardware undo+redo logging.

Builds a machine with the paper's full design (``fwb`` — Hardware Logging
plus cache Force Write-Back), runs a few persistent transactions through
the public API, then crashes the machine at a random instant and recovers
the NVRAM image from the circular log.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro import Machine, PersistentMemory, SystemConfig, recover_image
from repro.core.design import FWB
from repro.sim.config import LoggingConfig, NVDimmConfig


def main() -> None:
    # A modest machine: Table II latencies, 8 MB NVRAM, 1K-entry log.
    config = SystemConfig(
        num_cores=2,
        nvram=NVDimmConfig(size_bytes=8 * 1024 * 1024),
        logging=LoggingConfig(log_entries=1024),
    )
    machine = Machine(config, FWB)
    pm = PersistentMemory(machine)
    api = pm.api(core_id=0)

    # A tiny persistent "account table".
    accounts = [pm.heap.alloc(8) for _ in range(4)]
    for addr in accounts:
        pm.setup_write(addr, (100).to_bytes(8, "little"))

    # Transfer money between accounts, transactionally.
    rng = random.Random(1)
    for _ in range(50):
        src, dst = rng.sample(range(4), 2)
        with api.transaction():
            balance_src = int.from_bytes(api.read(accounts[src], 8), "little")
            balance_dst = int.from_bytes(api.read(accounts[dst], 8), "little")
            amount = rng.randint(1, 10)
            api.write(accounts[src], (balance_src - amount).to_bytes(8, "little"))
            api.write(accounts[dst], (balance_dst + amount).to_bytes(8, "little"))
            api.compute(25)  # the surrounding application work

    stats = machine.finalize()
    print("=== run ===")
    print(f"transactions committed : {stats.transactions_committed}")
    print(f"cycles                 : {stats.cycles:,.0f}")
    print(f"IPC                    : {stats.ipc:.3f}")
    print(f"log records written    : {stats.log_records}")
    print(f"NVRAM bytes written    : {stats.nvram_write_bytes:,}")
    print(f"fence stalls           : {stats.fence_stall_cycles:.0f} cycles "
          f"(zero: commits ride for free)")

    # Crash at a random instant and recover.  (The window extends past
    # the last core cycle: posted log/data writes are still draining.)
    crash_time = rng.uniform(0.4, 1.3) * stats.cycles
    machine.crash(at_time=crash_time)
    report = recover_image(machine.nvram, machine.config)
    print("\n=== crash & recovery ===")
    print(f"crashed at cycle       : {crash_time:,.0f}")
    print(f"log window replayed    : {report.window_entries} records")
    print(f"committed transactions : {report.committed_instances} (redone)")
    print(f"uncommitted            : {report.uncommitted_instances} (undone)")

    # The invariant the whole design exists for: total money conserved.
    total = sum(
        int.from_bytes(machine.nvram.read(addr, 8), "little") for addr in accounts
    )
    print(f"sum of balances        : {total} (expected 400)")
    assert total == 400, "atomicity violated!"
    print("crash consistency holds.")


if __name__ == "__main__":
    main()
