#!/usr/bin/env python3
"""Visualize "steal but no force": commit latency vs durability lag.

Under the full design a transaction commits the instant its log records
are issued ("free ride"), while durability arrives asynchronously when
the commit record drains to NVRAM.  Software clwb designs pay that wait
*inside* the transaction.  This example traces both and prints the
distribution of the commit-to-durable gap per design.

Run:  python examples/durability_lag.py
"""

from __future__ import annotations

from repro import Machine, PersistentMemory, SystemConfig
from repro.core.design import FWB, HWL, REDO_CLWB, UNDO_CLWB, DesignSpec
from repro.sim.config import LoggingConfig, NVDimmConfig
from repro.sim.trace import Tracer


def run(policy: DesignSpec):
    config = SystemConfig(
        num_cores=1,
        nvram=NVDimmConfig(size_bytes=8 * 1024 * 1024),
        logging=LoggingConfig(log_entries=2048),
    )
    machine = Machine(config, policy)
    machine.tracer = Tracer()
    pm = PersistentMemory(machine)
    api = pm.api(0)
    slots = [pm.heap.alloc(8) for _ in range(64)]
    for value in range(200):
        with api.transaction():
            api.write(slots[value % 64], value.to_bytes(8, "little"))
            api.compute(20)
    stats = machine.finalize()
    lags = machine.tracer.commit_lags()
    return stats, lags


def main() -> None:
    header = (
        f"{'design':12s} {'cycles/txn':>10s} {'avg commit->durable':>19s} "
        f"{'max':>8s} {'fences in txn':>13s}"
    )
    print(header)
    print("-" * len(header))
    for policy in (FWB, HWL, UNDO_CLWB, REDO_CLWB):
        stats, lags = run(policy)
        avg = sum(lags) / len(lags) if lags else 0.0
        peak = max(lags) if lags else 0.0
        print(
            f"{policy.value:12s} {stats.cycles / 200:10.0f} "
            f"{avg:16.0f} cyc {peak:8.0f} {stats.fence_stall_cycles:13.0f}"
        )
    print(
        "\nfwb commits instantly and lets durability trail behind (large lag,\n"
        "zero fence stalls); the software designs buy a small lag by stalling\n"
        "inside every transaction — the exact trade the paper's title names."
    )


if __name__ == "__main__":
    main()
