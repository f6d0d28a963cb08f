#!/usr/bin/env python3
"""Compare all eight persistence designs on one workload.

Reproduces the core of the paper's evaluation story on the hash
microbenchmark: software logging pays in instructions and fences,
hardware undo+redo logging (hwl) removes the instructions, and the cache
force-write-back mechanism (fwb) removes the forced write-backs too.

Run:  python examples/policy_comparison.py [benchmark] [threads]
      benchmark in {hash, rbtree, sps, btree, ssca2}, default hash
"""

from __future__ import annotations

import sys

from repro.core.design import CANONICAL_DESIGNS, FWB, REDO_CLWB, UNDO_CLWB, UNSAFE_BASE
from repro.harness.runner import RunConfig, prepare_workload, run_workload
from repro.workloads import make_microbenchmark


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "hash"
    threads = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    workload = make_microbenchmark(benchmark)
    print(f"preparing {benchmark} ({workload.description})")
    prepared = prepare_workload(workload)

    rows = {}
    for policy in CANONICAL_DESIGNS:
        outcome = run_workload(
            workload,
            RunConfig(policy=policy, threads=threads, txns_per_thread=300),
            prepared=prepared,
        )
        rows[policy] = outcome.stats

    base = rows[UNSAFE_BASE]
    header = (
        f"{'design':12s} {'throughput':>11s} {'vs unsafe':>9s} {'IPC':>6s} "
        f"{'instrs':>8s} {'NVRAM wr KB':>11s} {'energy uJ':>10s} {'fences':>8s}"
    )
    print()
    print(header)
    print("-" * len(header))
    for policy, stats in rows.items():
        print(
            f"{policy.value:12s} {stats.throughput:11.1f} "
            f"{stats.throughput / base.throughput:8.2f}x {stats.ipc:6.3f} "
            f"{stats.instructions:8d} {stats.nvram_write_bytes / 1024:11.1f} "
            f"{stats.memory_dynamic_energy_pj / 1e6:10.2f} "
            f"{stats.fence_stall_cycles:8.0f}"
        )

    best_sw = max(
        rows[REDO_CLWB].throughput, rows[UNDO_CLWB].throughput
    )
    print(
        f"\nfwb over best software-clwb: "
        f"{rows[FWB].throughput / best_sw:.2f}x "
        "(paper: 1.86x at 1 thread, 1.75x at 8)"
    )


if __name__ == "__main__":
    main()
