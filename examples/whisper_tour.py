#!/usr/bin/env python3
"""Tour of the WHISPER-like application kernels (Figure 10 workloads).

Runs each kernel under non-pers, the better software baseline, and fwb,
showing how workload character (write intensity, transaction size, skew)
drives the gains — tpcc and ycsb benefit the most, vacation the least.

Run:  python examples/whisper_tour.py
"""

from __future__ import annotations

from repro.core.design import FWB, NON_PERS, REDO_CLWB, UNDO_CLWB
from repro.harness.runner import RunConfig, prepare_workload, run_workload
from repro.workloads.whisper import WHISPER_KERNELS, make_whisper_kernel


def main() -> None:
    header = (
        f"{'kernel':10s} {'records/txn':>11s} {'fwb thpt':>9s} "
        f"{'vs best sw':>10s} {'vs non-pers':>11s} {'energy vs sw':>12s}"
    )
    print(header)
    print("-" * len(header))
    for name in sorted(WHISPER_KERNELS):
        kernel = make_whisper_kernel(name)
        prepared = prepare_workload(kernel)
        stats = {}
        for policy in (NON_PERS, REDO_CLWB, UNDO_CLWB, FWB):
            outcome = run_workload(
                kernel,
                RunConfig(policy=policy, threads=1, txns_per_thread=120),
                prepared=prepared,
            )
            stats[policy] = outcome.stats
        fwb = stats[FWB]
        best_sw = max(
            stats[REDO_CLWB], stats[UNDO_CLWB],
            key=lambda s: s.throughput,
        )
        records_per_txn = fwb.log_records / max(1, fwb.transactions_committed)
        print(
            f"{name:10s} {records_per_txn:11.1f} {fwb.throughput:9.1f} "
            f"{fwb.throughput / best_sw.throughput:9.2f}x "
            f"{fwb.throughput / stats[NON_PERS].throughput:10.2f}x "
            f"{best_sw.memory_dynamic_energy_pj / fwb.memory_dynamic_energy_pj:11.2f}x"
        )
    print("\nSkewed, update-heavy kernels (ycsb, echo, redis) gain the most "
          "throughput and ycsb the most energy; the read-heavy (vacation) and "
          "compute-heavy (ctree, tpcc's 5-15-line transactions) kernels gain "
          "the least — Figure 10's story.")


if __name__ == "__main__":
    main()
