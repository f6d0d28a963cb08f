"""Figure 10: WHISPER results, normalized to unsafe-base.

All four reported metrics (IPC, dynamic memory energy, transaction
throughput, NVRAM write traffic) for the eight WHISPER-like kernels.
Paper shape: fwb reaches up to ~2.7x the throughput of the better
software design, stays within reach of non-pers, and the write-intensive
kernels (tpcc, ycsb) gain the most memory energy.
"""

from repro.core.design import FWB, REDO_CLWB, UNDO_CLWB
from repro.harness.experiments import figure10_whisper


def test_bench_fig10_whisper(benchmark):
    result = benchmark.pedantic(
        lambda: figure10_whisper(txns_per_thread=150), rounds=1, iterations=1
    )
    print()
    print(result.rendered)

    kernels = sorted({kernel for kernel, _ in result.data})
    gains = {}
    for kernel in kernels:
        fwb = result.data[(kernel, FWB)]
        best_sw_throughput = max(
            result.data[(kernel, REDO_CLWB)]["throughput"],
            result.data[(kernel, UNDO_CLWB)]["throughput"],
        )
        gains[kernel] = fwb["throughput"] / best_sw_throughput
        assert fwb["throughput"] > best_sw_throughput, kernel
        assert fwb["memory_energy"] >= result.data[(kernel, UNDO_CLWB)][
            "memory_energy"
        ], kernel
    top = max(gains, key=gains.get)
    print(f"largest fwb throughput gain over best software-clwb: "
          f"{gains[top]:.2f}x on {top} (paper: up to 2.7x)")
    for kernel, gain in sorted(gains.items()):
        benchmark.extra_info[f"fwb_gain_{kernel}"] = round(gain, 3)
