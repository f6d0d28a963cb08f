"""Figure 9: NVRAM write-traffic reduction, normalized to unsafe-base.

Paper shape: the design substantially reduces NVRAM writes against the
forced-write-back software designs — caches keep coalescing writes
(Section III-F: "we improve NVRAM lifetime because our caches coalesce
writes").
"""

from repro.core.design import FWB, REDO_CLWB, UNDO_CLWB
from repro.harness.experiments import figure9_write_traffic

from .conftest import get_micro_sweep


def test_bench_fig9_write_traffic(benchmark):
    sweep = get_micro_sweep()
    result = benchmark.pedantic(
        lambda: figure9_write_traffic(sweep), rounds=1, iterations=1
    )
    print()
    print(result.rendered)
    reductions = []
    for (bench, threads), cell in result.data.items():
        ratio = cell[FWB] / cell[UNDO_CLWB]
        reductions.append(ratio)
        assert cell[FWB] >= cell[UNDO_CLWB], (bench, threads)
        assert cell[FWB] >= cell[REDO_CLWB], (bench, threads)
    print(f"fwb writes less than undo-clwb by {min(reductions):.2f}x - "
          f"{max(reductions):.2f}x across the sweep")
    benchmark.extra_info["min_write_reduction_vs_undo_clwb"] = round(min(reductions), 3)
    benchmark.extra_info["max_write_reduction_vs_undo_clwb"] = round(max(reductions), 3)
