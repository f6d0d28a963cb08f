"""Figure 6: transaction throughput speedup, normalized to unsafe-base.

Regenerates the paper's Figure 6 series: five microbenchmarks at 1 and 8
threads under all eight designs.  Shape targets (paper): fwb gains
~1.86x/1.75x (1t/8t) over the better software-clwb design; software
logging loses up to ~59% against non-pers; SSCA2 shows the smallest gain.
"""

from repro.core.design import FWB, HWL, NON_PERS, REDO_CLWB, UNDO_CLWB
from repro.harness.experiments import figure6_throughput, summarize_fwb_gain

from .conftest import SWEEP_THREADS, get_micro_sweep


def test_bench_fig6_throughput(benchmark):
    sweep = benchmark.pedantic(get_micro_sweep, rounds=1, iterations=1)
    result = figure6_throughput(sweep)
    print()
    print(result.rendered)
    for threads in SWEEP_THREADS:
        gain = summarize_fwb_gain(sweep, threads)
        print(f"fwb gain over best software-clwb at {threads} thread(s): {gain:.2f}x "
              f"(paper: {'1.86x' if threads == 1 else '1.75x'})")
        benchmark.extra_info[f"fwb_gain_{threads}t"] = round(gain, 3)

    # Shape assertions (who wins, roughly by how much).
    for (bench, threads), cell in result.data.items():
        assert cell[NON_PERS] >= cell[FWB] * 0.95, (bench, threads)
        assert cell[FWB] > max(
            cell[REDO_CLWB], cell[UNDO_CLWB]
        ), (bench, threads)
        assert cell[HWL] > min(
            cell[REDO_CLWB], cell[UNDO_CLWB]
        ), (bench, threads)
    assert 1.2 < summarize_fwb_gain(sweep, 1) < 3.0
