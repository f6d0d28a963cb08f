"""Figure 7: IPC speedup and instruction count, normalized to unsafe-base.

Paper shape: software logging executes up to ~2.5x the instructions of
non-pers (undo more than redo); fwb stays within ~1.3x; hardware logging
IPC beats software logging.
"""

from repro.core.design import FWB, NON_PERS, UNDO_CLWB
from repro.harness.experiments import figure7_ipc_instructions

from .conftest import get_micro_sweep


def test_bench_fig7_ipc_instructions(benchmark):
    sweep = get_micro_sweep()
    result = benchmark.pedantic(
        lambda: figure7_ipc_instructions(sweep), rounds=1, iterations=1
    )
    print()
    print(result.rendered)

    instr = result.data["instructions"]
    worst_sw = 0.0
    worst_fwb = 0.0
    fwb_ratios = []
    for (bench, threads), cell in instr.items():
        non_pers = cell[NON_PERS]
        sw_ratio = cell[UNDO_CLWB] / non_pers
        fwb_ratio = cell[FWB] / non_pers
        worst_sw = max(worst_sw, sw_ratio)
        worst_fwb = max(worst_fwb, fwb_ratio)
        fwb_ratios.append(fwb_ratio)
        # Software logging substantially expands the instruction stream
        # everywhere; compute-heavy ssca2 dilutes it the most (which is
        # exactly why the paper's SSCA2 gains the least).
        assert sw_ratio > 1.5, (bench, threads, sw_ratio)
        # Hardware logging adds only transaction-interface instructions
        # (sps's tiny transactions make that overhead proportionally
        # largest, up to ~1.6x; the mean stays near the paper's 1.3x).
        assert fwb_ratio < 1.7, (bench, threads, fwb_ratio)
    assert sum(fwb_ratios) / len(fwb_ratios) < 1.5
    assert worst_sw > 2.0  # the "up to 2.5x" benchmarks are present
    print(f"max software-logging instruction expansion vs non-pers: "
          f"{worst_sw:.2f}x (paper: up to 2.5x)")
    print(f"max fwb instruction expansion vs non-pers: {worst_fwb:.2f}x "
          f"(paper: ~1.3x)")
    benchmark.extra_info["max_sw_instr_expansion"] = round(worst_sw, 3)
    benchmark.extra_info["max_fwb_instr_expansion"] = round(worst_fwb, 3)
