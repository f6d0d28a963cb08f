"""Figure 8: dynamic memory energy reduction, normalized to unsafe-base.

Paper shape: the software clwb designs impose up to ~62% extra memory
energy versus non-pers; fwb's forced-write-back-free execution keeps its
energy at or below every persistence-guaranteeing software design.
"""

from repro.core.design import FWB, REDO_CLWB, UNDO_CLWB
from repro.harness.experiments import figure8_energy

from .conftest import get_micro_sweep


def test_bench_fig8_energy(benchmark):
    sweep = get_micro_sweep()
    result = benchmark.pedantic(lambda: figure8_energy(sweep), rounds=1, iterations=1)
    print()
    print(result.rendered)
    for (bench, threads), cell in result.data.items():
        # Reduction is "higher is better": fwb at least matches the
        # software clwb designs everywhere.
        assert cell[FWB] >= cell[REDO_CLWB], (bench, threads)
        assert cell[FWB] >= cell[UNDO_CLWB], (bench, threads)
        benchmark.extra_info[f"{bench}-{threads}t_fwb_vs_undo_clwb"] = round(
            cell[FWB] / cell[UNDO_CLWB], 3
        )
