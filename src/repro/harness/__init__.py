"""Experiment harness.

* :mod:`~repro.harness.runner` — build a machine for a policy, set up a
  workload, interleave thread generators in core-clock order, collect
  stats;
* :mod:`~repro.harness.experiments` — one entry per paper table/figure;
* :mod:`~repro.harness.report` — fixed-width tables matching the paper's
  rows and series.
"""

from .cache import SweepCache
from .parallel import SweepHealth
from .plots import figure_chart, grouped_bars, series_chart
from .runner import RunConfig, RunOutcome, run_workload
from .sweep import SweepCell, SweepResult, run_micro_sweep
from .validate import ValidationReport, validate
from .experiments import (
    figure6_throughput,
    figure7_ipc_instructions,
    figure8_energy,
    figure9_write_traffic,
    figure10_whisper,
    figure11a_log_buffer,
    figure11b_fwb_frequency,
    table1_hardware_overhead,
    table2_configuration,
    table3_microbenchmarks,
)

__all__ = [
    "RunConfig",
    "RunOutcome",
    "SweepCache",
    "SweepCell",
    "SweepHealth",
    "SweepResult",
    "run_micro_sweep",
    "run_workload",
    "validate",
    "ValidationReport",
    "figure_chart",
    "grouped_bars",
    "series_chart",
    "figure6_throughput",
    "figure7_ipc_instructions",
    "figure8_energy",
    "figure9_write_traffic",
    "figure10_whisper",
    "figure11a_log_buffer",
    "figure11b_fwb_frequency",
    "table1_hardware_overhead",
    "table2_configuration",
    "table3_microbenchmarks",
]
