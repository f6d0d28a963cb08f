"""One reproduction entry per table and figure of the paper.

Every function returns an :class:`ExperimentResult` whose ``rendered``
field is a text table with the same rows/series as the paper's figure,
and whose ``data`` field is the structured form tests and benchmarks
assert against.  Figures 6-9 share one sweep (pass it in to avoid
re-running); Figure 10 runs the WHISPER-like kernels; Figure 11 sweeps
log-buffer size and log size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..core.design import (
    CANONICAL_DESIGNS,
    FWB,
    NON_PERS,
    REDO_CLWB,
    UNDO_CLWB,
    UNSAFE_BASE,
)
from ..core.fwb import required_scan_frequency, required_scan_interval
from ..sim.config import SystemConfig
from ..workloads import MICROBENCHMARKS
from ..workloads.hashtable import HashTableWorkload
from ..workloads.whisper import WHISPER_KERNELS, make_whisper_kernel
from .report import bench_label, format_table, geomean, reduction, speedup
from .runner import RunConfig, default_experiment_config, run_workload
from .sweep import SweepResult, run_micro_sweep


@dataclass
class ExperimentResult:
    """Structured + rendered reproduction of one table/figure."""

    name: str
    headers: list
    rows: list
    data: dict = field(default_factory=dict)

    @property
    def rendered(self) -> str:
        """Fixed-width text rendering."""
        return format_table(self.name, self.headers, self.rows)


def _ensure_sweep(sweep: Optional[SweepResult], **sweep_kwargs) -> SweepResult:
    if sweep is not None:
        return sweep
    return run_micro_sweep(**sweep_kwargs)


def _normalized_rows(sweep: SweepResult, metric, invert: bool = False) -> tuple:
    """Rows of metric(policy)/metric(unsafe-base) for every (bench, threads)."""
    policies = sweep.policies()
    headers = ["benchmark"] + [policy.value for policy in policies]
    rows = []
    data = {}
    for benchmark in sweep.benchmarks():
        for threads in sweep.thread_counts():
            base = metric(sweep.stats(benchmark, threads, UNSAFE_BASE))
            row = [bench_label(benchmark, threads)]
            cell = {}
            for policy in policies:
                value = metric(sweep.stats(benchmark, threads, policy))
                if invert:
                    # A design with zero cost has infinite "reduction"
                    # (non-pers writes nothing in short runs).
                    ratio = float("inf") if value == 0 else reduction(base, value)
                else:
                    ratio = speedup(value, base)
                row.append(ratio)
                cell[policy] = ratio
            rows.append(row)
            data[(benchmark, threads)] = cell
    return headers, rows, data


# ----------------------------------------------------------------------
# Figure 6: transaction throughput speedup (normalized to unsafe-base)
# ----------------------------------------------------------------------
def figure6_throughput(sweep: Optional[SweepResult] = None, **sweep_kwargs) -> ExperimentResult:
    """Transaction throughput speedup, higher is better (Figure 6)."""
    sweep = _ensure_sweep(sweep, **sweep_kwargs)
    headers, rows, data = _normalized_rows(sweep, lambda s: s.throughput)
    return ExperimentResult("Figure 6: transaction throughput speedup "
                            "(normalized to unsafe-base)", headers, rows, data)


# ----------------------------------------------------------------------
# Figure 7: IPC speedup and instruction count (normalized to unsafe-base)
# ----------------------------------------------------------------------
def figure7_ipc_instructions(
    sweep: Optional[SweepResult] = None, **sweep_kwargs
) -> ExperimentResult:
    """IPC speedup (higher better) and instruction count (lower better)."""
    sweep = _ensure_sweep(sweep, **sweep_kwargs)
    ipc_headers, ipc_rows, ipc_data = _normalized_rows(sweep, lambda s: s.ipc)
    _, instr_rows, instr_data = _normalized_rows(sweep, lambda s: s.instructions)
    headers = ["benchmark", "metric"] + ipc_headers[1:]
    rows = []
    for ipc_row, instr_row in zip(ipc_rows, instr_rows):
        rows.append([ipc_row[0], "ipc"] + ipc_row[1:])
        rows.append([instr_row[0], "instructions"] + instr_row[1:])
    return ExperimentResult(
        "Figure 7: IPC speedup (higher better) and instruction count "
        "(lower better), normalized to unsafe-base",
        headers,
        rows,
        {"ipc": ipc_data, "instructions": instr_data},
    )


# ----------------------------------------------------------------------
# Figure 8: dynamic memory energy reduction
# ----------------------------------------------------------------------
def figure8_energy(sweep: Optional[SweepResult] = None, **sweep_kwargs) -> ExperimentResult:
    """Dynamic memory energy reduction vs unsafe-base (higher better)."""
    sweep = _ensure_sweep(sweep, **sweep_kwargs)
    headers, rows, data = _normalized_rows(
        sweep, lambda s: s.memory_dynamic_energy_pj, invert=True
    )
    return ExperimentResult(
        "Figure 8: dynamic memory energy reduction "
        "(normalized to unsafe-base, higher is better)",
        headers,
        rows,
        data,
    )


# ----------------------------------------------------------------------
# Figure 9: NVRAM write-traffic reduction
# ----------------------------------------------------------------------
def figure9_write_traffic(
    sweep: Optional[SweepResult] = None, **sweep_kwargs
) -> ExperimentResult:
    """Memory write-traffic reduction vs unsafe-base (higher better)."""
    sweep = _ensure_sweep(sweep, **sweep_kwargs)
    headers, rows, data = _normalized_rows(
        sweep, lambda s: s.nvram_write_bytes, invert=True
    )
    return ExperimentResult(
        "Figure 9: memory write traffic reduction "
        "(normalized to unsafe-base, higher is better)",
        headers,
        rows,
        data,
    )


# ----------------------------------------------------------------------
# Figure 10: WHISPER results
# ----------------------------------------------------------------------
WHISPER_METRICS = ("ipc", "memory_energy", "throughput", "nvram_writes")


def figure10_whisper(
    kernels: Iterable[str] = tuple(WHISPER_KERNELS),
    policies: Iterable = (
        NON_PERS,
        UNSAFE_BASE,
        REDO_CLWB,
        UNDO_CLWB,
        FWB,
    ),
    threads: int = 1,
    txns_per_thread: int = 150,
    system: Optional[SystemConfig] = None,
    seed: int = 42,
    **sweep_options,
) -> ExperimentResult:
    """WHISPER kernels: IPC, memory energy, throughput, and NVRAM write
    traffic, normalized to unsafe-base (Figure 10).  ``sweep_options``
    (``jobs``, ``cache``, ``psan_report``, ...) go to
    :func:`~repro.harness.sweep.run_micro_sweep`."""
    sweep = run_micro_sweep(
        benchmarks=kernels,
        threads=(threads,),
        policies=policies,
        txns_per_thread=txns_per_thread,
        system=system,
        seed=seed,
        workload_factory=lambda name: make_whisper_kernel(name, seed=seed),
        **sweep_options,
    )
    headers = ["kernel", "policy", "ipc", "memory_energy_red", "throughput", "write_red"]
    rows = []
    data = {}
    for kernel in sweep.benchmarks():
        base = sweep.stats(kernel, threads, UNSAFE_BASE)
        for policy in sweep.policies():
            stats = sweep.stats(kernel, threads, policy)
            cell = {
                "ipc": speedup(stats.ipc, base.ipc),
                "memory_energy": reduction(
                    base.memory_dynamic_energy_pj, stats.memory_dynamic_energy_pj
                ),
                "throughput": speedup(stats.throughput, base.throughput),
                "nvram_writes": reduction(
                    max(base.nvram_write_bytes, 1), max(stats.nvram_write_bytes, 1)
                ),
            }
            data[(kernel, policy)] = cell
            rows.append(
                [
                    kernel,
                    policy.value,
                    cell["ipc"],
                    cell["memory_energy"],
                    cell["throughput"],
                    cell["nvram_writes"],
                ]
            )
    return ExperimentResult(
        "Figure 10: WHISPER results (normalized to unsafe-base)", headers, rows, data
    )


# ----------------------------------------------------------------------
# Figure 11(a): throughput vs log buffer size
# ----------------------------------------------------------------------
def figure11a_log_buffer(
    sizes: Iterable[int] = (0, 8, 15, 16, 32, 64, 128, 256),
    txns_per_thread: int = 300,
    system: Optional[SystemConfig] = None,
    seed: int = 42,
    workload_factory=None,
) -> ExperimentResult:
    """System throughput of the hash benchmark across log-buffer sizes.

    Sizes above the persistence bound are run with infinite NVRAM write
    bandwidth, exactly as the paper footnotes for its 128/256 points.
    """
    base_system = system or default_experiment_config()
    bound = base_system.max_persistent_log_buffer_entries()
    if workload_factory is None:
        workload_factory = lambda: HashTableWorkload(seed=seed)  # noqa: E731
    throughputs = {}
    for size in sizes:
        logging = base_system.logging
        cfg = base_system.scaled(
            logging=_replace(logging, log_buffer_entries=size),
            nvram=_replace(base_system.nvram, infinite_write_bandwidth=size > 64),
        )
        workload = workload_factory()
        outcome = run_workload(
            workload,
            RunConfig(
                policy=FWB,
                threads=1,
                txns_per_thread=txns_per_thread,
                system=cfg,
                seed=seed,
            ),
        )
        throughputs[size] = outcome.stats.throughput
    baseline = throughputs[min(throughputs)]
    headers = ["log_buffer_entries", "throughput", "speedup_vs_no_buffer", "persistent"]
    rows = []
    data = {}
    for size in sizes:
        ratio = speedup(throughputs[size], baseline)
        persistent = "yes" if size <= bound else "no (needs >bound)"
        rows.append([size, throughputs[size], ratio, persistent])
        data[size] = ratio
    return ExperimentResult(
        f"Figure 11(a): hash throughput vs log buffer size "
        f"(persistence bound = {bound} entries)",
        headers,
        rows,
        data,
    )


# ----------------------------------------------------------------------
# Figure 11(b): required FWB frequency vs log size
# ----------------------------------------------------------------------
def figure11b_fwb_frequency(
    log_sizes: Iterable[int] = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536),
    system: Optional[SystemConfig] = None,
) -> ExperimentResult:
    """Required cache force-write-back frequency per log size.

    The paper's running example: a 64K-entry (4 MB) log needs a scan only
    every ~3M cycles.
    """
    base_system = system or SystemConfig()
    headers = ["log_entries", "log_bytes", "scan_interval_cycles", "scans_per_cycle"]
    rows = []
    data = {}
    for entries in log_sizes:
        cfg = base_system.scaled(
            logging=_replace(base_system.logging, log_entries=entries)
        )
        interval = required_scan_interval(cfg)
        frequency = required_scan_frequency(cfg)
        rows.append([entries, entries * cfg.logging.log_entry_size, interval, f"{frequency:.2e}"])
        data[entries] = frequency
    return ExperimentResult(
        "Figure 11(b): required FWB frequency vs NVRAM log size", headers, rows, data
    )


# ----------------------------------------------------------------------
# Table I: hardware overhead
# ----------------------------------------------------------------------
def table1_hardware_overhead(system: Optional[SystemConfig] = None) -> ExperimentResult:
    """Major hardware state added by the design (Table I)."""
    cfg = system or SystemConfig()
    log_buffer_bytes = cfg.logging.log_buffer_entries * cfg.logging.log_entry_size
    l1_lines = cfg.l1.num_lines * cfg.num_cores
    llc_lines = cfg.llc.num_lines
    fwb_bits_bytes = (l1_lines + llc_lines + 7) // 8
    rows = [
        ["Transaction ID register", "flip-flops", 1],
        ["Log head pointer register", "flip-flops", 8],
        ["Log tail pointer register", "flip-flops", 8],
        ["Log buffer (optional)", "SRAM", log_buffer_bytes],
        ["Fwb tag bit", "SRAM", fwb_bits_bytes],
    ]
    data = {row[0]: row[2] for row in rows}
    return ExperimentResult(
        "Table I: summary of major hardware overhead (bytes)",
        ["mechanism", "logic type", "size_bytes"],
        rows,
        data,
    )


# ----------------------------------------------------------------------
# Table II: processor and memory configuration
# ----------------------------------------------------------------------
def table2_configuration(system: Optional[SystemConfig] = None) -> ExperimentResult:
    """The simulated machine configuration (Table II)."""
    cfg = system or SystemConfig()
    ghz = cfg.core.clock_ghz
    rows = [
        ["Cores", f"{cfg.num_cores} cores, {ghz} GHz"],
        [
            "L1 cache",
            f"{cfg.l1.size_bytes // 1024} KB, {cfg.l1.ways}-way, "
            f"{cfg.l1.line_size} B lines, {cfg.l1.latency_ns} ns",
        ],
        [
            "LLC",
            f"{cfg.llc.size_bytes // (1024 * 1024)} MB, {cfg.llc.ways}-way, "
            f"{cfg.llc.line_size} B lines, {cfg.llc.latency_ns} ns",
        ],
        [
            "Memory controller",
            f"{cfg.memctrl.read_queue_entries}-/"
            f"{cfg.memctrl.write_queue_entries}-entry read/write queues",
        ],
        [
            "NVRAM DIMM",
            f"{cfg.nvram.size_bytes // (1024 * 1024)} MB modelled, "
            f"{cfg.nvram.num_banks} banks, {cfg.nvram.row_bytes // 1024} KB rows, "
            f"{cfg.nvram.row_hit_ns} ns row hit, "
            f"{cfg.nvram.read_conflict_ns}/{cfg.nvram.write_conflict_ns} ns "
            "read/write conflict",
        ],
        [
            "NVRAM energy",
            "row buffer 0.93/1.02 pJ/bit read/write, "
            "array 2.47/16.82 pJ/bit read/write",
        ],
    ]
    return ExperimentResult(
        "Table II: processor and memory configuration", ["component", "value"], rows
    )


# ----------------------------------------------------------------------
# Table III: microbenchmarks
# ----------------------------------------------------------------------
def table3_microbenchmarks() -> ExperimentResult:
    """The evaluated microbenchmarks (Table III)."""
    rows = []
    for name, factory in MICROBENCHMARKS.items():
        workload = factory()
        rows.append([name, workload.paper_footprint, workload.description])
    return ExperimentResult(
        "Table III: evaluated microbenchmarks",
        ["name", "paper footprint", "description"],
        rows,
    )


# ----------------------------------------------------------------------
def summarize_fwb_gain(sweep: SweepResult, threads: int) -> float:
    """Geometric-mean fwb gain over the better software-clwb design.

    The paper's headline: 1.86x with one thread, 1.75x with eight.
    """
    gains = []
    for benchmark in sweep.benchmarks():
        fwb = sweep.stats(benchmark, threads, FWB).throughput
        best_sw = max(
            sweep.stats(benchmark, threads, REDO_CLWB).throughput,
            sweep.stats(benchmark, threads, UNDO_CLWB).throughput,
        )
        gains.append(speedup(fwb, best_sw))
    return geomean(gains)


def _replace(config, **changes):
    from dataclasses import replace

    return replace(config, **changes)


_ = CANONICAL_DESIGNS  # the paper's design set; kept for discoverability
