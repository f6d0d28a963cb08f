"""System configuration dataclasses.

Defaults follow Table II of the paper:

* 4 cores at 2.5 GHz (2 hardware threads per core; we model one simulated
  core per software thread),
* 32 KB 8-way L1D with 64 B lines at 1.6 ns,
* 8 MB 16-way shared LLC at 4.4 ns,
* 64-/64-entry memory-controller read/write queues,
* NVRAM DIMM with 8 banks, 2 KB rows, 36 ns row-buffer hit and 100/300 ns
  read/write row-buffer conflicts, and the PCM energy parameters of Lee et
  al. (row buffer 0.93/1.02 pJ/bit, array 2.47/16.82 pJ/bit).

Experiments may scale the LLC and memory footprint down together (the
ratios, not the absolute sizes, drive the paper's relative results); see
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..errors import ConfigError
from ..utils import ns_to_cycles, require_power_of_two


@dataclass(frozen=True)
class CoreConfig:
    """Per-core pipeline cost model.

    The simulator is not a cycle-accurate out-of-order model; instead each
    micro-op charges a calibrated latency.  ``*_exposed`` factors model the
    fraction of a miss latency an out-of-order window cannot hide.
    """

    clock_ghz: float = 2.5
    cpi_alu: float = 0.35
    load_issue_cycles: float = 1.0
    store_issue_cycles: float = 1.0
    load_miss_exposed: float = 0.55
    store_miss_exposed: float = 0.25
    clwb_issue_cycles: float = 2.0
    fence_issue_cycles: float = 1.0
    uncached_store_issue_cycles: float = 8.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range values."""
        if self.clock_ghz <= 0:
            raise ConfigError("clock_ghz must be positive")
        if self.cpi_alu <= 0:
            raise ConfigError("cpi_alu must be positive")
        for name in ("load_miss_exposed", "store_miss_exposed"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int = 32 * 1024
    ways: int = 8
    line_size: int = 64
    latency_ns: float = 1.6

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of sets (lines / associativity)."""
        return self.num_lines // self.ways

    def latency_cycles(self, clock_ghz: float) -> int:
        """Access latency converted to core cycles."""
        return ns_to_cycles(self.latency_ns, clock_ghz)

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent geometry."""
        require_power_of_two(self.line_size, "cache line size")
        if self.size_bytes % self.line_size:
            raise ConfigError("cache size must be a multiple of the line size")
        if self.num_lines % self.ways:
            raise ConfigError("cache lines must divide evenly into ways")
        require_power_of_two(self.num_sets, "number of cache sets")


@dataclass(frozen=True)
class MemCtrlConfig:
    """Memory-controller queue geometry and overheads."""

    read_queue_entries: int = 64
    write_queue_entries: int = 64
    queue_latency_ns: float = 4.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid queue sizes."""
        if self.read_queue_entries <= 0 or self.write_queue_entries <= 0:
            raise ConfigError("queue sizes must be positive")


@dataclass(frozen=True)
class NVDimmConfig:
    """NVRAM DIMM (PCM-like) timing, geometry, and capacity."""

    size_bytes: int = 64 * 1024 * 1024
    num_banks: int = 8
    row_bytes: int = 2048
    interleave_bytes: int = 64
    """Bank interleaving granularity (one cache line: sequential lines map
    to distinct banks)."""
    row_buffers_per_bank: int = 8
    """PCM banks with multiple row buffers, as in the Lee et al. DIMM
    architecture the paper's Table II cites — an access hits if its row is
    in any of the bank's buffers (LRU replacement)."""
    bus_cycles_per_transfer: float = 12.0
    """Channel occupancy per 64 B transfer (~13 GB/s at 2.5 GHz).  The
    shared bus is what makes unbuffered log updates stall the pipeline —
    the effect Figure 11(a) quantifies."""
    row_hit_ns: float = 36.0
    read_conflict_ns: float = 100.0
    write_conflict_ns: float = 300.0
    infinite_write_bandwidth: bool = False
    """When True, writes always complete at row-buffer-hit speed with no
    queue limit.  Used only for the 128/256-entry points of Figure 11(a),
    which the paper generates "assuming infinite NVRAM write bandwidth"."""
    adr_persist_domain: bool = False
    """ADR-style persistence domain: a write is durable once the memory
    controller accepts it (residual energy drains the queues on power
    failure).  The paper's 2018 model assumes NO ADR — writes must reach
    the NVRAM array — which is what makes clwb+fence expensive; this flag
    exists for the what-if ablation."""

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent DIMM geometry."""
        require_power_of_two(self.num_banks, "NVRAM bank count")
        require_power_of_two(self.row_bytes, "NVRAM row size")
        require_power_of_two(self.interleave_bytes, "NVRAM interleave granularity")
        if self.interleave_bytes > self.row_bytes:
            raise ConfigError("interleave granularity exceeds the row size")
        if self.row_buffers_per_bank <= 0:
            raise ConfigError("each bank needs at least one row buffer")
        if self.size_bytes % (self.row_bytes * self.num_banks):
            raise ConfigError("NVRAM size must be a whole number of rows per bank")


@dataclass(frozen=True)
class EnergyConfig:
    """Dynamic energy parameters (pJ).

    NVRAM values are per-bit from the paper's Table II; cache and core
    values are McPAT-like constants.  Only relative energy matters for the
    reproduced figures.
    """

    nvram_row_buffer_read_pj_per_bit: float = 0.93
    nvram_row_buffer_write_pj_per_bit: float = 1.02
    nvram_array_read_pj_per_bit: float = 2.47
    nvram_array_write_pj_per_bit: float = 16.82
    l1_access_pj: float = 20.0
    llc_access_pj: float = 160.0
    instruction_pj: float = 70.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on negative energy parameters."""
        for name in (
            "nvram_row_buffer_read_pj_per_bit",
            "nvram_row_buffer_write_pj_per_bit",
            "nvram_array_read_pj_per_bit",
            "nvram_array_write_pj_per_bit",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class LoggingConfig:
    """Parameters of the logging machinery (hardware and software).

    ``log_entries`` * ``log_entry_size`` gives the circular-log region size
    (the paper's running example: 64K entries x 64 B = 4 MB).
    ``log_buffer_entries`` is the optional volatile FIFO in the memory
    controller; the paper's persistence bound for the Table II machine is
    15 entries.  ``wcb_entries`` models the 4-6 line write-combining buffer
    used for uncacheable software log stores.
    """

    log_entries: int = 65536
    log_entry_size: int = 64
    log_buffer_entries: int = 15
    wcb_entries: int = 6
    enable_log_grow: bool = False
    """Section IV-A's log_grow(): allocate additional log regions instead
    of overwriting an active transaction's records."""
    log_grow_reserve_regions: int = 3
    """NVRAM regions reserved for log growth (each log_bytes large)."""
    distributed_logs: int = 0
    """Section III-F's distributed design: split the log region into this
    many per-thread rings (0 = the paper's centralized log)."""
    fwb_scan_cost_per_line: float = 0.8
    fwb_scan_interval_override: Optional[int] = None
    fwb_safety_factor: float = 2.0
    softlog_instrs_per_record: int = 8
    softlog_instrs_tx_begin: int = 8
    softlog_instrs_tx_commit: int = 8
    hw_instrs_tx_begin: int = 4
    hw_instrs_tx_commit: int = 2
    """tx_begin/tx_commit under hardware logging are plain function calls
    writing the txid special register; a handful of instructions each."""

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent logging parameters."""
        require_power_of_two(self.log_entries, "log entry count")
        if self.log_entry_size not in (32, 64):
            raise ConfigError("log entry size must be 32 or 64 bytes")
        if self.log_buffer_entries < 0:
            raise ConfigError("log buffer size must be >= 0")
        if self.wcb_entries <= 0:
            raise ConfigError("WCB must have at least one entry")
        if self.distributed_logs < 0:
            raise ConfigError("distributed_logs must be >= 0")
        if self.distributed_logs and self.log_entries % self.distributed_logs:
            raise ConfigError("log entries must split evenly into rings")
        if self.distributed_logs and self.enable_log_grow:
            raise ConfigError("log growth is only supported for the centralized log")
        if self.enable_log_grow and self.log_grow_reserve_regions <= 0:
            raise ConfigError("log growth needs at least one reserve region")

    @property
    def log_bytes(self) -> int:
        """Size of the circular log region in bytes."""
        return self.log_entries * self.log_entry_size


@dataclass(frozen=True)
class SystemConfig:
    """Complete machine configuration (Table II defaults)."""

    num_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(default_factory=CacheConfig)
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=8 * 1024 * 1024, ways=16, line_size=64, latency_ns=4.4
        )
    )
    memctrl: MemCtrlConfig = field(default_factory=MemCtrlConfig)
    nvram: NVDimmConfig = field(default_factory=NVDimmConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    logging: LoggingConfig = field(default_factory=LoggingConfig)

    def validate(self) -> "SystemConfig":
        """Validate all sub-configs and cross-field constraints."""
        if self.num_cores <= 0:
            raise ConfigError("num_cores must be positive")
        self.core.validate()
        self.l1.validate()
        self.llc.validate()
        self.memctrl.validate()
        self.nvram.validate()
        self.energy.validate()
        self.logging.validate()
        if self.l1.line_size != self.llc.line_size:
            raise ConfigError("L1 and LLC must share a line size")
        if self.logging.log_bytes >= self.nvram.size_bytes:
            raise ConfigError("log region does not fit in NVRAM")
        return self

    @property
    def line_size(self) -> int:
        """System-wide cache-line size in bytes."""
        return self.l1.line_size

    @property
    def log_base(self) -> int:
        """First byte of the circular log region, which ends at the top
        of NVRAM — the one placement rule the machine and recovery read."""
        return self.nvram.size_bytes - self.logging.log_bytes

    def scaled(self, **overrides) -> "SystemConfig":
        """Return a copy with fields replaced (convenience for sweeps)."""
        return replace(self, **overrides)

    def min_store_traversal_cycles(self) -> int:
        """Minimum cycles for a cached store to exit the cache hierarchy.

        Section IV-C: the log buffer depth N must stay at or below this so
        log records reach the NVRAM bus before their data can.  With the
        Table II latencies (4-cycle L1 + 11-cycle LLC) this is 15 cycles,
        matching the paper's <= 15-entry bound.
        """
        ghz = self.core.clock_ghz
        return self.l1.latency_cycles(ghz) + self.llc.latency_cycles(ghz)

    def max_persistent_log_buffer_entries(self) -> int:
        """Largest log buffer that still guarantees persistence (15 here)."""
        return self.min_store_traversal_cycles()
