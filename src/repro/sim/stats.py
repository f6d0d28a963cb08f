"""Statistics collected during simulation.

One :class:`MachineStats` instance is shared by every component of a
:class:`~repro.sim.machine.Machine`.  All counters are plain attributes so
tests can assert on them directly; derived metrics (IPC, throughput,
traffic) are computed by properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class MachineStats:
    """Event counters and derived metrics for one simulation run."""

    # Execution
    instructions: int = 0
    cycles: float = 0.0
    transactions_committed: int = 0
    transactions_started: int = 0

    # Cache events
    l1_hits: int = 0
    l1_misses: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    coherence_invalidations: int = 0
    writebacks: int = 0

    # Memory controller / NVRAM
    nvram_reads: int = 0
    nvram_read_bytes: int = 0
    nvram_writes: int = 0
    nvram_write_bytes: int = 0
    nvram_row_hits: int = 0
    nvram_row_conflicts: int = 0
    write_queue_stall_cycles: float = 0.0

    # Logging
    log_records: int = 0
    log_bytes: int = 0
    log_buffer_stall_cycles: float = 0.0
    wcb_stall_cycles: float = 0.0
    log_wrap_forced_writebacks: int = 0

    # Adaptive design switching (repro.adapt)
    design_switches: int = 0
    switch_barrier_cycles: float = 0.0

    # Persistence machinery
    clwb_count: int = 0
    fence_stall_cycles: float = 0.0
    fwb_scans: int = 0
    fwb_lines_scanned: int = 0
    fwb_writebacks: int = 0
    fwb_tax_cycles: float = 0.0

    # Energy (picojoules)
    energy_nvram_pj: float = 0.0
    energy_cache_pj: float = 0.0
    energy_core_pj: float = 0.0

    per_core_instructions: dict = field(default_factory=dict)
    per_core_cycles: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Aggregate instructions per cycle (0 when nothing ran)."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def throughput(self) -> float:
        """Committed transactions per million cycles."""
        if self.cycles <= 0:
            return 0.0
        return self.transactions_committed * 1e6 / self.cycles

    @property
    def nvram_traffic_bytes(self) -> int:
        """Total NVRAM traffic, reads plus writes, in bytes."""
        return self.nvram_read_bytes + self.nvram_write_bytes

    @property
    def memory_dynamic_energy_pj(self) -> float:
        """Dynamic energy of the memory system (NVRAM accesses)."""
        return self.energy_nvram_pj

    @property
    def total_dynamic_energy_pj(self) -> float:
        """Dynamic energy including caches and core activity."""
        return self.energy_nvram_pj + self.energy_cache_pj + self.energy_core_pj

    @property
    def l1_hit_rate(self) -> float:
        """L1 hit fraction over all L1 accesses (0 if no accesses)."""
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 0.0

    def record_core(self, core_id: int, instructions: int, cycles: float) -> None:
        """Store per-core totals at the end of a run."""
        self.per_core_instructions[core_id] = instructions
        self.per_core_cycles[core_id] = cycles

    def snapshot(self) -> dict:
        """Return a plain-dict summary useful for reports and JSON dumps.

        Every scalar counter appears under its field name (read from the
        dataclass fields, so a new counter cannot be left out), followed
        by the derived ratios.
        """
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if isinstance(getattr(self, f.name), (int, float))
        }
        out.update(
            ipc=self.ipc,
            throughput_per_mcycle=self.throughput,
            l1_hit_rate=self.l1_hit_rate,
            memory_energy_pj=self.memory_dynamic_energy_pj,
            total_energy_pj=self.total_dynamic_energy_pj,
        )
        return out
