"""Dynamic energy model (McPAT substitute).

The paper feeds McSimA+ results into McPAT and reports *relative* dynamic
energy, observing that processor dynamic energy barely changes between
configurations while memory dynamic energy tracks NVRAM traffic.  We model
exactly the quantities those relative results depend on:

* NVRAM access energy using the per-bit PCM parameters of Table II
  (row-buffer read/write 0.93/1.02 pJ/bit, array read/write 2.47/16.82
  pJ/bit).  Writes always pay the array-write energy (the dominant PCM
  cost); reads pay the array-read energy only on a row-buffer conflict.
* Cache access energy per L1/LLC access.
* Core energy per retired instruction.

The per-access and per-instruction coefficients are public attributes:
the cache hierarchy's hit paths and the cores' retirement add them to
the :class:`MachineStats` totals in their own frames, the same float
additions in the same order as :meth:`cache_access` and
:meth:`instructions`.
"""

from __future__ import annotations

from .config import EnergyConfig
from .stats import MachineStats


class EnergyModel:
    """Accumulates dynamic energy into a :class:`MachineStats`."""

    def __init__(self, config: EnergyConfig, stats: MachineStats) -> None:
        self._config = config
        self._stats = stats
        self.l1_access_pj = config.l1_access_pj
        self.llc_access_pj = config.llc_access_pj
        self.instruction_pj = config.instruction_pj

    def nvram_read(self, size_bytes: int, row_hit: bool) -> None:
        """Charge a NVRAM read of ``size_bytes`` (row hit or conflict)."""
        bits = size_bytes * 8
        pj = self._config.nvram_row_buffer_read_pj_per_bit * bits
        if not row_hit:
            pj += self._config.nvram_array_read_pj_per_bit * bits
        self._stats.energy_nvram_pj += pj

    def nvram_write(self, size_bytes: int, row_hit: bool) -> None:
        """Charge a NVRAM write; array-write energy always applies."""
        bits = size_bytes * 8
        pj = self._config.nvram_row_buffer_write_pj_per_bit * bits
        pj += self._config.nvram_array_write_pj_per_bit * bits
        self._stats.energy_nvram_pj += pj

    def cache_access(self, level: str) -> None:
        """Charge one access to ``level`` ("l1" or "llc")."""
        if level == "l1":
            self._stats.energy_cache_pj += self.l1_access_pj
        else:
            self._stats.energy_cache_pj += self.llc_access_pj

    def instructions(self, count: int) -> None:
        """Charge ``count`` retired instructions of core energy."""
        self._stats.energy_core_pj += self.instruction_pj * count
