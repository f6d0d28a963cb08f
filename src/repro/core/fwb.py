"""Cache Force Write-Back (FWB) mechanism (Sections III-C, IV-D).

This scanner is the ``fwb`` value of the write-back axis in the
mechanism space (:mod:`repro.core.design`): the machine arms it for any
design with ``DesignSpec.uses_fwb``, canonical or composed (e.g. the
``sw+redo+fwb`` ablation point), independently of the log backend.

Each cache line carries an ``fwb`` bit alongside its dirty bit, driving a
three-state machine maintained by the cache controller:

* ``{fwb, dirty} = {0, 0}`` — IDLE: nothing to do;
* ``{fwb, dirty} = {0, 1}`` — FLAG: first scan sets ``fwb`` = 1;
* ``{fwb, dirty} = {1, 1}`` — FWB: second scan forces the write-back and
  resets the line to IDLE.

A line whose dirty bit clears for any other reason (normal eviction,
clwb) drops back to IDLE.  L1 force write-backs push the line into the
LLC; LLC force write-backs post it to NVRAM.

Scan frequency: write-backs must outrun log wrap-around.  The tail can
advance no faster than the NVRAM write bandwidth allows log entries to be
written, so the wrap period is bounded below by
``log_entries / peak_entry_rate`` and the scan interval is that period
divided by a safety factor (two scans are needed to move a line through
FLAG to FWB).  We bound the peak entry rate by the row-conflict write
latency — every log write charged as a conflict — which lands the
Table II machine with a 64K-entry (4 MB) log at a ~3M-cycle period,
matching Figure 11(b).

Scan cost: scanning deposits ``lines * fwb_scan_cost_per_line`` cycles of
debt into the hierarchy; accesses pay it back one cycle at a time
(~3.6% overhead for an 8 MB LLC, Section VI).
"""

from __future__ import annotations

from functools import partial

from ..sim.config import SystemConfig
from ..sim.hierarchy import CacheHierarchy
from ..sim.stats import MachineStats
from ..utils import ns_to_cycles


def required_scan_interval(config: SystemConfig) -> float:
    """Scan period (cycles) guaranteeing write-backs beat log wrap-around."""
    logging = config.logging
    if logging.fwb_scan_interval_override is not None:
        return float(logging.fwb_scan_interval_override)
    write_service = ns_to_cycles(
        config.nvram.write_conflict_ns, config.core.clock_ghz
    )
    line = config.line_size
    peak_bytes_per_cycle = config.nvram.num_banks * line / write_service
    peak_entries_per_cycle = peak_bytes_per_cycle / logging.log_entry_size
    wrap_period = logging.log_entries / peak_entries_per_cycle
    return wrap_period / logging.fwb_safety_factor


def required_scan_frequency(config: SystemConfig) -> float:
    """Scans per cycle (the y-axis of Figure 11(b))."""
    return 1.0 / required_scan_interval(config)


class ForceWriteBack:
    """Periodic scanner implementing the FWB state machine."""

    def __init__(
        self,
        config: SystemConfig,
        hierarchy: CacheHierarchy,
        stats: MachineStats,
    ) -> None:
        self._config = config
        self._hierarchy = hierarchy
        self._stats = stats
        self.interval = required_scan_interval(config)
        self.next_scan = self.interval
        self._cost_per_line = config.logging.fwb_scan_cost_per_line
        self.tracer = None
        """Optional tracer (set by the machine's ``tracer`` property);
        emits one ``fwb_scan`` event per tag pass."""

    def maybe_scan(self, now: float) -> None:
        """Run scans that have come due by ``now``."""
        while now >= self.next_scan:
            self.scan(self.next_scan)
            self.next_scan += self.interval

    def scan(self, now: float) -> None:
        """One pass over every cache's tags (the FSM of Figure 5).

        Each line steps through the state machine in place: a clean line
        drops back to IDLE, a dirty IDLE line is FLAGged, a dirty FLAG
        line is forced back (L1s into the LLC, the LLC to NVRAM).
        """
        stats = self._stats
        hierarchy = self._hierarchy
        stats.fwb_scans += 1
        writebacks_before = stats.fwb_writebacks
        caches = [
            (l1, partial(hierarchy.fwb_writeback_l1, core_id))
            for core_id, l1 in enumerate(hierarchy.l1s)
        ]
        caches.append((hierarchy.llc, hierarchy.fwb_writeback_llc))
        scanned = 0
        for cache, writeback in caches:
            # Listed before any line steps: a forced write-back may move
            # lines between sets while the scan runs.
            lines = list(cache.iter_lines())
            scanned += len(lines)
            for line in lines:
                if not line.dirty:
                    if line.fwb:
                        line.fwb = False  # dirty cleared elsewhere: back to IDLE
                elif not line.fwb:
                    line.fwb = True  # FLAG
                else:
                    writeback(line, now)
                    stats.fwb_writebacks += 1
        stats.fwb_lines_scanned += scanned
        hierarchy.add_scan_debt(scanned * self._cost_per_line)
        if self.tracer is not None:
            self.tracer.emit(
                now,
                "fwb_scan",
                -1,
                lines=scanned,
                writebacks=stats.fwb_writebacks - writebacks_before,
            )
