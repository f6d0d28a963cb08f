"""The assembled machine: cores, caches, memory controller, logging.

Address-space layout (all inside the NVRAM device; the paper's DRAM side
holds non-persistent data and is not evaluated):

* ``[HEAP_BASE, log_base)`` — persistent heap (working data);
* ``[log_base, nvram_size)`` — the circular log region
  (:attr:`SystemConfig.log_base <repro.sim.config.SystemConfig.log_base>`),
  one ring or one per thread (:func:`~repro.core.multilog.log_rings`).

The machine wires the persistence machinery selected by the
:class:`~repro.core.design.DesignSpec` mechanisms: the HWL engine and
log buffer for hardware-logging designs, a
:class:`~repro.core.softlog.SoftwareLog` for software designs, and the
FWB scanner when the spec's write-back discipline is ``fwb``.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.fwb import ForceWriteBack
from ..core.growlog import GrowableCircularLog, RegionDirectory
from ..core.hwl import HardwareLogging
from ..core.logbuffer import LogBuffer
from ..core.multilog import LogRouter, log_rings
from ..core.design import NON_PERS, DesignSpec, resolve_design
from ..core.recovery import reset_log_regions
from ..core.registers import SpecialRegisters
from ..core.softlog import SoftwareLog
from ..errors import ConfigError, SimulationError
from .config import SystemConfig
from .core import Core
from .energy import EnergyModel
from .hierarchy import CacheHierarchy
from .memctrl import MemoryController
from .nvram import NVRAM
from .stats import MachineStats
from .wcb import WriteCombiningBuffer

HEAP_BASE = 4096
_RETIRE_PERIOD = 4096  # ops between housekeeping passes


def _wcb_drain(wcbs: list) -> Callable[[int, float], float]:
    """A write-back release hook that drains every buffer in ``wcbs``
    and returns the last record completion.

    The hook holds the buffers, not the machine: a bound method of the
    machine stored on its hierarchy would close a reference cycle, and
    every software-logging machine (and its NVRAM image) would then wait
    for the cyclic garbage collector.
    """

    def drain(_line_addr: int, now: float) -> float:
        release = 0.0
        for wcb in wcbs:
            release = max(release, wcb.flush(now))
        return release

    return drain


def _grow_arena(floor: int, top: int, regions: int) -> Callable[[int], int]:
    """A log-region allocator carving regions downward from ``top``,
    never below ``floor``; the arena holds ``regions`` regions.

    Like :func:`_wcb_drain`, it keeps its own cursor rather than the
    machine's: a bound method of the machine stored on its log would
    close a reference cycle.  Running out is a :class:`ConfigError`:
    the configuration reserved too few regions for this run.
    """
    cursor = top

    def allocate(size_bytes: int) -> int:
        nonlocal cursor
        if cursor - size_bytes < floor:
            raise ConfigError(
                f"log growth arena exhausted: the run needs more than "
                f"log_grow_reserve_regions={regions} region(s) of "
                f"{size_bytes} bytes"
            )
        cursor -= size_bytes
        return cursor

    return allocate


class Machine:
    """A complete simulated system under one persistence policy."""

    def __init__(self, config: SystemConfig, policy=NON_PERS) -> None:
        config.validate()
        self.config = config
        self.policy: DesignSpec = resolve_design(policy)
        policy = self.policy
        self.stats = MachineStats()
        self.energy = EnergyModel(config.energy, self.stats)
        self.nvram = NVRAM(config.nvram)
        self.memctrl = MemoryController(
            config.memctrl,
            config.nvram,
            self.nvram,
            self.energy,
            self.stats,
            config.core.clock_ghz,
        )
        self.hierarchy = CacheHierarchy(config, self.memctrl, self.energy, self.stats)
        self.registers = SpecialRegisters()

        logging = config.logging
        self.log_base = config.log_base
        heap_limit = self.log_base
        if logging.enable_log_grow:
            # Reserve the directory block and a growth arena below the
            # primary log region.
            directory = RegionDirectory.below(self.nvram, self.log_base)
            arena_bytes = logging.log_grow_reserve_regions * logging.log_bytes
            heap_limit = directory.addr - arena_bytes
        if heap_limit <= HEAP_BASE:
            raise SimulationError("log region leaves no room for the heap")
        self._heap_limit = heap_limit

        if logging.enable_log_grow:
            self.log = GrowableCircularLog(
                self.log_base,
                logging.log_entries,
                logging.log_entry_size,
                config.line_size,
                region_allocator=_grow_arena(
                    heap_limit, directory.addr, logging.log_grow_reserve_regions
                ),
                activity_token=self.registers.activity_token,
                directory=directory,
            )
            self.logs = [self.log]
        else:
            self.logs = log_rings(config)
            self.log = self.logs[0]

        self.hwl: Optional[HardwareLogging] = None
        self.log_buffer: Optional[LogBuffer] = None
        self.log_buffers: list = []
        self.log_router: Optional[LogRouter] = None
        self.swlog: Optional[SoftwareLog] = None
        self.fwb: Optional[ForceWriteBack] = None
        if policy.uses_hw_logging:
            buffers = [
                LogBuffer(logging.log_buffer_entries, self.memctrl, self.stats)
                for _ in self.logs
            ]
            self.log_buffer = buffers[0]
            self.log_buffers = buffers
            self.log_router = LogRouter(self.logs, buffers)
            self.hwl = HardwareLogging(
                self.log_router,
                self.hierarchy,
                self.registers,
                self.stats,
                record_undo=policy.logs_undo,
                record_redo=policy.logs_redo,
                protect_wrap=policy.protects_log_wrap,
            )
        if policy.uses_sw_logging:
            self.swlog = SoftwareLog(
                self.log,
                self.registers,
                record_undo=policy.logs_undo,
                record_redo=policy.logs_redo,
            )
        if policy.uses_fwb:
            self.fwb = ForceWriteBack(config, self.hierarchy, self.stats)

        self.cores = [
            Core(
                core_id,
                config.core,
                self.hierarchy,
                WriteCombiningBuffer(
                    config.logging.wcb_entries,
                    config.line_size,
                    self.memctrl,
                    self.stats,
                ),
                self.stats,
                self.energy,
                hwl=self.hwl,
            )
            for core_id in range(config.num_cores)
        ]
        self._drain_wcbs = _wcb_drain([core.wcb for core in self.cores])
        if policy.uses_sw_logging and policy.persistence_guaranteed:
            # Software log records must not be overtaken by their data
            # lines; flush the WCBs before any data write-back.
            self.hierarchy.writeback_release_hook = self._drain_wcbs
        self.thread_cores = self.cores
        """Cores whose clocks bound the NVRAM journal's retire horizon:
        every core, unless a :class:`~repro.sched.shard.ShardMachine`
        names the ones it runs threads on (an idle core's clock would
        hold the horizon at its start)."""
        self.crashed = False
        self._ops_since_retire = 0
        self._tracer = None
        self._log_tap = None
        self.fault_monitor = None
        """Optional :class:`~repro.faults.crashpoints.FaultMonitor`
        observing every issued op (and, via the stats counters,
        log-buffer drains, FWB scans, and log-wrap forces).  It may raise
        :class:`~repro.errors.SimulatedCrash` to request an
        event-indexed crash; None (the default) costs one attribute
        test per op."""

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        """Optional :class:`~repro.sim.trace.Tracer` recording tx/store/
        log/FWB/crash events; None (the default) costs nothing.  Setting
        it propagates to every component that emits events (cores, NVRAM,
        HWL engine, log buffers, FWB scanner)."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        self.nvram.tracer = tracer
        for core in self.cores:
            core.tracer = tracer
        if self.hwl is not None:
            self.hwl.tracer = tracer
        for index, buffer in enumerate(self.log_buffers):
            buffer.tracer = tracer
            buffer.ident = index
        if self.fwb is not None:
            self.fwb.tracer = tracer

    @property
    def log_tap(self):
        """Optional log-stream tap; None (the default) costs nothing.

        The tap (a :class:`~repro.dist.ship.LogStreamCollector`) is told
        of every log record where it is placed — by the HWL engine or by
        the transaction runtime — of every reported commit, and of every
        timed NVRAM write, which is how software records learn when they
        became durable.  It works with or without a tracer attached.
        """
        return self._log_tap

    @log_tap.setter
    def log_tap(self, tap) -> None:
        self._log_tap = tap
        self.nvram.log_tap = tap
        if self.hwl is not None:
            self.hwl.log_tap = tap

    # ------------------------------------------------------------------
    # Address-space helpers
    # ------------------------------------------------------------------
    @property
    def heap_base(self) -> int:
        """First usable heap address."""
        return HEAP_BASE

    @property
    def heap_limit(self) -> int:
        """One past the last usable heap address."""
        return self._heap_limit

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def issue(self, core: Core, op, *args):
        """Run one op on ``core`` with the per-op housekeeping around it.

        ``op`` is one of ``core``'s bound ``exec_*`` methods and ``args``
        its arguments; the op's own result is returned.  Around the call
        the machine refuses to run after a crash, lets the FWB scanner
        catch up to the core clock, reports a ``log_wrap_force`` event
        when the op forced write-backs to protect the log, tells the
        fault monitor, and retires settled memory-controller state every
        ``_RETIRE_PERIOD`` ops, up to the slowest of :attr:`thread_cores`.
        """
        if self.crashed:
            raise SimulationError("machine has crashed; no further execution")
        tracer = self._tracer
        if tracer is not None:
            forces_before = self.stats.log_wrap_forced_writebacks
        fwb = self.fwb
        if fwb is not None and core.time >= fwb.next_scan:
            fwb.maybe_scan(core.time)
        result = op(*args)
        if tracer is not None:
            forces = self.stats.log_wrap_forced_writebacks - forces_before
            if forces:
                tracer.emit(core.time, "log_wrap_force", core.core_id, count=forces)
        if self.fault_monitor is not None:
            self.fault_monitor.after_op(core.time, self.stats)
        self._ops_since_retire += 1
        if self._ops_since_retire >= _RETIRE_PERIOD:
            self._ops_since_retire = 0
            self.memctrl.retire(min(c.time for c in self.thread_cores))
        return result

    def core_time(self, core_id: int) -> float:
        """Local clock of ``core_id``."""
        return self.cores[core_id].time

    def advance_core(self, core_id: int, cycle: float) -> float:
        """Advance ``core_id``'s clock to ``cycle`` if it lags (idle wait).

        Used by the steppable-shard scheduler (:mod:`repro.sched`) when a
        core that was parked on an empty request queue resumes at a
        request's arrival instant: the elapsed gap is idle time, not
        executed instructions, so only the clock moves.  Returns the
        core's (possibly unchanged) clock.
        """
        core = self.cores[core_id]
        if cycle > core.time:
            core.time = cycle
        return core.time

    def force_line_durable(self, line_addr: int, now: float) -> float:
        """Force a dirty line to NVRAM (software log-wrap protection).

        Returns the time at which the line is durable (``now`` if it was
        already clean).
        """
        completion = self.hierarchy.force_writeback(line_addr, now)
        if completion is None:
            return now
        self.stats.log_wrap_forced_writebacks += 1
        return completion

    # ------------------------------------------------------------------
    # Safe-switch epoch barrier (repro.adapt)
    # ------------------------------------------------------------------
    def switch_design(self, new_policy) -> float:
        """Atomically swap the active :class:`DesignSpec` at an epoch barrier.

        The barrier makes the swap invisible to recovery: with no
        transaction in flight (the caller switches between transactions;
        see :meth:`repro.sched.shard.ShardMachine.switch_design`), it
        drains every write-combining buffer, waits for the volatile log
        FIFOs to settle on the NVRAM bus, and forces every dirty cached line
        durable.  After that, every pre-switch log record belongs to a
        committed transaction whose data is durable, so a crash on either
        side of the swap recovers to the same image under either spec.

        Only guarantee-preserving transitions are legal
        (:func:`repro.core.design.check_switch_transition`): same log
        backend, same commit protocol, equal ``persistence_guaranteed``
        — e.g. ``clwb`` ↔ ``fwb`` ↔ ``nowb`` under ``hw+undo+redo``, or
        ``undo`` ↔ ``undo+redo`` under ``sw+clwb``.

        Returns the barrier completion cycle (all cores advanced to it).
        An installed fault monitor observes ``switch-before`` /
        ``switch-after`` events exactly at the barrier, so crash points
        can land on either side of the swap.
        """
        from ..core.design import check_switch_transition

        if self.crashed:
            raise SimulationError("machine has crashed; no design switch")
        new = resolve_design(new_policy)
        old = self.policy
        now = max((core.time for core in self.cores), default=0.0)
        if new == old:
            return now
        check_switch_transition(old, new)
        if self.hwl is not None and self.hwl.active_transactions:
            raise SimulationError(
                "design switch requires quiesced transactions; "
                f"{self.hwl.active_transactions} still in flight"
            )

        # (1) Drain the write-combining buffers: pre-switch log records
        # must be on NVRAM before their data lines can be stolen.
        barrier = max(now, self._drain_wcbs(0, now))
        # (2) Let the volatile log FIFOs settle on the NVRAM bus.
        for buffer in self.log_buffers:
            barrier = max(barrier, buffer.last_completion)
        # (3) Force every dirty cached line durable, in address order:
        # after this, no pre-switch undo record is still needed and no
        # logged line is awaiting write-back.
        dirty = set()
        for l1 in self.hierarchy.l1s:
            for line in l1.iter_lines():
                if line.dirty:
                    dirty.add(line.addr)
        for line in self.hierarchy.llc.iter_lines():
            if line.dirty:
                dirty.add(line.addr)
        issue = barrier
        for line_addr in sorted(dirty):
            completion = self.hierarchy.force_writeback(line_addr, issue)
            if completion is not None:
                barrier = max(barrier, completion)
        # (4) Wait out every write still in flight on the NVRAM banks:
        # a clwb posted just before the barrier is clean in cache (so the
        # dirty scan skips it) but not yet durable — the epoch boundary
        # must lie after its completion, or that write straddles it.
        for free in self.nvram.bank_write_free:
            barrier = max(barrier, free)

        if self.fault_monitor is not None:
            from ..faults.crashpoints import EventKind

            self.fault_monitor.at_switch(EventKind.SWITCH_BEFORE, barrier)

        # --- the swap: retune every engine the spec parameterizes ---
        self.policy = new
        truncated = old.log_content is not new.log_content
        if truncated:
            # Changing the record *content* makes pre-switch records
            # poisonous: a committed undo+redo record still in the ring
            # would be replayed by recovery and clobber data that a later
            # undo-only transaction persisted in place (which logs no
            # superseding redo).  The barrier proved every pre-switch
            # record's data durable, so the records are dead — truncate
            # the ring(s) with recovery's crash-safe marker sequence.
            # These system-software pokes don't ride the memory pipeline
            # (the barrier already quiesced it), so the swap stays
            # instantaneous.  Write-back-policy switches keep the ring:
            # both epochs record the same sides, so replay stays sound.
            for log in self.logs:
                reset_log_regions(self.nvram, log.region_views())
        if self.hwl is not None:
            self.hwl.retune(
                record_undo=new.logs_undo,
                record_redo=new.logs_redo,
                protect_wrap=new.protects_log_wrap,
            )
        if self.swlog is not None:
            self.swlog.retune(
                record_undo=new.logs_undo, record_redo=new.logs_redo
            )
        if new.uses_fwb:
            if self.fwb is None:
                self.fwb = ForceWriteBack(self.config, self.hierarchy, self.stats)
                self.fwb.tracer = self._tracer
            # Scans restart from the barrier, not from cycle zero.
            self.fwb.next_scan = barrier + self.fwb.interval
        else:
            self.fwb = None
        self.hierarchy.writeback_release_hook = (
            self._drain_wcbs
            if new.uses_sw_logging and new.persistence_guaranteed
            else None
        )

        self.stats.design_switches += 1
        self.stats.switch_barrier_cycles += barrier - now
        for core in self.cores:
            self.advance_core(core.core_id, barrier)
        if self._tracer is not None:
            self._tracer.emit(
                barrier,
                "design_switch",
                -1,
                old=old.mechanism_string(),
                new=new.mechanism_string(),
                truncated=truncated,
            )
        if self.fault_monitor is not None:
            from ..faults.crashpoints import EventKind

            self.fault_monitor.at_switch(EventKind.SWITCH_AFTER, barrier)
        return barrier

    # ------------------------------------------------------------------
    # End of run / crash
    # ------------------------------------------------------------------
    def finalize(self) -> MachineStats:
        """Record per-core totals and overall cycle count; return stats."""
        self.stats.cycles = max((core.time for core in self.cores), default=0.0)
        for core in self.cores:
            self.stats.record_core(core.core_id, core.instret, core.time)
        return self.stats

    def crash_at_point(self, event) -> float:
        """Crash at the instant an event-indexed crash point fired.

        ``event`` is the :class:`~repro.errors.SimulatedCrash` raised by
        an installed fault monitor; the crash lands exactly at the core
        clock of the triggering event, so the surviving NVRAM state is a
        pure function of (configuration, crash point).
        """
        return self.crash(at_time=event.at_time)

    def crash(self, at_time: Optional[float] = None) -> float:
        """Power failure at ``at_time`` (default: the latest core clock).

        All volatile state disappears: caches, WCBs, the log buffer, and
        any NVRAM write that had not completed by the crash instant.
        Returns the crash time.  Only the NVRAM image survives; recover
        it with :func:`repro.core.recovery.recover_image`.

        Raises :class:`SimulationError`, leaving the machine running,
        when ``at_time`` lies before the NVRAM journal's retire horizon
        (see :meth:`NVRAM.revert_after <repro.sim.nvram.NVRAM.revert_after>`).
        """
        crash_time = at_time
        if crash_time is None:
            crash_time = max((core.time for core in self.cores), default=0.0)
        # Reverts first: a crash instant the journal can no longer
        # revert is refused before anything (the trace included) sees it.
        self.nvram.revert_after(crash_time)
        if self._tracer is not None:
            self._tracer.emit(crash_time, "crash")
        self.hierarchy.drop_all()
        for core in self.cores:
            core.wcb.drop()
        self.crashed = True
        self.finalize()
        return crash_time
