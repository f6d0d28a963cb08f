"""The assembled machine: cores, caches, memory controller, logging.

Address-space layout (all inside the NVRAM device; the paper's DRAM side
holds non-persistent data and is not evaluated):

* ``[HEAP_BASE, log_base)`` — persistent heap (working data);
* ``[log_base, nvram_size)`` — the circular log region, where
  ``log_base = nvram_size - log_entries * log_entry_size``.

The machine wires the persistence machinery selected by the
:class:`~repro.core.design.DesignSpec` mechanisms: the HWL engine and
log buffer for hardware-logging designs, a
:class:`~repro.core.softlog.SoftwareLog` for software designs, and the
FWB scanner when the spec's write-back discipline is ``fwb``.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.fwb import ForceWriteBack
from ..core.growlog import DIRECTORY_BYTES, GrowableCircularLog, RegionDirectory
from ..core.hwl import HardwareLogging
from ..core.logbuffer import LogBuffer
from ..core.multilog import LogRouter, split_log_region
from ..core.design import NON_PERS, DesignSpec, resolve_design
from ..core.nvlog import CircularLog
from ..core.registers import SpecialRegisters
from ..core.softlog import SoftwareLog
from ..errors import SimulationError
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


def _grow_arena(floor: int, top: int) -> Callable[[int], int]:
    """A log-region allocator carving regions downward from ``top``,
    never below ``floor``.

    Like :func:`_wcb_drain`, it keeps its own cursor rather than the
    machine's: a bound method of the machine stored on its log would
    close a reference cycle.
    """
    cursor = top

    def allocate(size_bytes: int) -> int:
        nonlocal cursor
        if cursor - size_bytes < floor:
            raise SimulationError("log growth arena exhausted")
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
        self.nvram = NVRAM(config.nvram, config.track_crash_state)
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
        log_bytes = logging.log_bytes
        self.log_base = config.nvram.size_bytes - log_bytes
        heap_limit = self.log_base
        self.log_directory_addr: Optional[int] = None
        if logging.enable_log_grow:
            # Reserve the directory block and a growth arena below the
            # primary log region.
            self.log_directory_addr = self.log_base - DIRECTORY_BYTES
            arena_bytes = logging.log_grow_reserve_regions * log_bytes
            heap_limit = self.log_directory_addr - arena_bytes
        if heap_limit <= HEAP_BASE:
            raise SimulationError("log region leaves no room for the heap")
        self._heap_limit = heap_limit

        if logging.enable_log_grow:
            self.log = GrowableCircularLog(
                self.log_base,
                logging.log_entries,
                logging.log_entry_size,
                config.line_size,
                region_allocator=_grow_arena(heap_limit, self.log_directory_addr),
                activity_token=self.registers.activity_token,
                directory=RegionDirectory(self.nvram, self.log_directory_addr),
            )
            self.logs = [self.log]
        elif logging.distributed_logs > 0:
            self.logs = split_log_region(
                self.log_base,
                logging.log_entries,
                logging.log_entry_size,
                logging.distributed_logs,
                config.line_size,
            )
            self.log = self.logs[0]
        else:
            self.log = CircularLog(
                self.log_base,
                logging.log_entries,
                logging.log_entry_size,
                config.line_size,
            )
            self.logs = [self.log]

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
        ``_RETIRE_PERIOD`` ops.
        """
        if self.crashed:
            raise SimulationError("machine has crashed; no further execution")
        tracer = self._tracer
        if tracer is not None:
            forces_before = self.stats.log_wrap_forced_writebacks
        if self.fwb is not None:
            self.fwb.maybe_scan(core.time)
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
            self.memctrl.retire(min(c.time for c in self.cores))
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
        transaction in flight (the caller quiesces threads first — see
        :meth:`repro.sched.shard.ShardMachine.switch_design`), it drains
        every write-combining buffer, waits for the volatile log FIFOs to
        settle on the NVRAM bus, and forces every dirty cached line
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
            # the ring(s) with the recovery manager's crash-safe marker
            # sequence.  Write-back-policy switches keep the ring: both
            # epochs record the same sides, so replay stays sound.
            self._truncate_logs_at_barrier()
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

    def _truncate_logs_at_barrier(self) -> None:
        """Invalidate every log entry and rewind the ring(s) to empty.

        Only called from a clean epoch barrier (all records committed,
        all logged data durable in place).  Uses the same crash-safe
        ordering as recovery's log reset: slot 0 takes the reset marker
        first — a region whose slot 0 holds the marker scans as empty —
        then the remaining slots are cleared, then the marker itself.
        The system-software pokes don't ride the memory pipeline (the
        barrier already quiesced it), so the swap stays instantaneous.
        """
        from ..core.logrecord import reset_marker

        for log in self.logs:
            for view in log.region_views():
                marker = reset_marker(view.entry_size)
                zero = bytes(view.entry_size)
                self.nvram.poke(view.entry_addr(0), marker)
                for slot in range(1, view.num_entries):
                    self.nvram.poke(view.entry_addr(slot), zero)
                self.nvram.poke(view.entry_addr(0), zero)
                view.tail = 0
                view.head = 0
                view.parity = 1
                view.wrapped = False
                view._slot_lines = [None] * view.num_entries
                view._slot_kinds = [None] * view.num_entries

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
        with :class:`repro.core.recovery.RecoveryManager`.
        """
        crash_time = at_time
        if crash_time is None:
            crash_time = max((core.time for core in self.cores), default=0.0)
        if self._tracer is not None:
            self._tracer.emit(crash_time, "crash")
        self.nvram.revert_after(crash_time)
        self.hierarchy.drop_all()
        for core in self.cores:
            core.wcb.drop()
        self.crashed = True
        self.finalize()
        return crash_time
