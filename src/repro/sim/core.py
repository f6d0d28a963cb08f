"""Core execution model.

Each core executes its ops in program order, charging a calibrated
latency per op.  The model is not cycle-accurate out-of-order; instead,
``*_exposed`` factors in :class:`~repro.sim.config.CoreConfig` express the
fraction of a miss latency the instruction window cannot hide.  This is
sufficient because the paper's results are relative across persistence
designs running identical workloads.

Per-core state relevant to persistence:

* ``pending_completion`` — the latest durability time of writes this core
  has posted via clwb or the WCB; ``sfence`` waits for it;
* a private write-combining buffer for uncacheable software log stores.

Each op is one scalar ``exec_*`` method taking plain arguments: the
single source of its timing and stat formulas.  The transaction runtime
(:mod:`repro.txn.runtime`) and the trace-replay engine
(:mod:`repro.sim.replay`) both run them through
:meth:`~repro.sim.machine.Machine.issue`, which adds the per-op
housekeeping around each call.
"""

from __future__ import annotations

from typing import Optional

from .config import CoreConfig
from .energy import EnergyModel
from .hierarchy import CacheHierarchy
from .stats import MachineStats
from .wcb import WriteCombiningBuffer


class Core:
    """One simulated core with a local clock and retired-instruction count."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        hierarchy: CacheHierarchy,
        wcb: WriteCombiningBuffer,
        stats: MachineStats,
        energy: EnergyModel,
        hwl=None,
    ) -> None:
        self.core_id = core_id
        self._config = config
        self._hierarchy = hierarchy
        self.wcb = wcb
        self._stats = stats
        self._hwl = hwl
        self._instruction_pj = energy.instruction_pj
        self._l1_latency = hierarchy.l1_latency
        self._cpi_alu = config.cpi_alu
        self._load_hit_cycles = config.load_issue_cycles + 1.0
        self.time = 0.0
        self.instret = 0
        self.pending_completion = 0.0
        self.tracer = None
        """Optional tracer (set by the machine's ``tracer`` property);
        emits one ``store`` event per retired cacheable store and one
        ``tx_begin``/``tx_commit`` event per transaction boundary."""

    # ------------------------------------------------------------------
    # Every op retires its instructions in its own frame: ``instret``,
    # ``stats.instructions`` and the core energy (``instruction_pj``
    # per instruction, as :meth:`EnergyModel.instructions` charges it).

    def exec_compute(self, count: int) -> None:
        """``count`` ALU/branch instructions."""
        self.instret += count
        stats = self._stats
        stats.instructions += count
        stats.energy_core_pj += self._instruction_pj * count
        self.time += count * self._cpi_alu

    def exec_load(self, addr: int, line_addr: int) -> bytearray:
        """Cacheable read of the line at ``line_addr`` holding ``addr``.

        Returns the cached line's data itself, not a copy: a caller that
        wants the loaded bytes slices them out at once, and trace replay,
        which never consumes them, pays nothing for them.
        """
        latency, l1_hit, data = self._hierarchy.load(
            self.core_id, addr, self.time, line_addr
        )
        self.instret += 1
        stats = self._stats
        stats.instructions += 1
        stats.energy_core_pj += self._instruction_pj
        if l1_hit:
            self.time += self._load_hit_cycles
        else:
            extra = latency - self._l1_latency
            self.time += (
                self._config.load_issue_cycles + self._config.load_miss_exposed * extra
            )
        return data

    def exec_store(
        self, addr: int, data: bytes, persistent: bool = False, txid: int = 0, tid: int = 0
    ) -> None:
        """Cacheable write; persistent stores route through the HWL engine."""
        # Two-phase store: allocate the line and capture the old value
        # first; for persistent stores the HWL engine logs undo+redo
        # before the new value becomes visible to write-backs (so a
        # log-wrap force in between can never leak an unlogged value).
        latency, level, old_data, line_addr = self._hierarchy.store_prepare(
            self.core_id, addr, len(data), self.time
        )
        self.instret += 1
        stats = self._stats
        stats.instructions += 1
        stats.energy_core_pj += self._instruction_pj
        charge = self._config.store_issue_cycles
        if level != "l1":
            extra = latency - self._l1_latency
            charge += self._config.store_miss_exposed * extra
        self.time += charge
        release = 0.0
        if persistent and self._hwl is not None:
            stall, release = self._hwl.on_store(
                self.core_id,
                txid,
                tid,
                addr,
                old_data,
                data,
                line_addr,
                self.time,
            )
            self.time += stall
        self._hierarchy.store_finish(self.core_id, addr, data, release)
        if self.tracer is not None:
            self.tracer.emit(
                self.time,
                "store",
                self.core_id,
                addr=addr,
                size=len(data),
                persistent=persistent,
                txid=txid if persistent else None,
                tid=tid if persistent else None,
                line=line_addr,
                old=old_data.hex(),
                new=data.hex(),
                release=release,
            )

    def exec_logstore(self, addr: int, payload: bytes) -> None:
        """Uncacheable software log-record store through the WCB."""
        self.instret += 1
        stats = self._stats
        stats.instructions += 1
        stats.energy_core_pj += self._instruction_pj
        self.time += self._config.uncached_store_issue_cycles
        stall = self.wcb.push(addr, payload, self.time)
        self.time += stall
        stats.log_records += 1
        stats.log_bytes += len(payload)

    def exec_clwb(self, addr: int) -> None:
        """Force write-back of the line containing ``addr``."""
        self.instret += 1
        stats = self._stats
        stats.instructions += 1
        stats.energy_core_pj += self._instruction_pj
        self.time += self._config.clwb_issue_cycles
        completion = self._hierarchy.clwb(self.core_id, addr, self.time)
        if completion is not None:
            self.pending_completion = max(self.pending_completion, completion)

    def exec_fence(self) -> None:
        """Wait for this core's posted writes to become durable (sfence)."""
        self.instret += 1
        stats = self._stats
        stats.instructions += 1
        stats.energy_core_pj += self._instruction_pj
        self.time += self._config.fence_issue_cycles
        self.wcb.flush(self.time)
        self.pending_completion = max(self.pending_completion, self.wcb.last_completion)
        if self.pending_completion > self.time:
            stats.fence_stall_cycles += self.pending_completion - self.time
            self.time = self.pending_completion

    def exec_tx_begin(self, txid: int, tid: int, overhead_instrs: int) -> None:
        """Transaction begin (sets the txid special register)."""
        stats = self._stats
        stats.transactions_started += 1
        if overhead_instrs:
            self.instret += overhead_instrs
            stats.instructions += overhead_instrs
            stats.energy_core_pj += self._instruction_pj * overhead_instrs
            self.time += overhead_instrs * self._cpi_alu
        if self._hwl is not None:
            self._hwl.on_tx_begin(txid, tid, self.time)
        if self.tracer is not None:
            self.tracer.emit(self.time, "tx_begin", self.core_id, txid=txid, tid=tid)

    def exec_tx_commit(self, txid: int, tid: int, overhead_instrs: int) -> Optional[float]:
        """Transaction commit; returns the HWL durability time, if any."""
        stats = self._stats
        stats.transactions_committed += 1
        if overhead_instrs:
            self.instret += overhead_instrs
            stats.instructions += overhead_instrs
            stats.energy_core_pj += self._instruction_pj * overhead_instrs
            self.time += overhead_instrs * self._cpi_alu
        durable = None
        if self._hwl is not None:
            durable = self._hwl.on_tx_commit(txid, tid, self.time)
        if self.tracer is not None:
            self.tracer.emit(
                self.time,
                "tx_commit",
                self.core_id,
                txid=txid,
                tid=tid,
                durable=float(durable) if isinstance(durable, float) else None,
            )
        return durable
