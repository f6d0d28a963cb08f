"""Drift scenarios: workload phase shifts the controller must catch.

A drift scenario is an ordinary open-loop serve run whose request stream
changes character mid-run: each :class:`DriftPhase` remaps the uniform
draws the traffic generator already emits (``op_u`` through the phase's
update ratio, ``key_u`` into a sub-range of the key-popularity table),
so a write-mix shift or hot-key churn costs no new workload code and
stays a pure function of the configuration.

These are exactly the scenarios ROADMAP items 1 and 4 name: no static
:class:`~repro.core.design.DesignSpec` wins every phase — ``nowb`` is
cheapest while the log ring has headroom (no clwb instructions, full
write coalescing), ``clwb`` is cheapest once log wrap starts forcing
dirty lines back — so the adaptive controller, switching at the phase
boundary it *observes* (not one it is told about), beats every static
design on total simulated cycles.  :func:`compare_drift` measures
precisely that claim.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Optional, Tuple

from ..core.design import DesignSpec, legal_switch_targets, resolve_design
from ..errors import ConfigError
from ..harness.runner import RunConfig, build_run
from ..sched.loop import AdmissionConfig, EventLoopScheduler
from ..sched.serve import default_serve_config, prepared_kernel
from ..sched.shard import ShardMachine
from ..sched.traffic import TrafficConfig, open_loop_schedule
from ..sim.config import LoggingConfig, SystemConfig
from ..txn.runtime import ThreadAPI
from ..workloads.rng import ZipfGenerator, thread_rng
from ..workloads.whisper import make_whisper_kernel
from ..workloads.whisper.base import MAX_PARTITIONS
from ..workloads.whisper.ycsb import UPDATE_RATIO, YCSBKernel
from .controller import AdaptiveController
from .table import PolicyTable


@dataclass(frozen=True)
class DriftPhase:
    """One phase of the request stream."""

    requests: int
    update_ratio: float
    """Fraction of requests that are updates (the write mix)."""
    key_lo: float = 0.0
    key_hi: float = 1.0
    """``key_u`` is remapped into ``[key_lo, key_hi)``: a narrow range
    near 0 concentrates on the popular head of the key distribution
    (write coalescing), a range near 1 spreads over the tail (distinct
    lines, wrap pressure)."""

    def validate(self) -> None:
        if self.requests <= 0:
            raise ConfigError("phase requests must be positive")
        if not 0.0 <= self.update_ratio <= 1.0:
            raise ConfigError("update_ratio must be in [0, 1]")
        if not 0.0 <= self.key_lo < self.key_hi <= 1.0:
            raise ConfigError("phase key range needs 0 <= lo < hi <= 1")


def remap_op(op_u: float, update_ratio: float) -> float:
    """Reshape a uniform draw so ``P(op_u' < UPDATE_RATIO) == update_ratio``.

    Piecewise-linear and order-preserving within each half, so the draw
    stays uniform conditioned on the operation chosen.
    """
    if update_ratio <= 0.0:
        return UPDATE_RATIO + op_u * (1.0 - UPDATE_RATIO)
    if update_ratio >= 1.0:
        return op_u * UPDATE_RATIO
    if op_u < update_ratio:
        return op_u * (UPDATE_RATIO / update_ratio)
    return UPDATE_RATIO + (op_u - update_ratio) * (
        (1.0 - UPDATE_RATIO) / (1.0 - update_ratio)
    )


def remap_key(key_u: float, key_lo: float, key_hi: float) -> float:
    """Compress a uniform draw into the phase's key sub-range."""
    return key_lo + key_u * (key_hi - key_lo)


#: The write-back family the drift scenarios (and their statics) range
#: over: hardware undo+redo logging, every write-back discipline.
WRITEBACK_FAMILY = ("hw+undo+redo+nowb", "hw+undo+redo+clwb", "hw+undo+redo+fwb")


def drift_system(threads: int = 2, log_entries: int = 512) -> SystemConfig:
    """The serve-scale system with a log ring small enough to wrap.

    Wrap pressure is the drift signal; the default serve ring (1 Ki
    entries) would take thousands of requests to fill.
    """
    return default_serve_config(
        threads, logging=LoggingConfig(log_entries=log_entries)
    )


@dataclass
class DriftConfig:
    """One drift scenario."""

    workload: str = "ycsb"
    phases: Tuple[DriftPhase, ...] = (
        DriftPhase(256, 0.9, 0.30, 0.65),
        DriftPhase(384, 0.9, 0.65, 1.0),
    )
    """Default drift: a mid-tail update phase whose records fit the log
    ring (``nowb`` free, ``clwb`` pays a write-back per commit on every
    distinct line) into a far-tail update storm that wraps the ring
    (``nowb`` pays inline wrap-force stalls on the first phase's — and
    then its own — still-dirty lines, ``clwb`` clean)."""
    policy: DesignSpec = None
    """The starting design (also the static baseline family's member)."""
    shards: int = 1
    threads: int = 2
    batch_requests: int = 8
    rate: float = 0.02
    arrival: str = "uniform"
    seed: int = 42
    system: Optional[SystemConfig] = None
    admission: AdmissionConfig = field(
        default_factory=lambda: AdmissionConfig(max_queue_depth=1 << 20)
    )
    """Effectively lossless by default: every design must serve the whole
    schedule, so total simulated cycles compares equal completed work
    (a bounded queue would let slow designs shed load and look cheap)."""
    window_txns: int = 4
    drain_checkpoint_cycles: float = 400.0
    """Backlog served after the last arrival still passes controller
    checkpoints every this-many cycles (the drift signal usually peaks
    exactly there — see ``EventLoopScheduler.drain``)."""

    def __post_init__(self) -> None:
        if self.policy is None:
            self.policy = resolve_design(WRITEBACK_FAMILY[0])
        elif not isinstance(self.policy, DesignSpec):
            self.policy = resolve_design(self.policy)

    def validate(self) -> None:
        if not self.phases:
            raise ConfigError("a drift scenario needs at least one phase")
        for phase in self.phases:
            phase.validate()
        if self.shards <= 0 or self.threads <= 0 or self.batch_requests <= 0:
            raise ConfigError("shards, threads, batch_requests must be positive")
        self.admission.validate()

    @property
    def requests(self) -> int:
        return sum(phase.requests for phase in self.phases)

    def traffic(self) -> TrafficConfig:
        return TrafficConfig(
            requests=self.requests,
            rate=self.rate,
            arrival=self.arrival,
            seed=self.seed,
        )

    def phase_dicts(self) -> list:
        return [dataclasses.asdict(phase) for phase in self.phases]


def drift_schedule(config: DriftConfig) -> list:
    """The open-loop schedule with per-phase draw remapping applied."""
    schedule = open_loop_schedule(config.traffic(), config.shards)
    remapped = []
    index = 0
    for phase in config.phases:
        for _ in range(phase.requests):
            request = schedule[index]
            remapped.append(
                dataclasses.replace(
                    request,
                    key_u=remap_key(request.key_u, phase.key_lo, phase.key_hi),
                    op_u=remap_op(request.op_u, phase.update_ratio),
                )
            )
            index += 1
    return remapped


# ----------------------------------------------------------------------
# Closed-loop prefix proxy (the trainer's oracle workload)
# ----------------------------------------------------------------------
class DriftSequenceWorkload(YCSBKernel):
    """A closed-loop *prefix* of a drift scenario.

    The offline optimizer can't grid a phase in isolation: a phase's
    cost depends on the state earlier phases left behind (above all the
    log-ring fill — a wrap storm only exists because the previous phase
    filled the ring).  So the oracle cell for phase *k* plays phases
    ``0..k`` in order and stops; the cell for ``k-1`` issues a
    byte-identical transaction stream up to the phase boundary, and
    differencing the two cells' finalized stats yields phase *k*'s
    **in-context** cost and feature vector, full ring and warm caches
    included.  The harness's ``txns_per_thread`` budget is the whole
    sequence's; it is split across phases by request share.
    """

    name = "ycsb-drift-seq"
    description = "Cumulative drift-phase prefix of the zipfian KV mix."

    def __init__(
        self,
        phases: Tuple[DriftPhase, ...],
        upto: int,
        seed: int = 42,
        value_kind: str = "int",
        keys_per_partition: int = 2048,
    ) -> None:
        super().__init__(seed, value_kind, keys_per_partition)
        self.phases = tuple(phases)
        if not 0 <= upto < len(self.phases):
            raise ConfigError("upto must index one of the phases")
        self.upto = int(upto)

    def phase_budgets(self, num_txns: int) -> list:
        """Per-phase transaction counts for a ``num_txns`` budget."""
        total = sum(phase.requests for phase in self.phases)
        return [
            max(1, round(num_txns * phase.requests / total))
            for phase in self.phases
        ]

    def thread_body(self, api: ThreadAPI, tid: int, num_txns: int) -> Iterator[None]:
        part = tid % MAX_PARTITIONS
        rng = thread_rng(self.seed, tid)
        zipf = ZipfGenerator(self.keys_per_partition)
        budgets = self.phase_budgets(num_txns)
        for index in range(self.upto + 1):
            phase = self.phases[index]
            for txn in range(budgets[index]):
                key_u = remap_key(rng.random(), phase.key_lo, phase.key_hi)
                op_u = remap_op(rng.random(), phase.update_ratio)
                key = zipf.rank(key_u) + 1
                with api.transaction():
                    self._request_ops(api, part, key, op_u < UPDATE_RATIO, txn)
                yield


# ----------------------------------------------------------------------
# Scenario execution
# ----------------------------------------------------------------------
def run_drift(
    config: DriftConfig,
    table: Optional[PolicyTable] = None,
    machine_hook=None,
) -> dict:
    """Run one drift scenario; adaptive when ``table`` is given.

    Returns a JSON-ready report: total simulated cycles (the comparison
    metric), completion counts, deterministic cost counters, and — in
    adaptive mode — the controller's full decision log.
    """
    config.validate()
    if table is not None and table.start is not None:
        config = dataclasses.replace(config, policy=table.start)
    workload = make_whisper_kernel(config.workload, seed=config.seed)
    if not workload.request_shaped:
        raise ConfigError(
            f"workload {config.workload!r} is not request-shaped; drift "
            "scenarios run through the open-loop serve layer"
        )
    system = config.system or drift_system(config.threads)
    prepared = prepared_kernel(workload, system)

    shards = []
    run = RunConfig(policy=config.policy, threads=config.threads, system=system)
    for shard_id in range(config.shards):
        hook = None if machine_hook is None else partial(machine_hook, shard_id)
        machine, pm, workload = build_run(workload, run, prepared, hook)
        shard = ShardMachine(
            machine,
            pm,
            workload,
            threads=config.threads,
            shard_id=shard_id,
            batch_requests=config.batch_requests,
        )
        shard.start_serve()
        shards.append(shard)

    controller = None
    checkpoint = None
    if table is not None:
        controller = AdaptiveController(table, window_txns=config.window_txns)
        checkpoint = controller.checkpoint_for(shards)
    scheduler = EventLoopScheduler(
        shards,
        admission=config.admission,
        checkpoint=checkpoint,
        drain_checkpoint_cycles=(
            config.drain_checkpoint_cycles if checkpoint is not None else None
        ),
    )
    scheduler.run_open_loop(drift_schedule(config))

    total_cycles = 0.0
    completed = 0
    counters = {
        "transactions_committed": 0,
        "instructions": 0,
        "log_records": 0,
        "log_wrap_forced_writebacks": 0,
        "clwb_count": 0,
        "fwb_writebacks": 0,
        "nvram_write_bytes": 0,
        "design_switches": 0,
    }
    final_designs = []
    for shard in shards:
        stats = shard.machine.finalize()
        total_cycles = max(total_cycles, stats.cycles)
        completed += len(shard.completed_requests())
        for name in counters:
            counters[name] += getattr(stats, name)
        final_designs.append(shard.machine.policy.mechanism_string())

    report = {
        "workload": config.workload,
        "phases": config.phase_dicts(),
        "start_design": config.policy.mechanism_string(),
        "adaptive": table is not None,
        "offered": config.requests,
        "admitted": len(scheduler.admitted),
        "rejected": len(scheduler.rejected),
        "completed": completed,
        "total_cycles": total_cycles,
        "final_designs": final_designs,
        "counters": counters,
    }
    if controller is not None:
        report["adaptation"] = controller.summary()
    return report


def compare_drift(
    config: DriftConfig,
    table: Optional[PolicyTable] = None,
    statics=None,
) -> dict:
    """Adaptive run vs. every static design the controller could pick.

    ``statics`` defaults to the scenario's legal switch family (the
    start design plus every spec the table names, closed under
    legality).  The adaptive claim is ``adaptive_wins``: strictly fewer
    total simulated cycles than *each* static run.
    """
    from .table import default_policy_table

    if table is None:
        table = default_policy_table()
    if statics is None:
        family = [resolve_design(name) for name in WRITEBACK_FAMILY]
        for spec in table.specs():
            if spec not in family:
                family.append(spec)
        statics = legal_switch_targets(config.policy, family)
    adaptive = run_drift(config, table=table)
    static_reports = {}
    for spec in statics:
        static_config = dataclasses.replace(config, policy=spec)
        static_reports[spec.mechanism_string()] = run_drift(static_config)

    best_static = min(
        static_reports.items(), key=lambda item: (item[1]["total_cycles"], item[0])
    )
    return {
        "adaptive": adaptive,
        "static": static_reports,
        "best_static": best_static[0],
        "best_static_cycles": best_static[1]["total_cycles"],
        "adaptive_cycles": adaptive["total_cycles"],
        "adaptive_wins": adaptive["total_cycles"] < best_static[1]["total_cycles"],
        "margin": (
            (best_static[1]["total_cycles"] - adaptive["total_cycles"])
            / best_static[1]["total_cycles"]
            if best_static[1]["total_cycles"]
            else 0.0
        ),
    }
