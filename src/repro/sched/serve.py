"""``repro serve``: end-to-end open-loop scenarios over sharded machines.

One scenario = one request-shaped WHISPER kernel, prepared (setup is the
expensive part), restored into N independent shard machines, and served
against a seeded open-loop arrival schedule by the event-loop scheduler.
Each shard is a full machine — own cores, LLC, NVRAM, logging hardware —
so shard scaling measures the service-layer effect the paper's per-core
log buffers enable: more shards absorb the same offered load with
shorter queues, until a single shard's persist bandwidth stops being the
bottleneck.

A kernel is prepared once per process: :func:`prepared_kernel` keeps
the last :data:`PREPARED_MEMO_ENTRIES` prepared kernels, keyed by
workload identity and system, for every later scenario (and drift run)
on the same pair.  Every shard is still built fresh from that snapshot.

The whole scenario is deterministic: the schedule is a pure function of
the traffic config, the scheduler interleaving is a pure function of the
schedule, and every workload draw flows through seeded streams.  Two
runs with the same :class:`ServeConfig` produce byte-identical reports
(the determinism property test replays exactly this entry point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from ..core.design import DesignSpec, resolve_design
from ..errors import ConfigError
from ..harness.runner import PreparedWorkload, RunConfig, build_run, prepare_workload
from ..sim.config import CacheConfig, LoggingConfig, NVDimmConfig, SystemConfig
from ..workloads.whisper import make_whisper_kernel
from .loop import AdmissionConfig, EventLoopScheduler
from .metrics import ServeReport, ShardServeStats, percentile
from .replicate import ShardReplicator, make_checkpoint
from .shard import ShardMachine
from .traffic import TrafficConfig, open_loop_schedule


def default_serve_config(threads: int = 2, **overrides) -> SystemConfig:
    """Scaled-down per-shard system for serve scenarios.

    Smaller than the sweep configuration (a serve run builds one machine
    *per shard*): cores sized to the thread count, a 16 MB NVRAM, and a
    1 Ki-entry log ring.  Latency/bank/energy parameters stay at their
    Table II values.
    """
    base = SystemConfig(
        num_cores=max(1, threads),
        llc=CacheConfig(size_bytes=256 * 1024, ways=16, line_size=64, latency_ns=4.4),
        nvram=NVDimmConfig(size_bytes=16 * 1024 * 1024),
        logging=LoggingConfig(log_entries=1024),
    )
    return base.scaled(**overrides) if overrides else base


#: Adaptive mode only: the post-schedule backlog drains in windows of
#: this many cycles so the controller keeps observing.  Drift scenarios
#: need it most: their drift signal usually peaks exactly there (see
#: ``EventLoopScheduler.drain``).
DRAIN_CHECKPOINT_CYCLES = 400.0

#: Prepared kernels :func:`prepared_kernel` keeps per process.
PREPARED_MEMO_ENTRIES = 4

_prepared: "dict[tuple, PreparedWorkload]" = {}
"""Prepared kernels by ``(workload identity, system)``, least recently
used first."""


def prepared_kernel(workload, system: SystemConfig) -> PreparedWorkload:
    """``prepare_workload(workload, system)``, memoised per process.

    Two workloads with equal identity keys build identical persistent
    state, so their prepared snapshot is shared; the snapshot's workload
    instance is the one every run attaches (its volatile run state is
    reset per run).  The memo keeps the most recently used
    :data:`PREPARED_MEMO_ENTRIES` entries.
    """
    key = (workload.identity_key(), system)
    prepared = _prepared.pop(key, None)
    if prepared is None:
        prepared = prepare_workload(workload, system)
    _prepared[key] = prepared
    while len(_prepared) > PREPARED_MEMO_ENTRIES:
        del _prepared[next(iter(_prepared))]
    return prepared


@dataclass
class ServeConfig:
    """Everything one serve scenario needs."""

    workload: str = "memcached"
    policy: DesignSpec = None
    shards: int = 1
    threads: int = 2
    batch_requests: int = 8
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    system: Optional[SystemConfig] = None
    seed: int = 42
    replicas: int = 0
    """Replica rings per shard (0 disables mid-run log shipping)."""
    ring_records: int = 256
    compact_headroom: float = 0.75
    policy_table: Optional[object] = None
    """A :class:`~repro.adapt.table.PolicyTable` enables adaptive mode:
    an :class:`~repro.adapt.controller.AdaptiveController` rides the
    scheduler checkpoints and may safe-switch shards mid-run.  When the
    caller leaves ``policy`` unset, the table's ``start`` design (if
    any) seeds the shards."""
    adapt_window_txns: int = 16

    def __post_init__(self) -> None:
        if self.policy is None:
            table = self.policy_table
            if table is not None and getattr(table, "start", None) is not None:
                self.policy = table.start
            else:
                self.policy = resolve_design("fwb")
        elif not isinstance(self.policy, DesignSpec):
            self.policy = resolve_design(self.policy)

    def validate(self) -> None:
        if self.shards <= 0:
            raise ConfigError("shards must be positive")
        if self.threads <= 0:
            raise ConfigError("threads must be positive")
        if self.batch_requests <= 0:
            raise ConfigError("batch_requests must be positive")
        if self.adapt_window_txns <= 0:
            raise ConfigError("adapt_window_txns must be positive")
        if self.replicas < 0:
            raise ConfigError(f"replicas must be non-negative, got {self.replicas}")
        if self.ring_records < 1:
            raise ConfigError(f"ring_records must be positive, got {self.ring_records}")
        if not 0.0 < self.compact_headroom <= 1.0:
            raise ConfigError(
                f"compact_headroom must be in (0, 1], got {self.compact_headroom}"
            )
        if self.replicas > 0:
            # Replica rings compact by folding redo content into their
            # checkpoint, so every design a shard may run must log redo.
            # Adaptive shards may switch log content mid-run: check every
            # design the table can name.
            designs = [self.policy]
            if self.policy_table is not None:
                designs += self.policy_table.specs()
            for spec in designs:
                logs_records = spec.uses_hw_logging or spec.uses_sw_logging
                if logs_records and not spec.logs_redo:
                    raise ConfigError(
                        f"replicas need redo log records, but design "
                        f"{spec.name!r} logs {spec.log_content.value} only"
                    )
        self.traffic.validate()
        self.admission.validate()


def run_serve(config: ServeConfig, machine_hook=None, schedule=None) -> ServeReport:
    """Run one open-loop serve scenario and return its report.

    ``machine_hook(shard_id, machine)``, when given, is called on every
    freshly built shard machine before execution — the attachment point
    for tracers and psan in serve mode.  Every shard machine's and
    replica's NVRAM image is recycled once the report is built, so a
    caller that wants an image must read it before then (a replicator's
    :meth:`~repro.sched.replicate.ShardReplicator.release` is the last
    point).

    ``schedule`` replaces the arrival schedule, by default
    ``open_loop_schedule(config.traffic, config.shards)``; drift
    scenarios pass theirs, with per-phase draws.
    """
    config.validate()
    workload = make_whisper_kernel(config.workload, seed=config.seed)
    if not workload.request_shaped:
        raise ConfigError(
            f"workload {config.workload!r} is not request-shaped; serve "
            "needs one of the kernels exposing serve_request "
            "(memcached_w, redis_w, ycsb)"
        )
    system = config.system or default_serve_config(config.threads)
    prepared = prepared_kernel(workload, system)

    shards = []
    replicators = []
    run = RunConfig(policy=config.policy, threads=config.threads, system=system)
    for shard_id in range(config.shards):
        # All shards share the prepared workload instance; the volatile
        # run-state checkpoint each shard captures at construction is the
        # post-reset baseline, swapped in around every step window.
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
        if config.replicas > 0:
            replicators.append(
                ShardReplicator(
                    shard,
                    prepared.image_prefix,
                    system,
                    replicas=config.replicas,
                    ring_records=config.ring_records,
                    compact_headroom=config.compact_headroom,
                )
            )

    checkpoint = make_checkpoint(replicators) if replicators else None
    controller = None
    if config.policy_table is not None:
        # Lazy: repro.adapt imports this module for default_serve_config.
        from ..adapt.controller import AdaptiveController

        controller = AdaptiveController(
            config.policy_table, window_txns=config.adapt_window_txns
        )
        checkpoint = controller.checkpoint_for(shards, inner=checkpoint)
    scheduler = EventLoopScheduler(
        shards,
        admission=config.admission,
        checkpoint=checkpoint,
        drain_checkpoint_cycles=(
            DRAIN_CHECKPOINT_CYCLES if controller is not None else None
        ),
    )
    if schedule is None:
        schedule = open_loop_schedule(config.traffic, config.shards)
    scheduler.run_open_loop(schedule)

    report = _build_report(
        config, shards, scheduler, schedule, replicators, controller
    )
    # The report holds everything read from the devices: the shard and
    # replica NVRAM buffers go back to the pool for the next scenario
    # instead of being freed and allocated again.
    for shard in shards:
        shard.machine.nvram.recycle()
    for replicator in replicators:
        replicator.release()
    return report


def _build_report(
    config, shards, scheduler, schedule, replicators, controller=None
) -> ServeReport:
    offered_by_shard = [0] * config.shards
    for request in schedule:
        offered_by_shard[request.shard] += 1
    admitted_by_shard = [0] * config.shards
    for request in scheduler.admitted:
        admitted_by_shard[request.shard] += 1
    rejected_by_shard = [0] * config.shards
    for request in scheduler.rejected:
        rejected_by_shard[request.shard] += 1

    latencies = []
    per_shard = []
    makespan = 0.0
    for shard in shards:
        stats = shard.machine.finalize()
        shard_latencies = sorted(
            durable - request.arrival
            for request, durable, _tid in shard.completed_requests()
        )
        latencies.extend(shard_latencies)
        makespan = max(makespan, stats.cycles)
        per_shard.append(
            ShardServeStats(
                shard_id=shard.shard_id,
                offered=offered_by_shard[shard.shard_id],
                admitted=admitted_by_shard[shard.shard_id],
                rejected=rejected_by_shard[shard.shard_id],
                completed=len(shard_latencies),
                transactions=stats.transactions_committed,
                cycles=stats.cycles,
                instructions=stats.instructions,
                nvram_writes=stats.nvram_writes,
                log_records=stats.log_records,
                p50=percentile(shard_latencies, 50.0),
                p99=percentile(shard_latencies, 99.0),
                p999=percentile(shard_latencies, 99.9),
            )
        )
    latencies.sort()

    replication: dict = {}
    if replicators:
        summaries = [replicator.summary() for replicator in replicators]
        replication = {
            "replicas": config.replicas,
            "shipped": sum(s["shipped"] for s in summaries),
            "compactions": sum(s["compactions"] for s in summaries),
            "records_compacted": sum(s["records_compacted"] for s in summaries),
            "per_shard": summaries,
        }

    adaptation: dict = {}
    if controller is not None:
        adaptation = controller.summary()
        adaptation["start_design"] = config.policy.mechanism_string()
        adaptation["final_designs"] = [
            shard.machine.policy.mechanism_string() for shard in shards
        ]

    completed = len(latencies)
    return ServeReport(
        workload=config.workload,
        design=config.policy.name,
        shards=config.shards,
        threads=config.threads,
        batch_requests=config.batch_requests,
        arrival=config.traffic.arrival,
        rate=config.traffic.rate,
        seed=config.traffic.seed,
        offered=len(schedule),
        admitted=len(scheduler.admitted),
        rejected=len(scheduler.rejected),
        completed=completed,
        makespan_cycles=makespan,
        throughput_rpmc=(completed / makespan * 1e6) if makespan else 0.0,
        p50=percentile(latencies, 50.0),
        p99=percentile(latencies, 99.0),
        p999=percentile(latencies, 99.9),
        per_shard=per_shard,
        replication=replication,
        adaptation=adaptation,
    )
