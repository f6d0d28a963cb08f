"""Single-experiment driver and the one run builder.

:func:`build_run` assembles every run — sweep cells, compiled replay,
serve and drift shards, the crash campaigns: a machine under a design
spec, its persistent memory, and a workload set up (untimed) or restored
from a snapshot.  Runs then advance through a
:class:`~repro.sched.shard.ShardMachine`, always stepping the thread
whose core clock is furthest behind — a fair interleaving in which the
shared LLC and NVRAM banks see time-ordered contention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.design import NON_PERS, DesignSpec, resolve_design
from ..errors import WorkloadError
from ..sim.config import SystemConfig
from ..sim.machine import Machine
from ..sim.stats import MachineStats
from ..txn.runtime import PersistentMemory
from ..workloads.base import Workload


def default_experiment_config(**overrides) -> SystemConfig:
    """Scaled-down Table II configuration used by the experiments.

    The LLC and footprints are scaled together (256 KB LLC against multi-MB
    footprints preserves the paper's footprint >> LLC regime) so that runs
    finish in seconds under the Python simulator; all latency, bank and
    energy parameters stay at their Table II values.  See EXPERIMENTS.md.
    """
    from ..sim.config import CacheConfig, LoggingConfig, NVDimmConfig

    base = SystemConfig(
        num_cores=8,
        llc=CacheConfig(size_bytes=256 * 1024, ways=16, line_size=64, latency_ns=4.4),
        nvram=NVDimmConfig(size_bytes=64 * 1024 * 1024),
        logging=LoggingConfig(log_entries=16384),
    )
    return base.scaled(**overrides) if overrides else base


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one simulated run.

    ``policy`` accepts a :class:`~repro.core.design.DesignSpec` or a
    name / mechanism string and normalizes to the spec.
    """

    policy: DesignSpec
    threads: int = 1
    txns_per_thread: int = 200
    system: Optional[SystemConfig] = None
    seed: int = 42

    def __post_init__(self) -> None:
        if not isinstance(self.policy, DesignSpec):
            object.__setattr__(self, "policy", resolve_design(self.policy))


@dataclass
class PreparedWorkload:
    """A workload with its setup phase already executed.

    Setup can dominate sweep time (it builds megabytes of persistent
    structures); preparing once and restoring the NVRAM image per run
    keeps every policy/thread cell bit-identical at start.

    Only the non-zero prefix of the image is stored (setup writes into a
    zeroed device, so everything past the last touched byte is zero) and
    restored into the freshly zeroed machine of each run — the tail of a
    mostly empty multi-megabyte device is never copied or even paged in.
    """

    workload: Workload
    system: SystemConfig
    image_prefix: bytes
    image_size: int
    heap_state: tuple

    @property
    def image(self) -> bytes:
        """The full initial NVRAM image (reconstructed; test/debug use)."""
        return self.image_prefix + bytes(self.image_size - len(self.image_prefix))


def prepare_workload(
    workload: Workload, system: Optional[SystemConfig] = None
) -> PreparedWorkload:
    """Run ``workload.setup`` once and capture the initial NVRAM state."""
    system = system or default_experiment_config()
    machine = Machine(system, NON_PERS)
    pm = PersistentMemory(machine)
    workload.setup(pm)
    # Setup writes into a zeroed device, so only the written windows can
    # be non-zero; strip trailing zeros off them rather than copying and
    # scanning the whole (mostly empty) image.
    image = machine.nvram.snapshot()
    prefix = (image.tobytes() if image.high else image.low).rstrip(b"\x00")
    prepared = PreparedWorkload(
        workload, system, prefix, system.nvram.size_bytes, pm.heap.snapshot()
    )
    machine.nvram.recycle()
    return prepared


class Preparation:
    """``prepare_workload(workload, system)``, run on the first call only.

    The ``prepare`` callable :func:`~repro.harness.cache.compiled_trace`
    takes, shared by every cell of one workload: a workload whose traces
    all hit the cache is never prepared, and one that misses is prepared
    once.
    """

    def __init__(
        self, workload: Workload, system: Optional[SystemConfig] = None
    ) -> None:
        self.workload = workload
        self.system = system or default_experiment_config()
        self._prepared: Optional[PreparedWorkload] = None

    def __call__(self) -> PreparedWorkload:
        if self._prepared is None:
            self._prepared = prepare_workload(self.workload, self.system)
        return self._prepared


@dataclass
class RunOutcome:
    """Everything a finished run exposes."""

    policy: DesignSpec
    threads: int
    stats: MachineStats
    machine: Machine = field(repr=False)
    pm: PersistentMemory = field(repr=False)

    @property
    def throughput(self) -> float:
        """Committed transactions per million cycles."""
        return self.stats.throughput

    @property
    def ipc(self) -> float:
        """Aggregate instructions per cycle."""
        return self.stats.ipc


def build_run(
    workload: Optional[Workload],
    run: RunConfig,
    snapshot=None,
    machine_hook=None,
):
    """The one run builder: machine, memory, and a ready workload.

    Order: ``Machine`` → ``machine_hook(machine)`` → ``PersistentMemory``
    → NVRAM image → heap → ``attach`` → ``reset_run_state``.

    ``snapshot`` is a :class:`PreparedWorkload` or a
    :class:`~repro.sim.ctrace.CompiledTrace`; both carry the post-setup
    ``image_prefix`` and ``heap_state``, which are restored instead of
    running setup.  A prepared snapshot must belong to ``workload`` (same
    identity key; see
    :meth:`~repro.workloads.base.Workload.identity_key`).  A compiled
    trace needs no workload: pass ``None`` and only the memory is built.
    Without a snapshot, ``workload.setup`` runs on the fresh machine.

    ``machine_hook(machine)``, when given, is called on the freshly built
    machine before any setup or execution — the attachment point for
    tracers, the persistency-ordering sanitizer, and the campaigns'
    fault monitor and torn-write injector (setup uses untimed pokes, so
    a tracer attached here sees only timed execution).

    Returns ``(machine, pm, workload)``; the post-reset run state is the
    baseline checkpoint shards capture at construction.
    """
    system = run.system
    if system is None:
        if isinstance(snapshot, PreparedWorkload):
            system = snapshot.system
        else:
            system = default_experiment_config()
    if run.threads > system.num_cores:
        raise WorkloadError(
            f"{run.threads} threads need {run.threads} cores, "
            f"config has {system.num_cores}"
        )
    machine = Machine(system, run.policy)
    if machine_hook is not None:
        machine_hook(machine)
    pm = PersistentMemory(machine)
    if snapshot is None:
        workload.setup(pm)
    else:
        if isinstance(snapshot, PreparedWorkload):
            # Identity-key comparison (not object identity): an
            # equivalent instance — same configuration, so same
            # post-setup state — must be accepted.
            if snapshot.workload.identity_key() != workload.identity_key():
                raise WorkloadError("prepared state belongs to a different workload")
            # The prepared instance carries the post-setup host-side
            # state (layout addresses, resident sets); run that one even
            # if the caller passed an equivalent fresh instance.
            workload = snapshot.workload
        machine.nvram.load_image_prefix(snapshot.image_prefix)
        pm.heap.restore(snapshot.heap_state)
        if workload is not None:
            workload.attach(pm)
    if workload is not None:
        workload.reset_run_state()
    return machine, pm, workload


def run_workload(
    workload: Workload,
    run: RunConfig,
    prepared: Optional[PreparedWorkload] = None,
    machine_hook=None,
) -> RunOutcome:
    """Execute ``workload`` under ``run`` and return the outcome.

    The run is a single :class:`~repro.sched.shard.ShardMachine` in batch
    mode (one ``thread_body`` per thread, ``run.txns_per_thread``
    transactions each), drained to completion.  The shard's step loop is
    the historical core-clock min-heap drive order, so outcomes are
    bit-identical to the monolithic reference loop the differential gate
    in ``tests/sched/test_shard_equivalence.py`` compares it against.
    """
    # Local import: harness is a lower layer that sched builds on for
    # serve mode; pulling sched in lazily avoids the import cycle.
    from ..sched.shard import ShardMachine

    machine, pm, workload = build_run(workload, run, prepared, machine_hook)
    shard = ShardMachine(machine, pm, workload, threads=run.threads)
    shard.start_batch(run.txns_per_thread)
    shard.drain()
    stats = machine.finalize()
    return RunOutcome(run.policy, run.threads, stats, machine, pm)
