"""Configuration sweeps shared by the figure reproductions.

Figures 6-9 all read off the same matrix of runs (benchmark x thread
count x policy); :func:`run_micro_sweep` executes it once and the figure
functions extract their metric.  Only the stats snapshot is retained per
cell to keep memory bounded.

The sweep engine has three throughput levers on top of the serial loop:

* ``jobs=N`` fans the cells over worker processes
  (:mod:`~repro.harness.parallel`); cells are independent, so results are
  bit-identical to the serial loop in any case.
* ``cache=`` consults a content-addressed on-disk store
  (:mod:`~repro.harness.cache`) before running anything; benchmarks whose
  cells all hit are never even prepared.
* trace compilation (:mod:`~repro.sim.replay`): each ``(benchmark,
  threads)`` pair's micro-op stream comes from
  :func:`~repro.harness.cache.compiled_trace` — decoded once, or fetched
  from the shared trace cache, skipping preparation entirely — and is
  replayed per design cell, bit-identically.

Whatever mix of cached and fresh cells a sweep ends up with, the result
dict is assembled in canonical matrix order (benchmarks outermost,
policies innermost) so downstream consumers see the same ordering as a
cold serial sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, Optional

from ..core.design import CANONICAL_DESIGNS, DesignSpec, canonical_order, resolve_design
from ..sim.config import SystemConfig
from ..sim.stats import MachineStats
from ..workloads import make_microbenchmark
from ..workloads.base import Workload
from .cache import SweepCache, compiled_trace
from .runner import default_experiment_config, prepare_workload


@dataclass(frozen=True)
class SweepCell:
    """One point in the sweep matrix.

    ``policy`` accepts a :class:`~repro.core.design.DesignSpec` or a
    name / mechanism string and normalizes to the spec, so cells built
    from either representation compare and hash identically.
    """

    benchmark: str
    threads: int
    policy: DesignSpec

    def __post_init__(self) -> None:
        if not isinstance(self.policy, DesignSpec):
            object.__setattr__(self, "policy", resolve_design(self.policy))


@dataclass
class SweepResult:
    """Stats for every executed cell."""

    cells: Dict[SweepCell, MachineStats] = field(default_factory=dict)

    def stats(self, benchmark: str, threads: int, policy) -> MachineStats:
        """Stats for one cell (KeyError if the cell was not swept)."""
        return self.cells[SweepCell(benchmark, threads, policy)]

    def benchmarks(self) -> list:
        """Benchmark names present, in first-seen order."""
        seen = []
        for cell in self.cells:
            if cell.benchmark not in seen:
                seen.append(cell.benchmark)
        return seen

    def thread_counts(self) -> list:
        """Thread counts present, ascending."""
        return sorted({cell.threads for cell in self.cells})

    def policies(self) -> list:
        """Design specs present: canonical ones in paper order first,
        then custom specs in first-seen order."""
        present = []
        for cell in self.cells:
            if cell.policy not in present:
                present.append(cell.policy)
        return canonical_order(present)

    def merge(self, other: "SweepResult") -> "SweepResult":
        """Combine two results into a new one (``other`` wins on overlap).

        Lets callers assemble a matrix from partial sweeps — e.g. extend
        an existing result with extra thread counts or benchmarks.
        """
        merged: Dict[SweepCell, MachineStats] = dict(self.cells)
        merged.update(other.cells)
        return SweepResult(merged)


def run_micro_sweep(
    benchmarks: Iterable[str] = ("hash", "rbtree", "sps", "btree", "ssca2"),
    threads: Iterable[int] = (1,),
    policies: Iterable = CANONICAL_DESIGNS,
    txns_per_thread: int = 200,
    system: Optional[SystemConfig] = None,
    seed: int = 42,
    value_kind: str = "int",
    workload_factory: Optional[Callable[[str], Workload]] = None,
    jobs: int = 1,
    cache: Optional[SweepCache] = None,
    health=None,
    psan_report=None,
) -> SweepResult:
    """Run the benchmark x threads x policy matrix; returns all stats.

    ``workload_factory`` may override how a benchmark name becomes a
    workload (used by the WHISPER sweep and by tests).  ``jobs > 1`` runs
    the cells on that many worker processes; ``cache`` (off by default —
    library callers opt in, the CLI passes one) serves cells from the
    on-disk store and writes back fresh results.  ``health`` records what
    the parallel driver's self-healing had to do (see
    :func:`~repro.harness.parallel.run_cells_parallel`); the serial path
    has no workers to lose.

    ``psan_report`` (a :class:`~repro.sanitizer.checker.PsanSweepReport`)
    runs every cell under the persistency-ordering sanitizer and appends
    one per-cell report in canonical matrix order.  Sanitizing requires
    actually executing the cells, so the result cache is bypassed for
    the whole sweep when set.
    """
    benchmarks = tuple(benchmarks)
    if psan_report is not None:
        cache = None
    threads = tuple(threads)
    policies = tuple(resolve_design(policy) for policy in policies)
    workloads: Dict[str, Workload] = {}
    for benchmark in benchmarks:
        if workload_factory is not None:
            workloads[benchmark] = workload_factory(benchmark)
        else:
            workloads[benchmark] = make_microbenchmark(
                benchmark, seed=seed, value_kind=value_kind
            )

    order = [
        SweepCell(benchmark, nthreads, policy)
        for benchmark in benchmarks
        for nthreads in threads
        for policy in policies
    ]

    # Cache probe first: a benchmark whose cells all hit never pays for
    # preparation at all.
    collected: Dict[SweepCell, MachineStats] = {}
    keys: Dict[SweepCell, str] = {}
    pending = []
    resolved_system = system if system is not None else default_experiment_config()
    for cell in order:
        if cache is not None:
            keys[cell] = cache.key(
                resolved_system,
                cell.policy,
                workloads[cell.benchmark],
                cell.threads,
                txns_per_thread,
            )
            stats = cache.get(keys[cell])
            if stats is not None:
                collected[cell] = stats
                continue
        pending.append(cell)

    reports: Dict[SweepCell, object] = {}
    if pending:
        # One trace per (benchmark, threads) pair, replayed per design
        # cell; a benchmark whose traces all hit is never prepared.
        prepared: Dict[str, object] = {}

        def _prepare(benchmark: str):
            if benchmark not in prepared:
                prepared[benchmark] = prepare_workload(
                    workloads[benchmark], resolved_system
                )
            return prepared[benchmark]

        shipping: Dict[tuple, tuple] = {}
        for cell in pending:
            pair = (cell.benchmark, cell.threads)
            if pair not in shipping:
                trace = compiled_trace(
                    workloads[cell.benchmark],
                    resolved_system,
                    cell.threads,
                    txns_per_thread,
                    partial(_prepare, cell.benchmark),
                )
                shipping[pair] = (resolved_system, trace)
        psan = psan_report is not None
        if jobs > 1:
            from .parallel import run_cells_parallel

            fresh = run_cells_parallel(
                shipping,
                pending,
                txns_per_thread,
                seed,
                jobs,
                health=health,
                psan=psan,
            )
        else:
            from .parallel import run_cell

            fresh = {
                cell: run_cell(shipping, cell, txns_per_thread, seed, psan)
                for cell in pending
            }
        for cell, (stats, report) in fresh.items():
            collected[cell] = stats
            reports[cell] = report
            if cache is not None:
                cache.put(keys[cell], stats)

    if psan_report is not None:
        for cell in order:
            report = reports[cell]
            report.policy = cell.policy.value
            psan_report.reports.append(report)

    return SweepResult({cell: collected[cell] for cell in order})
