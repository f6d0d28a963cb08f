"""Parallel sweep execution over worker processes, with self-healing.

Sweep cells are embarrassingly parallel: each one builds a private
machine, replays its compiled trace and runs to completion with no
shared mutable state.  :func:`run_cells_parallel` fans a list of cells
over a :class:`~concurrent.futures.ProcessPoolExecutor`.

The compiled traces (the expensive part — each carries the post-setup
NVRAM image prefix) are shipped **once per worker** through the pool
initializer rather than once per cell;
:class:`~repro.sim.ctrace.CompiledTrace` pickles through its compact
binary codec.  Results are :class:`~repro.sim.stats.MachineStats`
dataclasses plus, under psan, a
:class:`~repro.sanitizer.rules.PsanReport`, cheap to return.

Self-healing: long sweeps die ugly when one worker is OOM-killed or
wedges on a pathological cell.  The driver therefore

* bounds each cell's wait with ``cell_timeout`` (hung workers are
  terminated, not joined forever),
* retries the failed remainder up to :data:`MAX_RETRIES` times on a
  fresh pool, with exponential backoff starting at
  :data:`RETRY_BACKOFF` seconds,
* finally runs whatever still failed **serially in-process**, where no
  pool machinery can eat the result,

and records what happened in a :class:`SweepHealth`.  Because a cell's
outcome is a pure function of its configuration, a retried or
serially-recovered cell returns bit-identical stats to a first-try run
(covered by ``tests/harness/test_parallel_sweep.py``).

Determinism: a cell's outcome depends only on its configuration, never on
which process runs it, so ``jobs=N`` is bit-identical to the serial loop.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, TimeoutError
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from ..sim.replay import run_compiled
from .runner import RunConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep imports us)
    from .sweep import SweepCell

#: Pool attempts after the first one, and the backoff before the first
#: retry (doubling per round).
MAX_RETRIES = 2
RETRY_BACKOFF = 0.5

#: Per-worker shipping map, installed by :func:`_init_worker`:
#: ``{(benchmark, threads): (system, trace)}``.
_WORKER_SHIPPING: Dict[tuple, tuple] = {}

#: Test-only fault hook (see :func:`_apply_test_fault`).
ENV_FAULT_DIR = "REPRO_SWEEP_FAULT_DIR"


@dataclass
class SweepHealth:
    """What the self-healing driver had to do to finish a sweep."""

    worker_deaths: int = 0
    timeouts: int = 0
    retry_rounds: int = 0
    serial_fallback_cells: int = 0

    @property
    def degraded(self) -> bool:
        """True when any cell needed more than one attempt."""
        return bool(
            self.worker_deaths
            or self.timeouts
            or self.retry_rounds
            or self.serial_fallback_cells
        )

    def merge(self, other: "SweepHealth") -> None:
        """Accumulate ``other`` into this record (multi-sweep CLIs)."""
        self.worker_deaths += other.worker_deaths
        self.timeouts += other.timeouts
        self.retry_rounds += other.retry_rounds
        self.serial_fallback_cells += other.serial_fallback_cells

    def summary(self) -> str:
        """One-line report for CLI output."""
        if not self.degraded:
            return "sweep health: clean (no retries needed)"
        return (
            f"sweep health: {self.worker_deaths} worker death(s), "
            f"{self.timeouts} timeout(s), {self.retry_rounds} retry "
            f"round(s), {self.serial_fallback_cells} cell(s) recovered "
            f"serially"
        )


def _init_worker(shipping: Dict[tuple, tuple]) -> None:
    """Pool initializer: receive the compiled traces once."""
    global _WORKER_SHIPPING
    _WORKER_SHIPPING = shipping


def _apply_test_fault(benchmark: str, threads: int, policy) -> None:
    """Deterministic worker-fault hook, armed only via environment.

    When ``REPRO_SWEEP_FAULT_DIR`` names a directory, a file
    ``kill-<benchmark>-<threads>-<policy>`` inside it makes the worker
    consume the file and die (``os._exit``) — exactly one death per
    armed file — and ``hang-<...>`` makes it sleep far past any sane
    ``cell_timeout``.  Only :func:`_run_cell` (worker processes) consults
    the hook, so the serial fallback is immune by construction.  This
    exists so the retry/fallback machinery is testable; production runs
    never set the variable.
    """
    root = os.environ.get(ENV_FAULT_DIR)
    if not root:
        return
    name = f"{benchmark}-{threads}-{getattr(policy, 'value', policy)}"
    kill = os.path.join(root, f"kill-{name}")
    if os.path.exists(kill):
        try:
            os.unlink(kill)
        except OSError:
            pass
        os._exit(1)
    if os.path.exists(os.path.join(root, f"hang-{name}")):
        time.sleep(3600)


def run_cell(
    shipping: Dict[tuple, tuple],
    cell: "SweepCell",
    txns_per_thread: int,
    seed: int,
    psan: bool = False,
):
    """Run one sweep cell; returns ``(stats, report)``.

    ``shipping`` maps ``(benchmark, threads)`` to the ``(system, trace)``
    the cell replays.  ``psan`` replays it under the persistency-ordering
    sanitizer (``report`` is its :class:`~repro.sanitizer.rules
    .PsanReport`, else None).  The finished machine's NVRAM buffer is
    recycled, saving an allocate+zero of the full device for the next
    cell.
    """
    system, trace = shipping[(cell.benchmark, cell.threads)]
    run = RunConfig(
        policy=cell.policy,
        threads=cell.threads,
        txns_per_thread=txns_per_thread,
        system=system,
        seed=seed,
    )
    if psan:
        from ..sanitizer.checker import replay_checked

        stats, report, _tracer = replay_checked(trace, run)
        report.benchmark = cell.benchmark
        return stats, report
    outcome = run_compiled(trace, run)
    outcome.machine.nvram.recycle()
    return outcome.stats, None


def _run_cell(cell: "SweepCell", txns_per_thread: int, seed: int, psan: bool = False):
    """Worker-process entry: the test fault hook, then :func:`run_cell`
    over the shipping map the pool initializer installed."""
    _apply_test_fault(cell.benchmark, cell.threads, cell.policy)
    return run_cell(_WORKER_SHIPPING, cell, txns_per_thread, seed, psan)


def default_jobs(cells: int) -> int:
    """CPU-aware worker count for sweeps that don't pin ``jobs``.

    One worker per pending cell, capped at ``os.cpu_count() - 1`` so the
    driver process keeps a core, and never below 1 (which callers treat
    as the serial in-process path — no pool is spun up at all).
    """
    return max(1, min(cells, (os.cpu_count() or 2) - 1))


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: hung workers are terminated, not joined."""
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass


def _parallel_round(
    shipping: Dict[tuple, tuple],
    cells: List["SweepCell"],
    txns_per_thread: int,
    seed: int,
    jobs: int,
    cell_timeout: Optional[float],
    health: SweepHealth,
    results: dict,
    psan: bool = False,
) -> List["SweepCell"]:
    """One pool attempt over ``cells``; returns the cells that failed."""
    failed: List["SweepCell"] = []
    pool = ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(shipping,)
    )
    broken = False
    timed_out = False
    try:
        futures: List[Tuple["SweepCell", object]] = [
            (
                cell,
                pool.submit(_run_cell, cell, txns_per_thread, seed, psan),
            )
            for cell in cells
        ]
        for cell, future in futures:
            try:
                results[cell] = future.result(timeout=cell_timeout)
            except TimeoutError:
                health.timeouts += 1
                timed_out = True
                failed.append(cell)
            except BrokenExecutor:
                if not broken:
                    # One death breaks the whole pool; every unfinished
                    # future fails fast, so count the death once.
                    health.worker_deaths += 1
                    broken = True
                failed.append(cell)
    finally:
        if timed_out or broken:
            _terminate_pool(pool)
        else:
            pool.shutdown(wait=True)
    return failed


def run_cells_parallel(
    shipping: Dict[tuple, tuple],
    cells: Iterable["SweepCell"],
    txns_per_thread: int,
    seed: int,
    jobs: int,
    cell_timeout: Optional[float] = None,
    health: Optional[SweepHealth] = None,
    psan: bool = False,
) -> dict:
    """Execute ``cells`` across ``jobs`` worker processes, self-healing.

    Each cell runs through :func:`run_cell` over ``shipping``; ``psan``
    runs every cell under the persistency-ordering sanitizer.

    ``cell_timeout`` bounds the wait for each cell's result (None waits
    forever); cells lost to a timeout or a worker death are retried on a
    fresh pool up to :data:`MAX_RETRIES` times with exponential backoff
    (``RETRY_BACKOFF * 2**round`` seconds), and whatever still fails is
    recovered serially in the driver process.  ``health`` (optional)
    accumulates what happened for CLI reporting.

    Returns ``{cell: (stats, report)}``; callers impose their own
    ordering (dict iteration order here is completion-round order,
    which the sweep re-sorts into canonical matrix order anyway).
    Results are bit-identical to the serial loop regardless of how many
    attempts a cell needed.
    """
    if health is None:
        health = SweepHealth()
    remaining = list(cells)
    results: dict = {}
    attempt = 0
    while remaining and attempt <= MAX_RETRIES:
        if attempt:
            health.retry_rounds += 1
            time.sleep(RETRY_BACKOFF * (2 ** (attempt - 1)))
        remaining = _parallel_round(
            shipping,
            remaining,
            txns_per_thread,
            seed,
            jobs,
            cell_timeout,
            health,
            results,
            psan,
        )
        attempt += 1
    # Last resort: no pool machinery between us and the result.
    for cell in remaining:
        health.serial_fallback_cells += 1
        results[cell] = run_cell(shipping, cell, txns_per_thread, seed, psan)
    return results
