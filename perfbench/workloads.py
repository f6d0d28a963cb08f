"""The benchmark's three workloads: ``sweep``, ``serve`` and ``crash``.

Each workload drives one public entry point of the simulator and checks
every op it times:

* ``sweep`` — :func:`repro.harness.sweep.run_micro_sweep` over the
  ``repro validate`` matrix (compiled replay; an op is one design cell);
* ``serve`` — :func:`repro.sched.serve.run_serve` over a fixed-rate
  ladder (the interpreted ``ThreadAPI`` path; an op is one offered
  request);
* ``crash`` — :func:`repro.faults.run_fault_campaign` at the
  ``repro faults`` defaults (crash and recover; an op is one crash
  point).

Every call covers one cell, one serve scenario or one design's campaign
on one benchmark, so the host-speed samples taken after each call (see
``calibrate.py``) follow the host through a pass.

The simulated inputs come from fixed input seeds, so every simulated
number, failure count and layer count repeats exactly; the run seed only
permutes the order in which a serve pass issues its scenarios (they are
independent, so order cannot change results — and a pass that
reproduces the reference under another order is one more check).  Sweep
and crash always issue their calls in one order: with one machine per
call, the order decides which machines' images wait together for the
cyclic garbage collector, and other orders moved their peak resident
set by several percent.  ``held_out_seed`` is the input seed for
confirming a gain on inputs that were not used while the change was
written.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.design import CANONICAL_DESIGNS
from repro.faults import GUARANTEED_POLICIES, run_fault_campaign
from repro.harness.cache import ENV_CACHE_DIR, ENV_TRACE_CACHE, peek_trace_cache
from repro.harness.experiments import summarize_fwb_gain
from repro.harness.sweep import SweepResult, run_micro_sweep
from repro.harness.validate import validate
from repro.sched.metrics import percentile
from repro.sched.serve import ServeConfig, run_serve
from repro.sched.traffic import TrafficConfig, open_loop_schedule
from repro.sim.machine import Machine
from repro.sim.stats import MachineStats
from repro.txn.runtime import PersistentMemory

from .calibrate import HostClock

#: Fig 6 of the paper: fwb over the better software-clwb design, 1 thread.
PAPER_FWB_GAIN = 1.86

#: Scalar :class:`MachineStats` counters, read field by field so a new
#: counter is summed without touching this file.
STATS_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(MachineStats) if f.type in ("int", "float", int, float)
)


class StatsTotals:
    """Scalar :class:`MachineStats` counters summed over many machines.

    Float counters are summed with :func:`math.fsum`, which rounds once,
    so totals do not depend on the (seed-permuted) order machines ran in.
    """

    def __init__(self) -> None:
        self._parts: Dict[str, list] = {name: [] for name in STATS_FIELDS}

    def add(self, stats: MachineStats) -> None:
        for name, parts in self._parts.items():
            parts.append(getattr(stats, name))

    def totals(self) -> Dict[str, float]:
        return {
            name: sum(parts) if all(isinstance(v, int) for v in parts) else math.fsum(parts)
            for name, parts in self._parts.items()
        }


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Tally:
    """Ops issued by one pass (or set-up unit) and how they went."""

    attempted: int = 0
    failed: int = 0
    sim_instructions: int = 0
    consistent: bool = True
    """False when a check that no single op owns failed: an accounting
    identity, a result cache in use, or a pass differing from the
    reference pass."""

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.sim_instructions += other.sim_instructions
        self.consistent &= other.consistent


class BenchWorkload:
    """Shared plumbing: seeded call order, op ids and modelled counters."""

    name = ""
    setup_repeats = 1

    def __init__(self, config, order_seed: int) -> None:
        self.config = config
        self.rng = random.Random(order_seed)
        self.span_log = None
        self.call_seconds = 0.0
        self.clock: Optional[HostClock] = None
        self.stats = StatsTotals()

    def shuffled(self, items) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items

    def call(self, entry_point, **kwargs):
        """Make one call into the program, adding its wall time to
        ``call_seconds`` (the timed section is these calls and nothing
        else) and to ``clock``, which then samples the host's speed; in
        a traced run each call gets its own op id, carried by the spans
        it causes."""
        if self.span_log is not None:
            self.span_log.op_id += 1
        begin = time.perf_counter()
        try:
            return entry_point(**kwargs)
        finally:
            wall = time.perf_counter() - begin
            self.call_seconds += wall
            if self.clock is not None:
                self.clock.add_call(wall)

    def result_cache_clean(self) -> bool:
        """No sweep result-cache entry exists, so none can be served."""
        directory = os.environ.get(ENV_CACHE_DIR)
        return directory is None or not any(Path(directory).glob("*.json"))

    def layer_extras(self) -> Dict[str, float]:
        """Workload-specific per-layer numbers (see ``bench.layer_metrics``)."""
        return {}


# ----------------------------------------------------------------------
# sweep: compiled replay of the validate matrix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepConfig:
    benchmarks: Tuple[str, ...] = ("hash", "rbtree", "sps", "btree", "ssca2")
    txns_per_thread: int = 250
    input_seed: int = 42
    held_out_seed: int = 43


class SweepBench(BenchWorkload):
    """``run_micro_sweep(jobs=1)`` over 5 benchmarks x 8 designs, 1 thread,
    one call per cell, in matrix order.

    Set-up sweeps one design, one call per benchmark: it prepares and
    compiles the five microbenchmarks (the on-disk trace store writes
    into this run's empty cache directory) and replays one cell of each.
    Compiled traces do not depend on the design, so the in-process trace
    memo then holds every trace the timed passes need; those run with the
    on-disk store switched off, and any recompilation fails the run.
    """

    name = "sweep"

    def __init__(self, config: SweepConfig, order_seed: int) -> None:
        super().__init__(config, order_seed)
        self.reference: Optional[Dict[tuple, dict]] = None
        self.gain: Optional[float] = None
        self.timed = False

    def _cells(self) -> int:
        return len(self.config.benchmarks) * len(CANONICAL_DESIGNS)

    def _sweep(self, benchmark: str, policy) -> Tuple[Optional[SweepResult], bool]:
        """One ``run_micro_sweep`` call for one cell: its result (None when
        it raised) and whether the trace memo and result cache behaved."""
        config = self.config
        trace_cache = peek_trace_cache()
        hits_before = trace_cache.hits if trace_cache is not None else 0
        misses_before = trace_cache.misses if trace_cache is not None else 0
        try:
            result = self.call(
                run_micro_sweep,
                benchmarks=(benchmark,),
                threads=(1,),
                policies=(policy,),
                txns_per_thread=config.txns_per_thread,
                seed=config.input_seed,
                jobs=1,
            )
        except Exception:
            _report_failure(f"run_micro_sweep({benchmark}, {policy.value})")
            return None, False
        clean = self.result_cache_clean() and len(result.cells) == 1
        trace_cache = peek_trace_cache()
        if trace_cache is not None:
            if self.timed and trace_cache.misses != misses_before:
                clean = False  # a timed pass recompiled a trace
            if not self.timed and trace_cache.hits != hits_before:
                clean = False  # set-up found a trace it did not compile
        return result, clean

    def setup(self) -> Tally:
        tally = Tally()
        for benchmark in self.config.benchmarks:
            result, clean = self._sweep(benchmark, CANONICAL_DESIGNS[0])
            tally.consistent &= clean
            for stats in result.cells.values() if result is not None else ():
                self.stats.add(stats)
                tally.consistent &= stats.transactions_committed == self.config.txns_per_thread
        return tally

    def run_pass(self) -> Tally:
        if not self.timed:
            os.environ[ENV_TRACE_CACHE] = "0"
            self.timed = True
        config = self.config
        tally = Tally(attempted=self._cells())
        result = SweepResult()
        for benchmark in config.benchmarks:
            for policy in CANONICAL_DESIGNS:
                cell, clean = self._sweep(benchmark, policy)
                tally.consistent &= clean
                if cell is not None:
                    result.cells.update(cell.cells)
        snapshot = {}
        for cell, stats in result.cells.items():
            snapshot[(cell.benchmark, cell.policy.value)] = dataclasses.asdict(stats)
            tally.sim_instructions += stats.instructions
            self.stats.add(stats)
        failed = set()
        for key, stats in snapshot.items():
            if stats["transactions_committed"] != config.txns_per_thread:
                failed.add(key)
        if self.reference is None:
            self.reference = snapshot
        else:
            failed.update(key for key in snapshot if snapshot[key] != self.reference.get(key))
            if snapshot.keys() != self.reference.keys():
                tally.consistent = False
        if len(snapshot) == tally.attempted:
            gain = summarize_fwb_gain(result, 1)
            if self.gain is None:
                self.gain = gain
            elif gain != self.gain:
                tally.consistent = False
            if not validate(sweep=result, threads=1).passed:
                failed.update(snapshot)
        else:
            tally.consistent = False
        tally.failed = len(failed) + (tally.attempted - len(snapshot))
        return tally

    def layer_extras(self) -> Dict[str, float]:
        if self.gain is None:  # no pass completed; the run is already failed
            return {}
        return {"sim.paper_gap_pct": 100.0 * abs(self.gain - PAPER_FWB_GAIN) / PAPER_FWB_GAIN}

    def summary(self) -> str:
        if self.gain is None:
            return "no complete sweep pass"
        gap = self.layer_extras()["sim.paper_gap_pct"]
        return (
            f"fwb gain g = {self.gain:.4f}x (paper {PAPER_FWB_GAIN}x at 1 thread), "
            f"paper gap {gap:.2f} %"
        )


# ----------------------------------------------------------------------
# serve: open-loop serving over the interpreted ThreadAPI path
# ----------------------------------------------------------------------
#: Offered load of each ladder step, in requests per cycle.
RATES: Tuple[float, ...] = (0.001, 0.002, 0.003, 0.004)
#: Ladder step whose pooled latency gives ``p50_cycles``/``p99_cycles``.
REFERENCE_RATE = 0.002
#: p99 a kernel may reach at a rate counted towards ``capacity_rpmc``.
P99_LIMIT_CYCLES = 10_000.0
SERVE_SHARDS = 2
SERVE_THREADS = 2
SERVE_REPLICAS = 1


@dataclass(frozen=True)
class ServeLadderConfig:
    kernels: Tuple[str, ...] = ("memcached", "redis", "ycsb")
    requests: int = 2048
    warmup_requests: int = 256
    input_seed: int = 42
    held_out_seed: int = 43


def rate_label(rate: float) -> str:
    """Metric suffix of a ladder rate, in requests per million cycles."""
    return f"r{round(rate * 1e6)}"


@contextmanager
def observe(cls, keep=lambda obj: obj):
    """Collect ``keep(obj)`` for every ``cls`` object built inside the block.

    ``run_serve`` and ``run_fault_campaign`` build their machines
    internally; the benchmark watches the constructor to check what they
    did.  A served request's commit-durable instant is recorded in its
    shard's ``PersistentMemory.request_log`` (the same source the serve
    report reads), and a campaign's simulated work is in the
    ``MachineStats`` of the machines it built.
    """
    created: list = []
    original = cls.__init__

    def init(self, *args, **kwargs) -> None:
        original(self, *args, **kwargs)
        created.append(keep(self))

    cls.__init__ = init
    try:
        yield created
    finally:
        cls.__init__ = original


@dataclass
class Scenario:
    """One ``run_serve`` call, checked request by request."""

    tally: Tally
    latencies: List[float] = field(default_factory=list)
    admitted: int = 0
    digest: str = ""


class ServeBench(BenchWorkload):
    """``run_serve`` on three kernels across a fixed-rate ladder.

    2 shards x 2 threads per scenario, one replica ring per shard,
    Poisson arrivals.  Set-up serves a short burst per kernel at the
    reference rate.
    """

    name = "serve"
    setup_repeats = 3

    def __init__(self, config: ServeLadderConfig, order_seed: int) -> None:
        super().__init__(config, order_seed)
        self.reference: Optional[Dict[tuple, Scenario]] = None

    def _serve(self, kernel: str, rate: float, requests: int) -> Scenario:
        config = self.config
        traffic = TrafficConfig(
            requests=requests, rate=rate, arrival="poisson", seed=config.input_seed
        )
        scenario = Scenario(Tally(attempted=requests))
        machines: list = []
        try:
            with observe(PersistentMemory) as memories:
                report = self.call(
                    run_serve,
                    config=ServeConfig(
                        workload=kernel,
                        shards=SERVE_SHARDS,
                        threads=SERVE_THREADS,
                        traffic=traffic,
                        seed=config.input_seed,
                        replicas=SERVE_REPLICAS,
                    ),
                    machine_hook=lambda _shard, machine: machines.append(machine),
                )
        except Exception:
            _report_failure(f"run_serve({kernel}, rate={rate})")
            scenario.tally.failed = requests
            scenario.tally.consistent = False
            return scenario
        logs = [pm.request_log for pm in memories if any(pm.machine is m for m in machines)]
        for machine in machines:
            scenario.tally.sim_instructions += machine.stats.instructions
            self.stats.add(machine.stats)
        del machines, memories

        schedule = open_loop_schedule(traffic, SERVE_SHARDS)
        arrival = {request.seq: request.arrival for request in schedule}
        served = set()
        for log in logs:
            for request, durable, _tid in log:
                due = arrival.get(request.seq)
                late = due is None or not due <= durable < math.inf
                if late or request.seq in served:
                    scenario.tally.consistent = False
                    continue
                served.add(request.seq)
                scenario.latencies.append(durable - due)
        scenario.latencies.sort()
        scenario.admitted = report.admitted
        scenario.digest = report.digest()
        accounted = (
            report.offered == requests == len(arrival)
            and report.offered == report.admitted + report.rejected
            and report.completed == report.admitted == sum(len(log) for log in logs)
            and percentile(scenario.latencies, 50.0) == report.p50
            and percentile(scenario.latencies, 99.0) == report.p99
        )
        if accounted:
            scenario.tally.failed = requests - len(served)
        else:
            scenario.tally.failed = requests
            scenario.tally.consistent = False
        return scenario

    def setup(self) -> Tally:
        tally = Tally()
        for kernel in self.shuffled(self.config.kernels):
            scenario = self._serve(kernel, REFERENCE_RATE, self.config.warmup_requests)
            tally.consistent &= scenario.tally.consistent and scenario.tally.failed == 0
        return tally

    def run_pass(self) -> Tally:
        config = self.config
        tally = Tally()
        ladder = {}
        for kernel, rate in self.shuffled((k, r) for k in config.kernels for r in RATES):
            scenario = self._serve(kernel, rate, config.requests)
            ladder[(kernel, rate)] = scenario
            tally.add(scenario.tally)
        if self.reference is None:
            self.reference = ladder
        elif any(ladder[key].digest != self.reference[key].digest for key in ladder):
            tally.consistent = False
        return tally

    def _pooled(self, rate: float) -> List[float]:
        return sorted(
            latency
            for (kernel, r), scenario in self.reference.items()
            if r == rate
            for latency in scenario.latencies
        )

    def capacity(self) -> float:
        """Highest ladder rate (req/Mcycle) at which every kernel serves
        every request with p99 within the limit; 0 when none does."""
        best = 0.0
        for rate in RATES:
            scenarios = [self.reference[(kernel, rate)] for kernel in self.config.kernels]
            if all(
                s.tally.failed == 0 and percentile(s.latencies, 99.0) <= P99_LIMIT_CYCLES
                for s in scenarios
            ):
                best = max(best, rate * 1e6)
        return best

    def layer_extras(self) -> Dict[str, float]:
        scenarios = self.reference.values()
        offered = sum(s.tally.attempted for s in scenarios)
        extras = {
            "sched.admitted_ratio": sum(s.admitted for s in scenarios) / offered,
            "sched.capacity_rpmc": self.capacity(),
        }
        for rate in RATES:
            pooled = self._pooled(rate)
            extras[f"sched.p50_cycles.{rate_label(rate)}"] = percentile(pooled, 50.0)
            extras[f"sched.p99_cycles.{rate_label(rate)}"] = percentile(pooled, 99.0)
        return extras

    def summary(self) -> str:
        pooled = self._pooled(REFERENCE_RATE)
        refused = {
            f"{kernel}@{rate_label(rate)}": s.tally.failed
            for (kernel, rate), s in sorted(self.reference.items())
            if s.tally.failed
        }
        return (
            f"latency at {rate_label(REFERENCE_RATE)}: p50 {percentile(pooled, 50.0):.1f}, "
            f"p99 {percentile(pooled, 99.0):.1f} cycles over {len(pooled)} samples from "
            f"{len(self.config.kernels)} kernels; capacity {self.capacity():.0f} req/Mcycle; "
            f"failed per scenario {refused or 'none'}"
        )


# ----------------------------------------------------------------------
# crash: fault campaigns (crash, recover twice, verify)
# ----------------------------------------------------------------------
CRASH_THREADS = 1


@dataclass(frozen=True)
class CrashConfig:
    benchmarks: Tuple[str, ...] = ("hash", "btree", "rbtree")
    points: int = 60
    txns_per_thread: int = 60
    warmup_points: int = 12
    input_seed: int = 7
    held_out_seed: int = 11


class CrashBench(BenchWorkload):
    """``run_fault_campaign`` over the four guaranteed designs, one call
    per benchmark and design (a campaign's designs are independent, and
    the verdicts equal those of one call over all four).

    Set-up runs small campaigns on the first benchmark.  An op is one
    crash point; it fails when recovery does not reproduce the golden
    committed state.  Simulated instructions and modelled counters come
    from the ``MachineStats`` of every machine a campaign builds.

    Campaigns and designs always run in the same order, so the run seed
    changes nothing here: every crash point builds a machine whose
    multi-megabyte image is freed by the cyclic garbage collector, and
    other orders moved the peak resident set by up to a fifth.
    """

    name = "crash"
    setup_repeats = 3

    def __init__(self, config: CrashConfig, order_seed: int) -> None:
        super().__init__(config, order_seed)
        self.reference: Optional[Dict[tuple, list]] = None

    def _campaign(self, benchmark: str, policy, points: int) -> Tuple[Tally, list]:
        config = self.config
        tally = Tally()
        try:
            with observe(Machine, keep=lambda machine: machine.stats) as machine_stats:
                result = self.call(
                    run_fault_campaign,
                    policies=(policy,),
                    workload=benchmark,
                    points=points,
                    txns_per_thread=config.txns_per_thread,
                    threads=CRASH_THREADS,
                    seed=config.input_seed,
                )
        except Exception:
            _report_failure(f"run_fault_campaign({benchmark}, {policy.value})")
            tally.attempted = tally.failed = points
            tally.consistent = False
            return tally, []
        for stats in machine_stats:
            tally.sim_instructions += stats.instructions
            self.stats.add(stats)
        outcome = [
            (p.point.label, p.consistent, p.triggered)
            for report in result.reports
            for p in report.points
        ]
        tally.attempted = len(outcome)
        tally.failed = sum(not consistent for _, consistent, _ in outcome)
        tally.consistent = [r.policy.value for r in result.reports] == [policy.value]
        return tally, outcome

    def setup(self) -> Tally:
        config = self.config
        tally = Tally()
        for policy in GUARANTEED_POLICIES:
            campaign, _ = self._campaign(config.benchmarks[0], policy, config.warmup_points)
            tally.consistent &= campaign.consistent
        return tally

    def run_pass(self) -> Tally:
        tally = Tally()
        verdicts = {}
        for benchmark in self.config.benchmarks:
            for policy in GUARANTEED_POLICIES:
                campaign, outcome = self._campaign(benchmark, policy, self.config.points)
                tally.add(campaign)
                verdicts[(benchmark, policy.value)] = outcome
        if self.reference is None:
            self.reference = verdicts
        elif verdicts != self.reference:
            tally.consistent = False
        return tally

    def failing_points(self) -> List[str]:
        return [
            f"{benchmark}/{policy}: {label}"
            for (benchmark, policy), outcome in sorted(self.reference.items())
            for label, consistent, _ in outcome
            if not consistent
        ]

    def layer_extras(self) -> Dict[str, float]:
        outcomes = [verdict for outcome in self.reference.values() for verdict in outcome]
        return {
            "faults.points": len(outcomes),
            "faults.triggered_ratio": (
                sum(t for _, _, t in outcomes) / len(outcomes) if outcomes else 0.0
            ),
            "faults.violations": sum(not consistent for _, consistent, _ in outcomes),
        }

    def summary(self) -> str:
        failing = self.failing_points()
        return f"{len(failing)} failing crash point(s): {', '.join(failing) or 'none'}"


WORKLOADS = {
    "sweep": (SweepBench, SweepConfig),
    "serve": (ServeBench, ServeLadderConfig),
    "crash": (CrashBench, CrashConfig),
}


def make_workload(name: str, order_seed: int, config=None, held_out: bool = False) -> BenchWorkload:
    """Build workload ``name`` (default config unless one is given)."""
    bench_class, config_class = WORKLOADS[name]
    config = config if config is not None else config_class()
    if held_out:
        config = dataclasses.replace(config, input_seed=config.held_out_seed)
    return bench_class(config, order_seed)
