"""Run one workload untraced (end-to-end metrics) or traced (per layer).

Untraced: set up, then run whole passes until the timed calls into the
program have taken ``seconds`` of wall time; every op of every pass is
checked.  Host-time metrics are in reference seconds: the calls' wall
time scaled by the host speed sampled after each call (``calibrate``).
Traced: the same set-up and exactly one pass with the layer wrappers
installed (fixed work, so every count repeats), then one untraced pass
of the same work to measure the tracing overhead; its ``*_s`` metrics
are plain wall seconds.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Dict, Optional, Tuple

from . import tracer
from .calibrate import HostClock
from .workloads import RATES, make_workload, rate_label

#: Per-layer metric -> unit, in report order.
LAYER_UNITS: Dict[str, str] = {
    "workloads.setup_s": "s",
    "workloads.image_bytes": "bytes",
    "nvram.poke_calls": "count",
    "replay.compile_s": "s",
    "replay.self_s": "s",
    "replay.ops": "count",
    "txn.self_s": "s",
    "txn.calls": "count",
    "core.self_s": "s",
    "hierarchy.self_s": "s",
    "hierarchy.l1_hit_ratio": "ratio",
    "hierarchy.llc_misses": "count",
    "memctrl.self_s": "s",
    "nvram.self_s": "s",
    "nvram.writes": "count",
    "nvram.write_bytes": "bytes",
    "nvram.row_hit_ratio": "ratio",
    "log.self_s": "s",
    "log.encode_calls": "count",
    "log.records": "count",
    "log.bytes": "bytes",
    "fwb.self_s": "s",
    "fwb.scans": "count",
    "fwb.useful_ratio": "ratio",
    "fwb.wrap_forced_writebacks": "count",
    "recovery.self_s": "s",
    "recovery.calls": "count",
    "recovery.records_scanned": "count",
    "recovery.torn_skipped": "count",
    "faults.points": "count",
    "faults.triggered_ratio": "ratio",
    "faults.violations": "count",
    "sched.self_s": "s",
    "sched.steps": "count",
    "sched.admitted_ratio": "ratio",
    "sched.capacity_rpmc": "req/Mcycle",
    **{
        f"sched.{pct}_cycles.{rate_label(rate)}": "cycles"
        for pct in ("p50", "p99")
        for rate in RATES
    },
    "repl.self_s": "s",
    "repl.shipped": "count",
    "repl.compactions": "count",
    "sim.cycles": "cycles",
    "sim.instructions": "count",
    "sim.paper_gap_pct": "%",
    "stall.fence_cycles": "cycles",
    "stall.wcb_cycles": "cycles",
    "stall.log_buffer_cycles": "cycles",
    "stall.write_queue_cycles": "cycles",
    "stall.fwb_tax_cycles": "cycles",
    "other.self_s": "s",
    "trace.overhead_pct": "%",
}

#: Modelled counters reported per layer, by MachineStats field.
STATS_METRICS = {
    "hierarchy.llc_misses": "llc_misses",
    "nvram.writes": "nvram_writes",
    "nvram.write_bytes": "nvram_write_bytes",
    "log.records": "log_records",
    "log.bytes": "log_bytes",
    "fwb.wrap_forced_writebacks": "log_wrap_forced_writebacks",
    "sim.cycles": "cycles",
    "sim.instructions": "instructions",
    "stall.fence_cycles": "fence_stall_cycles",
    "stall.wcb_cycles": "wcb_stall_cycles",
    "stall.log_buffer_cycles": "log_buffer_stall_cycles",
    "stall.write_queue_cycles": "write_queue_stall_cycles",
    "stall.fwb_tax_cycles": "fwb_tax_cycles",
}

#: Span names counted as calls, per metric.
CALL_METRICS = {
    "nvram.poke_calls": ("NVRAM.poke",),
    "txn.calls": ("ThreadAPI.tx_begin", "ThreadAPI.tx_commit", "ThreadAPI.read", "ThreadAPI.write"),
    "log.encode_calls": ("LogRecord.encode",),
    "fwb.scans": ("ForceWriteBack.scan",),
    "recovery.calls": ("RecoveryManager.recover",),
    "repl.compactions": ("ReplicaNode.compact_below",),
}

#: Counters summed from wrapper return values (see ``tracer.COUNTERS``).
COUNTER_METRICS = (
    "workloads.image_bytes",
    "replay.ops",
    "recovery.records_scanned",
    "recovery.torn_skipped",
    "sched.steps",
    "repl.shipped",
)

#: Layer whose self time each ``*_s`` metric reports.
SELF_METRICS = {
    "workloads.setup_s": "workloads",
    "replay.compile_s": "replay.compile",
    "replay.self_s": "replay",
    "txn.self_s": "txn",
    "core.self_s": "core",
    "hierarchy.self_s": "hierarchy",
    "memctrl.self_s": "memctrl",
    "nvram.self_s": "nvram",
    "log.self_s": "log",
    "fwb.self_s": "fwb",
    "recovery.self_s": "recovery",
    "sched.self_s": "sched",
    "repl.self_s": "repl",
    "other.self_s": tracer.OTHER,
}

#: Layers each workload is predicted never to enter (printed, not
#: enforced: a later refactor may legitimately change them).
PREDICTED_ABSENT = {
    "sweep": ("txn", "recovery"),
    "serve": ("replay", "replay.compile", "recovery"),
    "crash": ("replay", "replay.compile"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(
    log: tracer.SpanLog,
    stats: Dict[str, float],
    extras: Dict[str, float],
    overhead_pct: float,
) -> Dict[str, dict]:
    """Every per-layer metric from a span log and the modelled counters."""
    self_s = log.layer_self_seconds()
    calls = log.calls()
    values: Dict[str, float] = {}
    for name, layer in SELF_METRICS.items():
        values[name] = self_s.get(layer, 0.0)
    for name, spans in CALL_METRICS.items():
        values[name] = sum(calls.get(span, 0) for span in spans)
    for name in COUNTER_METRICS:
        values[name] = log.counters.get(name, 0)
    for name, field_name in STATS_METRICS.items():
        values[name] = stats.get(field_name, 0)
    values["hierarchy.l1_hit_ratio"] = _ratio(
        stats.get("l1_hits", 0), stats.get("l1_hits", 0) + stats.get("l1_misses", 0)
    )
    values["nvram.row_hit_ratio"] = _ratio(
        stats.get("nvram_row_hits", 0),
        stats.get("nvram_row_hits", 0) + stats.get("nvram_row_conflicts", 0),
    )
    values["fwb.useful_ratio"] = _ratio(
        stats.get("fwb_writebacks", 0), stats.get("fwb_lines_scanned", 0)
    )
    values["trace.overhead_pct"] = overhead_pct
    values.update(extras)
    return {name: _metric(values.get(name, 0), unit) for name, unit in LAYER_UNITS.items()}


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    config=None,
    held_out: bool = False,
    started: Optional[float] = None,
    spans_path=None,
    echo=print,
) -> dict:
    """Run ``workload`` once; returns the result object the CLI prints.

    ``started`` is the ``perf_counter`` reading at process start (the
    CLI derives it from the process's age); it defaults to now.
    """
    started = time.perf_counter() if started is None else started
    bench = make_workload(workload, seed, config=config, held_out=held_out)
    if trace:
        return _run_traced(bench, spans_path, echo)
    return _run_untraced(bench, seconds, started, echo)


def _setup(bench) -> Tuple[bool, list]:
    """Run the set-up unit ``setup_repeats`` times; returns whether every
    unit was consistent, and each unit's wall seconds in program calls."""
    consistent = True
    units = []
    for _ in range(bench.setup_repeats):
        before = bench.call_seconds
        consistent &= bench.setup().consistent
        units.append(bench.call_seconds - before)
    return consistent, units


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}


def _run_untraced(bench, seconds: float, started: float, echo) -> dict:
    startup = time.perf_counter() - started
    bench.clock = setup_clock = HostClock()
    consistent, units = _setup(bench)
    # Start-up and imports once, plus the median set-up unit, both scaled
    # by the host speed sampled during set-up.
    setup_s = (startup + statistics.median(units)) * setup_clock.speed()

    bench.clock = clock = HostClock()
    bench.call_seconds = 0.0
    passes = 0
    attempted = failed = instructions = 0
    while bench.call_seconds < seconds:
        tally = bench.run_pass()
        passes += 1
        attempted += tally.attempted
        failed += tally.failed
        instructions += tally.sim_instructions
        consistent &= tally.consistent
    bench.clock = None
    elapsed = clock.reference_seconds()

    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric((attempted - failed) / elapsed, "1/s"),
        "sim_insts_per_s": _metric(instructions / elapsed, "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }
    echo(
        f"perfbench {bench.name}: set-up {setup_s:.3f} s "
        f"(start-up {startup:.3f} s, units {', '.join(f'{u:.3f}' for u in units)} s wall, "
        f"host speed {setup_clock.speed():.3f}); {passes} pass(es), {attempted} op(s), "
        f"{failed} failed; timed calls {clock.wall:.3f} s wall at host speed "
        f"{clock.speed():.3f} = {elapsed:.3f} reference s"
    )
    echo(bench.summary())
    return _result(consistent, attempted, failed, metrics)


def _timed_pass(bench) -> Tuple[object, float]:
    """One pass and the wall time of its calls into the program."""
    bench.call_seconds = 0.0
    tally = bench.run_pass()
    return tally, bench.call_seconds


def _run_traced(bench, spans_path, echo) -> dict:
    log = tracer.SpanLog()
    bench.span_log = log
    installed = tracer.install(log)
    try:
        with log.span("bench.setup"):
            consistent, _units = _setup(bench)
        with log.span("bench.pass"):
            tally, traced_s = _timed_pass(bench)
    finally:
        installed.remove()
    bench.span_log = None
    stats = bench.stats.totals()
    extras = bench.layer_extras()

    plain, plain_s = _timed_pass(bench)
    consistent &= tally.consistent and plain.consistent

    overhead_pct = 100.0 * (traced_s - plain_s) / plain_s
    metrics = layer_metrics(log, stats, extras, overhead_pct)
    if spans_path is not None:
        log.write(spans_path)
    seen = log.layers_seen()
    entered = [layer for layer in PREDICTED_ABSENT[bench.name] if seen.get(layer)]
    echo(
        f"perfbench {bench.name} traced: {len(log)} spans, pass {traced_s:.3f} s traced "
        f"vs {plain_s:.3f} s plain; {tally.attempted} op(s), "
        f"{tally.failed} failed; "
        f"peak RSS {peak_rss_mb():.0f} MB"
    )
    echo(
        f"predicted-absent layers {', '.join(PREDICTED_ABSENT[bench.name])}: "
        + (f"ENTERED {', '.join(entered)}" if entered else "absent as predicted")
    )
    echo(bench.summary())
    return _result(consistent, tally.attempted, tally.failed, metrics)
