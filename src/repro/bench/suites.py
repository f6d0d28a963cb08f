"""The registered benchmark suites.

Each suite exercises one performance-critical path of the system:

``sweep-serial`` / ``sweep-parallel``
    End-to-end sweep-engine throughput (the figure pipeline's engine),
    serially and over a two-worker process pool.
``cache-probe``
    The simulator's single hottest operation: set-associative tag
    probes, fills and LRU evictions, isolated from the rest of the
    machine.
``logbuffer-drain``
    The HWL log-buffer FIFO draining records onto the NVRAM bus through
    the memory controller's bank/bus scheduler.
``recovery-replay``
    Post-crash log-window scan and undo/redo replay (only the recovery
    pass itself is timed; the crashed run is setup).
``sweep-cache-hit``
    The content-addressed result cache's warm-hit path (key hashing +
    JSON decode; the cold populating sweep is setup).
``ablate-grid``
    Mechanism-grid fan-out through the sweep engine, including
    ``instant``-commit specs off the paper's canonical axis.
``compile-decode`` / ``compile-replay``
    The execution engine's two phases, timed apart so their costs are
    directly comparable in a baseline: decoding a workload's micro-op
    stream into a column trace (paid once per (workload, threads)), and
    replaying that trace across all eight canonical designs (paid per
    sweep cell — the phase the engine optimises).
``adapt-decide``
    The adaptive controller's decision path in isolation: per-window
    feature extraction from counter probes plus first-match policy-table
    lookup — the work every scheduler checkpoint pays in adaptive mode.
``adapt-switch``
    The safe-switch epoch barrier itself: a closed-loop run that cycles
    the write-back policy at cycle horizons, the way serve switches, so
    WCB drain, log-FIFO settling and the dirty-line force are all on the
    timed path.
``pstatic-matrix``
    The static persistency verifier against the dynamic checker over
    the same canonical-design matrix: one symbolic column walk per
    design versus one full replay per design.  The gate counter
    is ``bytes_ratio`` — bytes the dynamic engine must touch (NVRAM
    image restore + simulated I/O) over bytes the static engine walks
    (the column arrays) — required to stay >= 10.
``workload-prepare``
    Workload set-up: ``prepare_workload`` over the five Table III
    microbenchmarks on the sweep's machine, at their default footprints
    (one sixteenth of them under ``--quick``).  The counters pin each
    prepared image (length and CRC-32) and heap cursor.

Every suite returns counters that are pure functions of configuration —
simulated cycles, instructions, cache/NVRAM accesses — never wall time,
process ids, or host properties.
"""

from __future__ import annotations

import tempfile
import zlib

from ..core.design import CANONICAL_DESIGNS, FWB, HWL, REDO_CLWB, UNSAFE_BASE, expand_grid
from ..core.logbuffer import LogBuffer
from ..core.recovery import recover_image
from ..harness.cache import SweepCache
from ..harness.sweep import run_micro_sweep
from ..sim.cache import SetAssociativeCache
from ..sim.config import (
    CacheConfig,
    CoreConfig,
    LoggingConfig,
    MemCtrlConfig,
    NVDimmConfig,
    SystemConfig,
)
from ..sim.machine import Machine
from ..txn.runtime import PersistentMemory
from ..workloads.hashtable import HashTableWorkload
from .registry import BenchTimer, register


def _tiny_system(**overrides) -> SystemConfig:
    """A miniature machine (2 cores, 4 KB L1, 4 MB NVRAM) for the
    component-level suites; mirrors the test fixtures' configuration."""
    config = SystemConfig(
        num_cores=2,
        core=CoreConfig(),
        l1=CacheConfig(size_bytes=4 * 1024, ways=4, line_size=64, latency_ns=1.6),
        llc=CacheConfig(size_bytes=32 * 1024, ways=8, line_size=64, latency_ns=4.4),
        memctrl=MemCtrlConfig(),
        nvram=NVDimmConfig(size_bytes=4 * 1024 * 1024),
        logging=LoggingConfig(log_entries=256),
    )
    return config.scaled(**overrides) if overrides else config


def _sweep_counters(result) -> dict:
    """Aggregate a sweep's per-cell stats into deterministic counters.

    Cells are summed in canonical matrix order, so even the float sums
    are bit-stable run to run.
    """
    counters = {
        "cells": len(result.cells),
        "cycles": 0.0,
        "instructions": 0,
        "transactions_committed": 0,
        "l1_accesses": 0,
        "llc_misses": 0,
        "nvram_reads": 0,
        "nvram_writes": 0,
        "nvram_write_bytes": 0,
        "log_records": 0,
        "clwb_count": 0,
        "fwb_writebacks": 0,
    }
    for stats in result.cells.values():
        counters["cycles"] += stats.cycles
        counters["instructions"] += stats.instructions
        counters["transactions_committed"] += stats.transactions_committed
        counters["l1_accesses"] += stats.l1_hits + stats.l1_misses
        counters["llc_misses"] += stats.llc_misses
        counters["nvram_reads"] += stats.nvram_reads
        counters["nvram_writes"] += stats.nvram_writes
        counters["nvram_write_bytes"] += stats.nvram_write_bytes
        counters["log_records"] += stats.log_records
        counters["clwb_count"] += stats.clwb_count
        counters["fwb_writebacks"] += stats.fwb_writebacks
    return counters


def _sweep_matrix(quick: bool) -> dict:
    if quick:
        return dict(
            benchmarks=("hash",),
            threads=(1,),
            policies=(UNSAFE_BASE, REDO_CLWB, HWL, FWB),
            txns_per_thread=50,
        )
    return dict(
        benchmarks=("hash", "sps"),
        threads=(1, 2),
        policies=(UNSAFE_BASE, REDO_CLWB, HWL, FWB),
        txns_per_thread=150,
    )


@register("sweep-serial", "serial sweep-engine throughput over a fixed matrix")
def sweep_serial(quick: bool, timer: BenchTimer) -> dict:
    with timer.timed():
        result = run_micro_sweep(**_sweep_matrix(quick))
    return _sweep_counters(result)


@register("sweep-parallel", "two-worker parallel sweep of the same matrix")
def sweep_parallel(quick: bool, timer: BenchTimer) -> dict:
    with timer.timed():
        result = run_micro_sweep(**_sweep_matrix(quick), jobs=2)
    return _sweep_counters(result)


@register("cache-probe", "set-associative tag probe / fill / LRU eviction loop")
def cache_probe(quick: bool, timer: BenchTimer) -> dict:
    config = CacheConfig(size_bytes=32 * 1024, ways=8, line_size=64, latency_ns=4.4)
    cache = SetAssociativeCache(config, "bench")
    line = bytes(64)
    iterations = 60_000 if quick else 400_000
    # Footprint 4x the cache capacity, addressed by a fixed-seed LCG:
    # roughly 1-in-4 probes hit, every fill past warm-up evicts.
    span = 4 * config.size_bytes
    state = 0x9E3779B97F4A7C15
    hits = misses = evictions = 0
    with timer.timed():
        now = 0.0
        for _ in range(iterations):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            addr = (state >> 16) % span
            found = cache.lookup(addr)
            if found is not None:
                hits += 1
                cache.touch(found, now)
            else:
                misses += 1
                line_addr = addr & ~63
                _, victim = cache.fill(line_addr, line, now, dirty=bool(state & 1))
                if victim is not None:
                    evictions += 1
            now += 1.0
    return {
        "probes": iterations,
        "hits": hits,
        "misses": misses,
        "evictions": evictions,
        "occupancy": cache.occupancy,
        "dirty_lines": cache.dirty_count(),
    }


@register("logbuffer-drain", "HWL log-buffer FIFO drain through the memory controller")
def logbuffer_drain(quick: bool, timer: BenchTimer) -> dict:
    machine = Machine(_tiny_system(), FWB)
    buffer = LogBuffer(depth=15, memctrl=machine.memctrl, stats=machine.stats)
    records = 6_000 if quick else 40_000
    entry = machine.config.logging.log_entry_size
    payload = bytes(entry)
    base = machine.log_base
    ring = machine.config.logging.log_entries
    with timer.timed():
        now = 0.0
        total_stall = 0.0
        for index in range(records):
            addr = base + (index % ring) * entry
            stall, _durable = buffer.push(addr, payload, now)
            total_stall += stall
            # Producers arrive faster than the bus drains, so the FIFO
            # stays near-full and the back-pressure path is exercised.
            now += 2.0
    return {
        "records": records,
        "log_bytes": machine.stats.log_bytes,
        "stall_cycles": total_stall,
        "final_occupancy": buffer.occupancy,
        "nvram_writes": machine.stats.nvram_writes,
        "last_completion": buffer.last_completion,
    }


@register("recovery-replay", "post-crash log window scan and undo/redo replay")
def recovery_replay(quick: bool, timer: BenchTimer) -> dict:
    machine = Machine(_tiny_system(), HWL)
    pm = PersistentMemory(machine)
    workload = HashTableWorkload(
        seed=11, buckets_per_partition=16, keys_per_partition=64
    )
    workload.setup(pm)
    txns = 60 if quick else 200
    generator = workload.thread_body(pm.api(0, 0), 0, txns)
    for _ in generator:
        pass
    machine.crash(at_time=machine.core_time(0) * 0.6)
    with timer.timed():
        report = recover_image(machine.nvram, machine.config)
    return {
        "records_scanned": report.records_scanned,
        "window_entries": report.window_entries,
        "committed_instances": report.committed_instances,
        "uncommitted_instances": report.uncommitted_instances,
        "redo_writes": report.redo_writes,
        "undo_writes": report.undo_writes,
        "torn_records_skipped": report.torn_records_skipped,
    }


@register("sweep-cache-hit", "content-addressed result-cache warm-hit path")
def sweep_cache_hit(quick: bool, timer: BenchTimer) -> dict:
    matrix = dict(
        benchmarks=("hash",),
        threads=(1,),
        policies=(HWL, FWB),
        txns_per_thread=30 if quick else 100,
    )
    warm_passes = 5 if quick else 20
    with tempfile.TemporaryDirectory() as tmp:
        cache = SweepCache(tmp)
        run_micro_sweep(**matrix, cache=cache)  # cold populate (untimed)
        with timer.timed():
            for _ in range(warm_passes):
                run_micro_sweep(**matrix, cache=cache)
        return {
            "warm_passes": warm_passes,
            "hits": cache.hits,
            "misses": cache.misses,
            "stores": cache.stores,
            "corrupt": cache.corrupt,
        }


def _trace_fixture(quick: bool):
    """Prepared tiny-hash workload + run shape shared by the trace suites."""
    from ..harness.runner import prepare_workload

    workload = HashTableWorkload(
        seed=11, buckets_per_partition=32, keys_per_partition=256
    )
    txns = 40 if quick else 150
    return prepare_workload(workload, _tiny_system()), 2, txns


@register("compile-decode", "execution-engine decode: micro-op stream -> column trace")
def compile_decode(quick: bool, timer: BenchTimer) -> dict:
    from ..sim.replay import compile_trace

    prepared, threads, txns = _trace_fixture(quick)
    with timer.timed():
        trace = compile_trace(prepared, threads, txns)
    return {
        "ops": trace.op_count(),
        "write_pieces": trace.piece_count(),
        "column_bytes": sum(
            len(blob) for col in trace.thread_cols for blob in col.column_blobs()
        ),
        "image_prefix_bytes": len(trace.image_prefix),
        "threads": trace.threads,
        "txns_per_thread": trace.txns_per_thread,
    }


@register("compile-replay", "compiled-trace replay across all eight canonical designs")
def compile_replay(quick: bool, timer: BenchTimer) -> dict:
    from ..harness.runner import RunConfig
    from ..sim.replay import compile_trace, run_compiled

    prepared, threads, txns = _trace_fixture(quick)
    trace = compile_trace(prepared, threads, txns)  # decode once (setup, untimed)
    counters = {
        "replays": len(CANONICAL_DESIGNS),
        "ops_replayed": trace.op_count() * len(CANONICAL_DESIGNS),
        "cycles": 0.0,
        "instructions": 0,
        "transactions_committed": 0,
        "nvram_writes": 0,
        "nvram_write_bytes": 0,
        "log_records": 0,
        "clwb_count": 0,
        "fwb_writebacks": 0,
    }
    with timer.timed():
        for spec in CANONICAL_DESIGNS:
            outcome = run_compiled(
                trace,
                RunConfig(
                    policy=spec,
                    threads=threads,
                    txns_per_thread=txns,
                    system=prepared.system,
                    seed=11,
                ),
            )
            stats = outcome.stats
            counters["cycles"] += stats.cycles
            counters["instructions"] += stats.instructions
            counters["transactions_committed"] += stats.transactions_committed
            counters["nvram_writes"] += stats.nvram_writes
            counters["nvram_write_bytes"] += stats.nvram_write_bytes
            counters["log_records"] += stats.log_records
            counters["clwb_count"] += stats.clwb_count
            counters["fwb_writebacks"] += stats.fwb_writebacks
    return counters


@register("pstatic-matrix", "static verifier vs dynamic psan over the canonical designs")
def pstatic_matrix(quick: bool, timer: BenchTimer) -> dict:
    from ..harness.runner import RunConfig, prepare_workload
    from ..sanitizer.checker import replay_checked
    from ..sanitizer.static import verify_trace
    from ..sim.replay import compile_trace
    from ..workloads import make_microbenchmark

    # The production configuration, not the tiny fixture: the verifier's
    # economics hinge on the footprint >> trace regime (the replay must
    # restore a multi-MB NVRAM image per design; the walk never does).
    prepared = prepare_workload(make_microbenchmark("hash", seed=11))
    threads, txns = 2, (20 if quick else 40)
    trace = compile_trace(prepared, threads, txns)  # decode once (setup, untimed)
    column_bytes = sum(
        len(blob) for col in trace.thread_cols for blob in col.column_blobs()
    )
    counters = {
        "designs": len(CANONICAL_DESIGNS),
        "agreements": 0,
        "static_entries": 0,
        "static_bytes": 0,
        "dynamic_events": 0,
        "dynamic_bytes": 0,
    }
    with timer.timed():
        for spec in CANONICAL_DESIGNS:
            static = verify_trace(trace, spec, system=prepared.system, hb=False)
            counters["static_entries"] += static.cost()
            counters["static_bytes"] += column_bytes

            stats, report, _tracer = replay_checked(
                trace,
                RunConfig(
                    policy=spec,
                    threads=threads,
                    txns_per_thread=txns,
                    system=prepared.system,
                    seed=11,
                ),
            )
            counters["dynamic_events"] += report.events_processed
            counters["dynamic_bytes"] += (
                len(trace.image_prefix)
                + stats.nvram_read_bytes
                + stats.nvram_write_bytes
                + stats.log_bytes
            )
            counters["agreements"] += int(
                static.rules_fired() == report.rules_fired()
            )
    counters["bytes_ratio"] = counters["dynamic_bytes"] // max(
        1, counters["static_bytes"]
    )
    return counters


@register("ablate-grid", "mechanism-grid fan-out incl. instant-commit specs")
def ablate_grid(quick: bool, timer: BenchTimer) -> dict:
    designs = expand_grid(
        ("hw",), ("undo+redo",), ("clwb", "fwb", "none"), ("fenced", "instant")
    )
    with timer.timed():
        result = run_micro_sweep(
            benchmarks=("hash",),
            threads=(1,),
            policies=designs,
            txns_per_thread=30 if quick else 100,
        )
    counters = _sweep_counters(result)
    counters["designs"] = len(designs)
    counters["guaranteed_designs"] = sum(
        1 for spec in designs if spec.persistence_guaranteed
    )
    return counters


def _serve_counters(report) -> dict:
    """Deterministic counters from a serve report (cycles rounded: the
    values are exact simulated quantities, rounding only normalises the
    float formatting for the JSON baseline)."""
    return {
        "offered": report.offered,
        "admitted": report.admitted,
        "rejected": report.rejected,
        "completed": report.completed,
        "makespan_cycles": int(round(report.makespan_cycles)),
        "p50_cycles": int(round(report.p50)),
        "p99_cycles": int(round(report.p99)),
        "p999_cycles": int(round(report.p999)),
        "transactions": sum(s.transactions for s in report.per_shard),
        "log_records": sum(s.log_records for s in report.per_shard),
        "nvram_writes": sum(s.nvram_writes for s in report.per_shard),
    }


@register("serve-shard", "single-shard open-loop serve: step loop + batching")
def serve_shard(quick: bool, timer: BenchTimer) -> dict:
    from ..sched.serve import ServeConfig, run_serve
    from ..sched.traffic import TrafficConfig

    config = ServeConfig(
        workload="memcached",
        shards=1,
        threads=2,
        traffic=TrafficConfig(requests=64 if quick else 256, rate=0.002, seed=42),
    )
    with timer.timed():
        report = run_serve(config)
    return _serve_counters(report)


@register("serve-traffic", "bursty multi-shard serve: admission + log shipping")
def serve_traffic(quick: bool, timer: BenchTimer) -> dict:
    from ..sched.loop import AdmissionConfig
    from ..sched.serve import ServeConfig, run_serve
    from ..sched.traffic import TrafficConfig

    config = ServeConfig(
        workload="redis",
        shards=2,
        threads=2,
        batch_requests=4,
        admission=AdmissionConfig(max_queue_depth=16),
        traffic=TrafficConfig(
            requests=96 if quick else 384,
            rate=0.01,
            arrival="burst",
            burst_size=24,
            seed=42,
        ),
        replicas=1,
        ring_records=128,
    )
    with timer.timed():
        report = run_serve(config)
    counters = _serve_counters(report)
    counters["records_shipped"] = report.replication["shipped"]
    counters["ring_compactions"] = report.replication["compactions"]
    counters["records_compacted"] = report.replication["records_compacted"]
    return counters


@register("adapt-decide", "adaptive controller: feature windows + policy-table lookup")
def adapt_decide(quick: bool, timer: BenchTimer) -> dict:
    from ..adapt.features import feature_probe, window_features
    from ..adapt.table import default_policy_table, make_rule, PolicyTable
    from ..core.design import resolve_design
    from ..sim.stats import MachineStats

    windows = 2_000 if quick else 10_000
    tables = [
        default_policy_table(),
        PolicyTable(
            rules=(
                make_rule({"wrap_pressure_min": 0.6}, "hw+undo+redo+fwb"),
                make_rule({"write_intensity_min": 2.5}, "hw+undo+redo+clwb"),
                make_rule(
                    {"txn_size_max": 3.0, "miss_rate_max": 0.2},
                    "hw+undo+redo+nowb",
                ),
            ),
            default=None,
        ),
    ]
    start = resolve_design("hw+undo+redo+nowb")
    # A synthetic but exactly reproducible counter stream: each window's
    # probe deltas are fixed arithmetic functions of the window index,
    # sweeping every feature through its decision thresholds.
    stats = MachineStats()
    prev = feature_probe(stats, now=0.0)
    switches = [0] * len(tables)
    matched = 0
    with timer.timed():
        for index in range(1, windows + 1):
            stats.transactions_committed += 8
            stats.nvram_write_bytes += 256 + (index % 97) * 32
            stats.log_records += 16 + (index % 13)
            stats.log_wrap_forced_writebacks += (index % 11) // 9
            stats.llc_misses += (index % 29)
            stats.l1_hits += 900
            stats.l1_misses += 40 + (index % 37)
            cur = feature_probe(stats, now=float(index) * 128.0)
            features = window_features(prev, cur)
            prev = cur
            for pos, table in enumerate(tables):
                current = start
                target = table.decide(features, current)
                if target != current:
                    switches[pos] += 1
                    matched += 1
    return {
        "windows": windows,
        "tables": len(tables),
        "decisions": windows * len(tables),
        "matched": matched,
        "builtin_switches": switches[0],
        "trained_switches": switches[1],
    }


@register("adapt-switch", "safe-switch epoch barrier: drain + force + swap, mid-run")
def adapt_switch(quick: bool, timer: BenchTimer) -> dict:
    from ..core.design import resolve_design
    from ..faults.campaign import campaign_workload
    from ..harness.runner import RunConfig, batch_shard, prepare_workload

    cycle_specs = [
        resolve_design(name)
        for name in (
            "hw+undo+redo+clwb",
            "hw+undo+redo+fwb",
            "hw+undo+redo+nowb",
        )
    ]
    system = _tiny_system(logging=LoggingConfig(log_entries=256))
    prepared = prepare_workload(campaign_workload("hash", 7), system)
    run = RunConfig(
        policy=resolve_design("hw+undo+redo+nowb"),
        threads=2,
        txns_per_thread=24 if quick else 96,
        system=system,
    )
    # One switch per quarter of the unswitched run's makespan, cycling
    # through the family — at cycle horizons, the way serve switches.
    profile = batch_shard(prepared.workload, run, prepared)
    profile.drain()
    makespan = profile.clock()
    profile.machine.nvram.recycle()
    horizons = [makespan / 4, makespan / 2, 3 * makespan / 4]
    shard = batch_shard(prepared.workload, run, prepared)
    with timer.timed():
        for horizon, spec in zip(horizons, cycle_specs):
            shard.step(horizon)
            shard.switch_design(spec)
        shard.drain()
        stats = shard.machine.finalize()
    return {
        "design_switches": stats.design_switches,
        "switch_barrier_cycles": int(round(stats.switch_barrier_cycles)),
        "cycles": int(round(stats.cycles)),
        "transactions_committed": stats.transactions_committed,
        "log_records": stats.log_records,
        "log_wrap_forced_writebacks": stats.log_wrap_forced_writebacks,
        "clwb_count": stats.clwb_count,
        "fwb_writebacks": stats.fwb_writebacks,
        "nvram_writes": stats.nvram_writes,
    }


#: ``--quick`` sizes of the ``workload-prepare`` suite: one sixteenth of
#: each microbenchmark's default key, entry or vertex count.
_QUICK_PREPARE_SIZES = {
    "hash": dict(buckets_per_partition=256, keys_per_partition=4096),
    "rbtree": dict(keys_per_partition=1024),
    "sps": dict(entries_per_partition=8192),
    "btree": dict(keys_per_partition=1024),
    "ssca2": dict(vertices_per_partition=256),
}


@register("workload-prepare", "prepared images of the five microbenchmarks (set-up)")
def workload_prepare(quick: bool, timer: BenchTimer) -> dict:
    from ..harness.runner import default_experiment_config, prepare_workload
    from ..workloads import MICROBENCHMARKS, make_microbenchmark

    system = default_experiment_config()
    workloads = [
        make_microbenchmark(name, seed=42, **(_QUICK_PREPARE_SIZES[name] if quick else {}))
        for name in MICROBENCHMARKS
    ]
    with timer.timed():
        prepared = [prepare_workload(workload, system) for workload in workloads]
    counters = {}
    for name, image in zip(MICROBENCHMARKS, prepared):
        counters[f"{name}_prefix_bytes"] = len(image.image_prefix)
        counters[f"{name}_heap_cursor"] = image.heap_state[0]
        counters[f"{name}_prefix_crc32"] = zlib.crc32(image.image_prefix)
    return counters
