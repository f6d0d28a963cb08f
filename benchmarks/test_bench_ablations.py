"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper, but quantifications of its design arguments:

* **FWB scan interval** (Section IV-D): scanning more often than the
  log-wrap bound requires only adds tag-scan and write-back overhead;
  scanning less often leans on the wrap-protection stalls.
* **Centralized vs distributed logs** (Section III-F): per-thread rings
  remove contention on the single tail / log buffer at high thread
  counts.
* **log_grow()** (Section IV-A): enabling growth costs nothing while it
  does not trigger, and absorbs transactions larger than the log when it
  does.
"""

from dataclasses import replace

from repro import Machine, PersistentMemory
from repro.core.design import FWB, REDO_CLWB, UNDO_CLWB
from repro.core.fwb import required_scan_interval
from repro.harness.report import format_table
from repro.harness.runner import (
    RunConfig,
    default_experiment_config,
    prepare_workload,
    run_workload,
)
from repro.workloads.hashtable import HashTableWorkload


def test_bench_ablation_fwb_interval(benchmark):
    # A small (1K-entry) log makes the wrap-vs-scan trade-off visible
    # within a short run: the nominal interval is the Section IV-D bound.
    base = default_experiment_config()
    base = base.scaled(logging=replace(base.logging, log_entries=1024))
    nominal = required_scan_interval(base)
    workload = HashTableWorkload(seed=3)
    prepared = prepare_workload(workload, base)

    def sweep():
        rows = {}
        for factor in (0.125, 1.0, 16.0):
            cfg = base.scaled(
                logging=replace(
                    base.logging,
                    log_entries=1024,
                    fwb_scan_interval_override=int(nominal * factor),
                )
            )
            stats = run_workload(
                workload,
                RunConfig(policy=FWB, threads=1, txns_per_thread=400, system=cfg),
                prepared=prepared,
            ).stats
            rows[factor] = stats
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        format_table(
            "Ablation: FWB scan interval (hash, fwb design, 1K-entry log)",
            ["interval", "throughput", "scans", "fwb write-backs", "wrap forces"],
            [
                [
                    f"{factor}x nominal",
                    stats.throughput,
                    stats.fwb_scans,
                    stats.fwb_writebacks,
                    stats.log_wrap_forced_writebacks,
                ]
                for factor, stats in rows.items()
            ],
        )
    )
    # Over-frequent scanning does more scan work for no gain; a too-lazy
    # interval leans on the wrap-protection safety net instead.
    assert rows[0.125].fwb_scans > rows[1.0].fwb_scans > rows[16.0].fwb_scans
    assert rows[0.125].fwb_writebacks >= rows[1.0].fwb_writebacks
    assert (
        rows[16.0].log_wrap_forced_writebacks
        >= rows[1.0].log_wrap_forced_writebacks
    )
    overhead = 1 - rows[0.125].throughput / rows[1.0].throughput
    print(f"8x-too-frequent scanning costs {overhead * 100:.1f}% throughput "
          "(the paper tunes for ~3.6% at its 8 MB LLC / 3M-cycle point)")
    benchmark.extra_info["overfrequent_scan_overhead"] = round(overhead, 4)


def test_bench_ablation_distributed_log(benchmark):
    base = default_experiment_config()
    workload = HashTableWorkload(seed=3)
    prepared = prepare_workload(workload, base)

    def sweep():
        results = {}
        for rings in (0, 8):
            cfg = base.scaled(
                logging=replace(base.logging, distributed_logs=rings)
            )
            results[rings] = run_workload(
                workload,
                RunConfig(policy=FWB, threads=8, txns_per_thread=150, system=cfg),
                prepared=prepared,
            ).stats
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        format_table(
            "Ablation: centralized vs per-thread logs (hash, 8 threads, fwb)",
            ["log layout", "throughput", "log-buffer stalls", "log records"],
            [
                [
                    "centralized" if rings == 0 else f"{rings} per-thread rings",
                    stats.throughput,
                    stats.log_buffer_stall_cycles,
                    stats.log_records,
                ]
                for rings, stats in results.items()
            ],
        )
    )
    ratio = results[8].throughput / results[0].throughput
    print(f"distributed/centralized throughput: {ratio:.2f}x")
    print("The hardware tail has no software lock contention in this model, "
          "so per-thread rings mainly cut log-buffer stalls (visible above) "
          "at a small row-locality cost; Section III-F's scalability case is "
          "software-side.")
    assert results[8].log_buffer_stall_cycles <= results[0].log_buffer_stall_cycles
    assert ratio > 0.85  # never substantially worse in hardware terms
    benchmark.extra_info["distributed_speedup"] = round(ratio, 3)


def test_bench_ablation_adr_persist_domain(benchmark):
    """What if the machine had an ADR persist domain?

    The paper's model (2018, pre-pervasive-ADR) makes a write durable
    only at the NVRAM array, which is what makes clwb+fence expensive.
    With an ADR domain (durable at controller acceptance) the software
    designs' fences get much cheaper — fwb's advantage narrows but does
    not vanish: the instruction-stream and write-traffic savings remain.
    """
    base = default_experiment_config()
    workload = HashTableWorkload(seed=3)

    def sweep():
        results = {}
        for adr in (False, True):
            cfg = base.scaled(nvram=replace(base.nvram, adr_persist_domain=adr))
            prepared = prepare_workload(workload, cfg)
            stats = {}
            for policy in (UNDO_CLWB, REDO_CLWB, FWB):
                stats[policy] = run_workload(
                    workload,
                    RunConfig(
                        policy=policy, threads=1, txns_per_thread=300, system=cfg
                    ),
                    prepared=prepared,
                ).stats
            results[adr] = stats
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    rows = []
    gains = {}
    for adr, stats in results.items():
        best_sw = max(
            stats[REDO_CLWB].throughput, stats[UNDO_CLWB].throughput
        )
        gains[adr] = stats[FWB].throughput / best_sw
        rows.append(
            [
                "ADR" if adr else "no ADR (paper model)",
                stats[FWB].throughput,
                best_sw,
                gains[adr],
                stats[UNDO_CLWB].fence_stall_cycles,
            ]
        )
    print(
        format_table(
            "Ablation: persist domain (hash, 1 thread)",
            ["persist domain", "fwb thpt", "best sw-clwb thpt", "fwb gain", "sw fence stalls"],
            rows,
        )
    )
    assert gains[False] > gains[True] > 1.0
    print(f"fwb gain: {gains[False]:.2f}x without ADR vs {gains[True]:.2f}x with — "
          "hardware logging still wins on instructions and traffic alone")
    benchmark.extra_info["gain_no_adr"] = round(gains[False], 3)
    benchmark.extra_info["gain_adr"] = round(gains[True], 3)


def test_bench_ablation_log_grow(benchmark):
    base = default_experiment_config()

    def run_grow():
        cfg = base.scaled(
            logging=replace(base.logging, log_entries=256, enable_log_grow=True)
        )
        machine = Machine(cfg, FWB)
        pm = PersistentMemory(machine)
        api = pm.api(0)
        slots = [pm.heap.alloc(8) for _ in range(600)]
        api.tx_begin()  # one transaction bigger than the whole log
        for i, addr in enumerate(slots):
            api.write(addr, (i + 1).to_bytes(8, "little"))
        api.tx_commit()
        return machine

    machine = benchmark.pedantic(run_grow, rounds=1, iterations=1)
    print()
    print(f"single 600-write transaction over a 256-entry log: "
          f"grew {machine.log.grow_count} time(s), "
          f"{machine.log.total_regions} regions, "
          f"{machine.stats.log_records} records")
    assert machine.log.grow_count >= 1
    assert machine.stats.transactions_committed == 1
    benchmark.extra_info["grow_count"] = machine.log.grow_count
