"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``tables``
    Print Tables I-III (hardware overhead, machine configuration,
    microbenchmark list).
``figure {6,7,8,9,10,11a,11b}``
    Regenerate one of the paper's figures (``--quick`` shrinks the sweep
    for a fast smoke run; ``--psan`` sanitizes every cell of the sweep
    behind figures 6-10, and exits 2 on 11a/11b, which run none).
``compare``
    Run one microbenchmark under all eight designs and print the
    comparison (like ``examples/policy_comparison.py``).
``ablate``
    Sweep a user-chosen grid of the mechanism space (``--specs`` or the
    ``--backends``/``--contents``/``--writebacks``/``--commits`` axes)
    through the sweep engine; every spec whose derived
    ``persistence_guaranteed`` is true is additionally gated by the
    persistency-ordering sanitizer.
``faults``
    Run the crash-consistency fault campaign: deterministic crash points
    (micro-op retires, log drains, FWB scans, wrap forces, mid-recovery)
    × fault types (none, torn log writes, ghost records) × policies,
    verifying every surviving NVRAM image against the golden model.
``dist``
    Run the distributed replication campaign: M simulated nodes ship the
    primary's committed HWL log records to R replicas over a
    latency/bandwidth interconnect, then a node-crash × link-fault grid
    (primary mid-transaction / mid-log-ship, replica loss, dropped /
    duplicated / delayed / torn shipment batches, damaged rings,
    mid-recovery kills) proves convergent recovery: every eligible
    survivor reconstructs the same bit-identical committed image, gated
    by the replication-ordering sanitizer rules.
``lifetime``
    Print the Section III-F NVRAM lifetime arithmetic for the configured
    log.
``psan``
    Run the persistency-ordering sanitizer over a benchmark x threads x
    policy matrix (plus adversarial broken-policy probes); exit non-zero
    on any violation in a guaranteed design — or if the probes fail to
    trip.
``pstatic``
    Run the static persistency verifier: prove or refute every psan rule
    symbolically from the compiled trace IR (one column walk, no
    replay), with a happens-before race detector riding along;
    ``--differential`` gates each verdict against the dynamic checker
    and replay-confirms every counterexample.
``lint``
    Run the pluggable determinism/accounting AST lint over the source
    tree; ``--strict`` additionally fails on stale ``lint: allow``
    suppressions.
``bench``
    Performance-regression benchmark suites: ``bench run`` measures the
    registered suites (deterministic cost counters + min-of-N
    wall-clock), ``bench compare`` diffs a fresh run against a committed
    ``BENCH_*.json`` baseline (0% tolerance on counters, configurable %
    on wall-clock) and exits non-zero on regression, ``bench update``
    rewrites the baseline intentionally.
``cache``
    Sweep result-cache maintenance: ``cache prune`` deletes
    ``.repro_cache`` entries whose ``CODE_SALT`` predates the current
    one (``--dry-run`` counts without deleting); ``cache stats`` reports
    entry counts and CRC32-verifies every compiled-trace blob.
"""

from __future__ import annotations

import argparse
import sys

from . import SystemConfig
from .core.design import CANONICAL_DESIGNS, DESIGNS, HW_RLOG, UNSAFE_BASE, expand_grid
from .core.lifetime import log_pass_period_seconds, log_region_lifetime_days
from .harness import experiments
from .harness.cache import SweepCache, cache_enabled
from .harness.parallel import SweepHealth, default_jobs
from .harness.runner import Preparation, RunConfig, prepare_workload, run_workload
from .harness.sweep import run_micro_sweep
from .workloads import MICROBENCHMARKS, make_microbenchmark


def _sweep_cache(args):
    """The CLI's sweep cache, or None when switched off.

    The cache defaults on at the CLI (library callers opt in instead);
    ``--no-cache`` or ``REPRO_SWEEP_CACHE=0`` disables it.
    """
    if getattr(args, "no_cache", False) or not cache_enabled():
        return None
    return SweepCache()


def _report_cache(cache) -> None:
    if cache is not None and (cache.hits or cache.misses):
        print(cache.summary())
    from .harness.cache import peek_trace_cache

    trace_cache = peek_trace_cache()
    if trace_cache is not None and (
        trace_cache.hits or trace_cache.misses or trace_cache.corrupt
    ):
        print(trace_cache.summary())


def _report_health(health) -> None:
    if health is not None and health.degraded:
        print(health.summary())


def _cmd_tables(_args) -> int:
    for result in (
        experiments.table1_hardware_overhead(),
        experiments.table2_configuration(),
        experiments.table3_microbenchmarks(),
    ):
        print(result.rendered)
        print()
    return 0


def _sweep_options(args) -> dict:
    """The ``run_micro_sweep`` options every CLI sweep takes from its
    flags: workers, result cache, self-healing, and a fresh
    ``PsanSweepReport`` when ``--psan`` was passed."""
    psan_report = None
    if getattr(args, "psan", False):
        from .sanitizer import PsanSweepReport

        psan_report = PsanSweepReport()
    return {
        "jobs": args.jobs,
        "cache": _sweep_cache(args),
        "cell_timeout": args.cell_timeout,
        "health": SweepHealth(),
        "psan_report": psan_report,
    }


def _report_sweeps(options) -> bool:
    """Print what the sweeps run with ``options`` did; True when the
    sanitizer (if any) found them clean."""
    _report_cache(options["cache"])
    _report_health(options["health"])
    return _report_psan(options["psan_report"])


def _report_psan(psan_report) -> bool:
    """Print a sweep's sanitizer outcome; returns True when clean.

    Diagnostics are only detailed for designs that claim a persistence
    guarantee; expected violations from unsafe baselines stay as one
    table row so they don't drown the real signal.
    """
    if psan_report is None:
        return True
    from repro.sanitizer.rules import claims_guarantee

    print(psan_report.render())
    for report in psan_report.reports:
        if not report.clean and claims_guarantee(report.policy):
            print(report.render())
    return psan_report.clean


def _cmd_figure(args) -> int:
    if args.psan and args.id in ("11a", "11b"):
        print(
            f"figure: --psan applies to the sweep figures 6-10; figure "
            f"{args.id} runs no sweep",
            file=sys.stderr,
        )
        return 2
    quick = args.quick
    txns = 60 if quick else 250
    threads = (1,) if quick else (1, 8)
    benchmarks = ("hash", "sps") if quick else tuple(MICROBENCHMARKS)
    options = _sweep_options(args)
    if args.id in ("6", "7", "8", "9"):
        sweep = run_micro_sweep(
            benchmarks=benchmarks,
            threads=threads,
            txns_per_thread=txns,
            **options,
        )
        fn = {
            "6": experiments.figure6_throughput,
            "7": experiments.figure7_ipc_instructions,
            "8": experiments.figure8_energy,
            "9": experiments.figure9_write_traffic,
        }[args.id]
        result = fn(sweep)
        if args.chart:
            from .harness.plots import figure_chart

            print(figure_chart(result))
        else:
            print(result.rendered)
        if args.id == "6":
            for t in threads:
                gain = experiments.summarize_fwb_gain(sweep, t)
                print(f"fwb gain over best software-clwb @{t}t: {gain:.2f}x")
    elif args.id == "10":
        kernels = ("ycsb", "tpcc") if quick else tuple(
            sorted(__import__("repro.workloads.whisper", fromlist=["WHISPER_KERNELS"]).WHISPER_KERNELS)
        )
        print(
            experiments.figure10_whisper(
                kernels=kernels,
                txns_per_thread=40 if quick else 150,
                **options,
            ).rendered
        )
    elif args.id == "11a":
        sizes = (0, 8, 15) if quick else (0, 8, 15, 16, 32, 64, 128, 256)
        print(
            experiments.figure11a_log_buffer(
                sizes=sizes, txns_per_thread=60 if quick else 300
            ).rendered
        )
    elif args.id == "11b":
        print(experiments.figure11b_fwb_frequency().rendered)
    else:  # pragma: no cover - argparse restricts choices
        return 2
    return 0 if _report_sweeps(options) else 1


def _cmd_compare(args) -> int:
    workload = make_microbenchmark(args.benchmark)
    prepared = prepare_workload(workload)
    print(f"{'design':12s} {'throughput':>11s} {'IPC':>7s} {'instrs':>9s} "
          f"{'NVRAM wr KB':>11s}")
    for policy in CANONICAL_DESIGNS:
        stats = run_workload(
            workload,
            RunConfig(
                policy=policy, threads=args.threads, txns_per_thread=args.txns
            ),
            prepared=prepared,
        ).stats
        print(
            f"{policy.value:12s} {stats.throughput:11.1f} {stats.ipc:7.3f} "
            f"{stats.instructions:9d} {stats.nvram_write_bytes / 1024:11.1f}"
        )
    return 0


def _cmd_ablate(args) -> int:
    if args.specs:
        designs = []
        for token in args.specs.split(","):
            spec = DESIGNS.resolve(token.strip())
            if spec not in designs:
                designs.append(spec)
    else:
        designs = expand_grid(
            args.backends.split(","),
            args.contents.split(","),
            args.writebacks.split(","),
            args.commits.split(","),
        )
    if not designs:
        print("ablate: the requested grid contains no valid design", file=sys.stderr)
        return 2

    benchmarks = args.benchmarks.split(",")
    threads_list = tuple(int(t) for t in args.threads.split(","))
    options = _sweep_options(args)
    if args.jobs is None:
        # Unlike the fixed-size figure sweeps, an ablation grid is
        # user-shaped — size the pool to the grid and the machine.
        options["jobs"] = default_jobs(
            len(designs) * len(benchmarks) * len(threads_list)
        )
    if not args.no_psan and any(spec.persistence_guaranteed for spec in designs):
        from .sanitizer import PsanSweepReport

        options["psan_report"] = PsanSweepReport()
    sweep = run_micro_sweep(
        benchmarks=benchmarks,
        threads=threads_list,
        policies=designs,
        txns_per_thread=args.txns,
        seed=args.seed,
        **options,
    )
    print(
        f"design-space ablation: {len(designs)} design(s) x "
        f"{benchmarks} x threads {list(threads_list)}, "
        f"{args.txns} txns/thread, seed {args.seed}"
    )
    print(
        f"{'benchmark':10s} {'thr':>3s} {'design':20s} {'mechanisms':26s} "
        f"{'guar':>4s} {'throughput':>11s} {'IPC':>7s} {'NVRAM-wr-KB':>11s}"
    )
    for benchmark in sweep.benchmarks():
        for threads in sweep.thread_counts():
            for spec in sweep.policies():
                stats = sweep.stats(benchmark, threads, spec)
                print(
                    f"{benchmark:10s} {threads:3d} {spec.value:20s} "
                    f"{spec.mechanism_string():26s} "
                    f"{'yes' if spec.persistence_guaranteed else 'no':>4s} "
                    f"{stats.throughput:11.1f} {stats.ipc:7.3f} "
                    f"{stats.nvram_write_bytes / 1024:11.1f}"
                )
    if args.chart:
        from .harness.plots import grouped_bars

        groups = {
            f"{benchmark} @ {threads} thread(s)": {
                spec.value: sweep.stats(benchmark, threads, spec).throughput
                for spec in sweep.policies()
            }
            for benchmark in sweep.benchmarks()
            for threads in sweep.thread_counts()
        }
        print()
        print(
            grouped_bars(
                "ablation throughput (txns / M cycles)",
                groups,
                value_format="{:.1f}",
            )
        )
    return 0 if _report_sweeps(options) else 1


def _cmd_validate(args) -> int:
    from .harness.validate import validate

    options = _sweep_options(args)
    if args.quick:
        report = validate(
            sweep=run_micro_sweep(
                benchmarks=("hash", "sps"),
                threads=(1,),
                txns_per_thread=80,
                **options,
            )
        )
    else:
        report = validate(**options)
    print(report.rendered)
    psan_clean = _report_sweeps(options)
    return 0 if report.passed and psan_clean else 1


def _cmd_faults(args) -> int:
    from .faults import resolve_policies, run_fault_campaign

    result = run_fault_campaign(
        policies=resolve_policies(args.policy),
        workload=args.workload,
        points=args.points,
        txns_per_thread=args.txns,
        threads=args.threads,
        seed=args.seed,
        progress=print if args.verbose else None,
    )
    print(result.rendered)
    return 0 if result.passed else 1


def _cmd_dist(args) -> int:
    from .dist import DistConfig, run_dist_campaign

    config = DistConfig(
        nodes=args.nodes,
        replicas=args.replicas,
        batch_records=args.batch_records,
        window_batches=args.window,
    )
    result = run_dist_campaign(
        benchmarks=tuple(args.benchmarks.split(",")),
        policies=tuple(name.strip() for name in args.policy.split(",")),
        config=config,
        threads=args.threads,
        txns_per_thread=args.txns,
        points_budget=args.points,
        seed=args.seed,
        probe=not args.no_probe,
        verbose_sink=print if args.verbose else None,
    )
    print(result.render())
    return 0 if result.passed else 1


def _cmd_psan(args) -> int:
    import json
    import os

    from .sanitizer import PersistOrderChecker, PsanSweepReport, run_psan

    if args.rules:
        from .sanitizer import RULES

        for rule in RULES.values():
            print(f"{rule.id:20s} {rule.paper_ref:12s} {rule.title}")
            print(f"{'':20s} {rule.description}")
        return 0

    if args.from_trace:
        from .sim.trace import Tracer

        tracer = Tracer.from_jsonl(args.from_trace)
        report = PersistOrderChecker.check_events(tracer.events())
        print(json.dumps(report.to_dict(), indent=2) if args.json else report.render())
        return 0 if report.clean else 1

    benchmarks = args.benchmarks.split(",")
    threads_list = [int(t) for t in args.threads.split(",")]
    policies = [DESIGNS.resolve(name) for name in args.policies.split(",")]
    if args.save_trace:
        os.makedirs(args.save_trace, exist_ok=True)

    # Each benchmark is prepared only if one of its traces misses the cache.
    preparations = [
        Preparation(make_microbenchmark(benchmark, seed=args.seed))
        for benchmark in benchmarks
    ]
    sweep = PsanSweepReport()
    for benchmark, prepared in zip(benchmarks, preparations):
        for threads in threads_list:
            for policy in policies:
                trace_path = None
                if args.save_trace:
                    trace_path = os.path.join(
                        args.save_trace,
                        f"{benchmark}-{threads}t-{policy.value}.jsonl",
                    )
                sweep.reports.append(
                    run_psan(
                        benchmark,
                        policy,
                        threads=threads,
                        txns_per_thread=args.txns,
                        prepared=prepared,
                        seed=args.seed,
                        trace_path=trace_path,
                    )
                )

    # Adversarial probes: the sanitizer itself is under test here — the
    # designs without a persistence guarantee MUST trip a rule, or the
    # checker has gone blind.
    adversarial = {}
    if not args.no_adversarial:
        probe_bench = benchmarks[0]
        for policy in (UNSAFE_BASE, HW_RLOG):
            report = run_psan(
                probe_bench,
                policy,
                threads=1,
                txns_per_thread=args.txns,
                prepared=preparations[0],
                seed=args.seed,
            )
            adversarial[policy.value] = sorted(report.rules_fired())

    adversarial_ok = args.no_adversarial or all(adversarial.values())
    if args.json:
        print(
            json.dumps(
                {
                    "matrix": sweep.to_dict(),
                    "adversarial": adversarial,
                    "adversarial_ok": adversarial_ok,
                    "passed": sweep.clean and adversarial_ok,
                },
                indent=2,
            )
        )
    else:
        print(sweep.render())
        for name, rules in adversarial.items():
            verdict = f"tripped {','.join(rules)}" if rules else "FAILED TO TRIP"
            print(f"adversarial {name:12s} {verdict}")
        for report in sweep.reports:
            if not report.clean:
                print(report.render())
        print(
            "psan: PASS"
            if sweep.clean and adversarial_ok
            else "psan: FAIL"
        )
    return 0 if sweep.clean and adversarial_ok else 1


def _cmd_lint(args) -> int:
    import json
    import os

    from .sanitizer.lint import STALE_SUPPRESSION, lint_paths

    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    findings = lint_paths(paths)
    real = [f for f in findings if f.rule != STALE_SUPPRESSION]
    stale = [f for f in findings if f.rule == STALE_SUPPRESSION]
    if args.json:
        print(
            json.dumps(
                {
                    "findings": [finding.to_dict() for finding in findings],
                    "real": len(real),
                    "stale_suppressions": len(stale),
                    "strict": args.strict,
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        print(f"lint: {len(findings)} finding(s)" if findings else "lint: clean")
        if stale and not args.strict:
            print(
                f"lint: {len(stale)} stale suppression(s) — informational "
                "(fatal under --strict)"
            )
    # Stale suppressions are advisory by default; --strict makes every
    # finding (including them) fatal.
    if real:
        return 1
    return 1 if (args.strict and findings) else 0


def _cmd_pstatic(args) -> int:
    import json

    from .sanitizer.static import StaticSweepReport, run_differential, run_pstatic

    benchmarks = args.benchmarks.split(",")
    threads_list = [int(t) for t in args.threads.split(",")]
    policies = [DESIGNS.resolve(name) for name in args.policies.split(",")]
    hb = not args.no_hb

    if args.differential:
        report = run_differential(
            benchmarks,
            threads_list,
            policies,
            txns_per_thread=args.txns,
            seed=args.seed,
            hb=hb,
            progress=print if args.verbose else None,
        )
        if args.markdown:
            with open(args.markdown, "w", encoding="utf-8") as fh:
                fh.write(report.render_markdown() + "\n")
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        return 0 if report.passed else 1

    sweep = StaticSweepReport()
    for benchmark in benchmarks:
        prepared = Preparation(make_microbenchmark(benchmark, seed=args.seed))
        for threads in threads_list:
            for policy in policies:
                sweep.reports.append(
                    run_pstatic(
                        benchmark,
                        policy,
                        threads=threads,
                        txns_per_thread=args.txns,
                        prepared=prepared,
                        seed=args.seed,
                        hb=hb,
                    )
                )
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(sweep.render_markdown() + "\n")
    if args.json:
        print(json.dumps(sweep.to_dict(), indent=2))
    else:
        print(sweep.render())
        for report in sweep.reports:
            if not report.clean or (report.races is not None and not report.races.clean):
                print(report.render(proofs=args.proofs))
            elif args.proofs:
                print(report.render(proofs=True))
        print("pstatic: PASS" if sweep.clean else "pstatic: FAIL")
    return 0 if sweep.clean else 1


def _cmd_cache(args) -> int:
    from pathlib import Path

    from .harness.cache import TraceCache, default_cache_dir, peek_trace_cache

    directory = Path(args.dir) if args.dir else default_cache_dir()
    cache = SweepCache(directory)
    if args.cache_command == "prune":
        counts = cache.prune(dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        print(
            f"cache prune: {counts['scanned']} entr(ies) scanned, "
            f"{counts['stale']} stale (salt != {cache.salt!r}), "
            f"{verb} {counts['stale'] if args.dry_run else counts['removed']}, "
            f"{counts['kept']} kept ({directory})"
        )
        trace_counts = TraceCache(directory).prune(dry_run=args.dry_run)
        print(
            f"trace prune: {trace_counts['scanned']} entr(ies) scanned, "
            f"{trace_counts['stale']} stale (undecodable format), "
            f"{verb} "
            f"{trace_counts['stale'] if args.dry_run else trace_counts['removed']}, "
            f"{trace_counts['kept']} kept ({directory})"
        )
        return 0
    if args.cache_command == "stats":
        sweep_counts = cache.prune(dry_run=True)
        print(
            f"sweep cache: {sweep_counts['scanned']} entr(ies), "
            f"{sweep_counts['kept']} current, {sweep_counts['stale']} stale "
            f"({directory})"
        )
        trace_counts = TraceCache(directory).verify_disk()
        print(
            f"trace cache: {trace_counts['scanned']} entr(ies), "
            f"{trace_counts['ok']} CRC-verified, "
            f"{trace_counts['stale']} stale (prunable), "
            f"{trace_counts['bytes'] / 1024:.1f} KiB ({directory})"
        )
        live = peek_trace_cache()
        if live is not None and (live.hits or live.misses or live.corrupt):
            print(f"this process: {live.summary()}")
        return 0
    return 2  # pragma: no cover - argparse restricts choices


def _cmd_lifetime(_args) -> int:
    config = SystemConfig()
    period = log_pass_period_seconds(config)
    days = log_region_lifetime_days(config)
    print(f"log entries            : {config.logging.log_entries}")
    print(f"log size               : {config.logging.log_bytes / 2**20:.1f} MB")
    print(f"per-cell overwrite gap : {period * 1e3:.2f} ms "
          "(one full pass at back-to-back 200 ns writes)")
    print(f"time to 1e8 overwrites : {days:.1f} days "
          "(paper: ~15 days — ample for wear-leveling to trigger)")
    return 0


def _load_policy_table(args):
    """The policy table ``--adaptive`` / ``--policy-table`` selects."""
    from .adapt import PolicyTable, default_policy_table

    if getattr(args, "policy_table", None):
        return PolicyTable.load(args.policy_table)
    return default_policy_table()


def _cmd_serve(args) -> int:
    from .sched.loop import AdmissionConfig
    from .sched.serve import ServeConfig, run_serve
    from .sched.traffic import TrafficConfig

    table = None
    if args.adaptive or args.policy_table:
        table = _load_policy_table(args)
    config = ServeConfig(
        workload=args.workload,
        policy=args.design,
        shards=args.shards,
        threads=args.threads,
        batch_requests=args.batch,
        traffic=TrafficConfig(
            requests=args.requests,
            rate=args.rate,
            arrival=args.arrival,
            burst_size=args.burst_size,
            clients=args.clients,
            seed=args.seed,
        ),
        admission=AdmissionConfig(max_queue_depth=args.queue_depth),
        seed=args.seed,
        replicas=args.replicas,
        ring_records=args.ring_records,
        policy_table=table,
        adapt_window_txns=args.adapt_window,
    )
    config.validate()
    report = run_serve(config)
    print(report.render())
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(report.render_markdown())
        print(f"markdown report written to {args.markdown}")
    if args.json:
        import json as json_module

        with open(args.json, "w") as handle:
            json_module.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"json report written to {args.json}")
    return 0


def _cmd_adapt_train(args) -> int:
    from .adapt import DriftConfig, train_policy_table

    cache = _sweep_cache(args)
    kwargs = dict(
        threads=args.threads,
        txns_per_thread=args.txns,
        seed=args.seed,
        jobs=args.jobs,
        cache=cache,
        cell_timeout=args.cell_timeout,
    )
    if args.specs:
        kwargs["specs"] = tuple(s.strip() for s in args.specs.split(","))
    if args.benchmarks:
        table = train_policy_table(
            benchmarks=tuple(args.benchmarks.split(",")), **kwargs
        )
    else:
        table = train_policy_table(phases=DriftConfig().phases, **kwargs)
    table.save(args.out)
    units = table.trained_on.get("units", [])
    print(
        f"adapt train: {table.trained_on.get('mode')} mode, "
        f"{len(units)} unit(s), candidates "
        f"{','.join(table.trained_on.get('candidates', ()))}"
    )
    for unit in units:
        cycles = unit["cycles"]
        print(
            f"  {unit['label']:10s} best {unit['best']:24s} "
            + " ".join(f"{k}={v:.1f}" for k, v in sorted(cycles.items()))
        )
    for rule in table.rules:
        conds = ", ".join(f"{k} >= {v:.4f}" if k.endswith("_min") else
                          f"{k[:-4]} <= {v:.4f}" for k, v in rule.when)
        print(f"  rule: {conds} -> {rule.spec.mechanism_string()}")
    print(
        f"  default: "
        f"{'hold' if table.default is None else table.default.mechanism_string()}"
        + (
            f", start: {table.start.mechanism_string()}"
            if table.start is not None
            else ""
        )
    )
    print(f"policy table written to {args.out}")
    _report_cache(cache)
    return 0


def _cmd_adapt_run(args) -> int:
    import json

    from .adapt import DriftConfig, compare_drift

    table = _load_policy_table(args)
    config = DriftConfig(
        threads=args.threads,
        seed=args.seed,
        window_txns=args.window,
    )
    result = compare_drift(config, table=table)
    adaptive = result["adaptive"]
    print(
        f"adapt run: drift scenario "
        f"({' + '.join(str(p['requests']) for p in adaptive['phases'])} "
        f"requests), window {args.window} txns"
    )
    rows = [("adaptive", adaptive)] + sorted(result["static"].items())
    width = max(len(name) for name, _report in rows)
    print(f"  {'design':{width}s} {'cycles':>12s} {'switches':>8s} "
          f"{'wrap-forces':>11s} {'clwbs':>8s}")
    for name, report in rows:
        counters = report["counters"]
        print(
            f"  {name:{width}s} {report['total_cycles']:12.1f} "
            f"{counters['design_switches']:8d} "
            f"{counters['log_wrap_forced_writebacks']:11d} "
            f"{counters['clwb_count']:8d}"
        )
    for decision in adaptive.get("adaptation", {}).get("decisions", ()):
        print(
            f"  decision @{decision.get('cycle', 0.0):.0f}: "
            f"{decision.get('from')} -> {decision.get('to')} "
            f"({decision.get('outcome')}, wrap_pressure "
            f"{decision.get('features', {}).get('wrap_pressure', 0.0):.2f})"
        )
    print(
        f"  best static: {result['best_static']} "
        f"({result['best_static_cycles']:.1f} cycles); adaptive "
        f"{'WINS' if result['adaptive_wins'] else 'LOSES'} "
        f"(margin {result['margin'] * 100:.2f}%)"
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"json report written to {args.json}")
    return 0 if result["adaptive_wins"] else 1


def _cmd_adapt_faults(args) -> int:
    from .adapt import run_switch_campaign

    result = run_switch_campaign(
        workload=args.workload,
        txns_per_thread=args.txns,
        threads=args.threads,
        seed=args.seed,
        progress=print if args.verbose else None,
    )
    print(result.rendered)
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Steal-but-No-Force (HPCA 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("tables").set_defaults(fn=_cmd_tables)

    def _sweep_flags(cmd, psan: bool = True, jobs_default: int = 1) -> None:
        if jobs_default is None:
            jobs_help = (
                "worker processes for sweep cells (default: auto — one "
                "per cell, capped at cpu_count-1)"
            )
        else:
            jobs_help = "worker processes for sweep cells (default: 1, in-process)"
        cmd.add_argument(
            "--jobs",
            type=int,
            default=jobs_default,
            help=jobs_help,
        )
        cmd.add_argument(
            "--no-cache",
            action="store_true",
            help="skip the on-disk sweep result cache (.repro_cache)",
        )
        cmd.add_argument(
            "--cell-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-cell wait bound for parallel sweeps; hung workers "
            "are terminated, the cell retried, then run serially",
        )
        if psan:
            cmd.add_argument(
                "--psan",
                action="store_true",
                help="run every sweep cell under the persistency-ordering "
                "sanitizer (bypasses the result cache); non-zero exit on "
                "any violation",
            )

    figure = sub.add_parser("figure")
    figure.add_argument("id", choices=["6", "7", "8", "9", "10", "11a", "11b"])
    figure.add_argument("--quick", action="store_true")
    figure.add_argument(
        "--chart", action="store_true", help="render as terminal bar charts"
    )
    _sweep_flags(figure)
    figure.set_defaults(fn=_cmd_figure)
    compare = sub.add_parser("compare")
    compare.add_argument("--benchmark", default="hash", choices=sorted(MICROBENCHMARKS))
    compare.add_argument("--threads", type=int, default=1)
    compare.add_argument("--txns", type=int, default=200)
    compare.set_defaults(fn=_cmd_compare)
    ablate = sub.add_parser(
        "ablate",
        help="sweep a custom grid of the mechanism design space",
    )
    ablate.add_argument(
        "--specs",
        default=None,
        help="comma-separated designs: registered names and/or mechanism "
        "strings, e.g. 'fwb,hw+undo+clwb,sw+redo+fwb' (overrides the "
        "axis flags)",
    )
    ablate.add_argument(
        "--backends",
        default="hw,sw",
        help="log-backend axis values: hw, sw, none (default: hw,sw)",
    )
    ablate.add_argument(
        "--contents",
        default="undo,redo,undo+redo",
        help="log-content axis values (default: undo,redo,undo+redo)",
    )
    ablate.add_argument(
        "--writebacks",
        default="none,clwb,fwb",
        help="write-back axis values (default: none,clwb,fwb)",
    )
    ablate.add_argument(
        "--commits",
        default="fenced",
        help="commit-protocol axis values: fenced, instant (default: fenced)",
    )
    ablate.add_argument(
        "--benchmarks", default="hash", help="comma-separated microbenchmarks"
    )
    ablate.add_argument(
        "--threads", default="1", help="comma-separated thread counts"
    )
    ablate.add_argument("--txns", type=int, default=60)
    ablate.add_argument("--seed", type=int, default=42)
    ablate.add_argument(
        "--no-psan",
        action="store_true",
        help="skip the sanitizer gate applied to guarantee-claiming specs",
    )
    ablate.add_argument(
        "--chart",
        action="store_true",
        help="append a terminal bar chart of per-cell throughput",
    )
    _sweep_flags(ablate, psan=False, jobs_default=None)
    ablate.set_defaults(fn=_cmd_ablate)
    faults = sub.add_parser(
        "faults",
        help="crash-point × fault-type × policy consistency campaign",
    )
    faults.add_argument(
        "--policy",
        default="guaranteed",
        help="'guaranteed' (default), 'all', 'instant' (instant-commit "
        "variants of the guaranteed grid), or a comma-separated list of "
        "design names / mechanism strings (e.g. "
        "'fwb,hw+undo+redo+clwb+instant')",
    )
    faults.add_argument(
        "--workload", default="hash", choices=sorted(MICROBENCHMARKS)
    )
    faults.add_argument(
        "--points", type=int, default=60, help="crash-point budget per policy"
    )
    faults.add_argument("--txns", type=int, default=60)
    faults.add_argument("--threads", type=int, default=1)
    faults.add_argument("--seed", type=int, default=7)
    faults.add_argument(
        "--verbose", action="store_true", help="print one line per policy"
    )
    faults.set_defaults(fn=_cmd_faults)
    dist = sub.add_parser(
        "dist",
        help="replicated log shipping: node-crash × link-fault campaign "
        "with convergent recovery",
    )
    dist.add_argument(
        "--nodes", type=int, default=3, help="total simulated nodes (default: 3)"
    )
    dist.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="replication factor R: log records ship to R standby nodes "
        "(default: 2; requires nodes >= R+1)",
    )
    dist.add_argument(
        "--benchmarks",
        default="hash,rbtree,sps,btree,ssca2",
        help="comma-separated microbenchmarks (default: all five)",
    )
    dist.add_argument(
        "--policy",
        default="hwl",
        help="comma-separated designs to trace (default: hwl)",
    )
    dist.add_argument(
        "--points",
        type=int,
        default=16,
        help="fault-grid budget per benchmark (default: 16 — the full grid)",
    )
    dist.add_argument("--txns", type=int, default=30)
    dist.add_argument("--threads", type=int, default=2)
    dist.add_argument("--seed", type=int, default=42)
    dist.add_argument(
        "--batch-records",
        type=int,
        default=8,
        help="records per shipment batch (default: 8)",
    )
    dist.add_argument(
        "--window",
        type=int,
        default=4,
        help="bounded in-flight window, in batches per link (default: 4)",
    )
    dist.add_argument(
        "--no-probe",
        action="store_true",
        help="skip the ack-before-durable must-trip sanitizer probe",
    )
    dist.add_argument(
        "--verbose", action="store_true", help="print one line per fault point"
    )
    dist.set_defaults(fn=_cmd_dist)
    sub.add_parser("lifetime").set_defaults(fn=_cmd_lifetime)
    serve = sub.add_parser(
        "serve",
        help="run a seeded open-loop traffic scenario over sharded machines",
    )
    serve.add_argument(
        "--workload",
        default="memcached",
        choices=["memcached", "redis", "ycsb"],
        help="request-shaped WHISPER kernel to serve",
    )
    serve.add_argument(
        "--design",
        default=None,
        help="design spec to run every shard under (default: fwb, or the "
        "policy table's start design in adaptive mode)",
    )
    serve.add_argument(
        "--adaptive",
        action="store_true",
        help="enable the adaptive controller (built-in policy table "
        "unless --policy-table names one); shards may safe-switch "
        "designs mid-run",
    )
    serve.add_argument(
        "--policy-table",
        metavar="FILE",
        default=None,
        help="repro-adapt/v1 JSON policy table (implies --adaptive)",
    )
    serve.add_argument(
        "--adapt-window",
        type=int,
        default=16,
        help="committed transactions per controller decision window "
        "(default: 16)",
    )
    serve.add_argument("--shards", type=int, default=1)
    serve.add_argument("--threads", type=int, default=2, help="threads per shard")
    serve.add_argument("--requests", type=int, default=512)
    serve.add_argument(
        "--rate", type=float, default=0.002, help="offered load, requests/cycle"
    )
    serve.add_argument(
        "--arrival", default="poisson", choices=["poisson", "uniform", "burst"]
    )
    serve.add_argument("--burst-size", type=int, default=16)
    serve.add_argument(
        "--clients", type=int, default=1_000_000, help="simulated client id space"
    )
    serve.add_argument(
        "--batch", type=int, default=8, help="max requests per transaction batch"
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="per-shard admission bound on undispatched requests",
    )
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="replica rings per shard (mid-run log shipping + compaction)",
    )
    serve.add_argument("--ring-records", type=int, default=256)
    serve.add_argument(
        "--markdown", metavar="PATH", help="also write a markdown report"
    )
    serve.add_argument("--json", metavar="PATH", help="also write a JSON report")
    serve.set_defaults(fn=_cmd_serve)
    psan = sub.add_parser(
        "psan",
        help="persistency-ordering sanitizer over a benchmark matrix",
    )
    psan.add_argument(
        "--benchmarks",
        default="hash,rbtree,sps,btree,ssca2",
        help="comma-separated microbenchmarks (default: all five)",
    )
    psan.add_argument(
        "--threads",
        default="1,2,4,8",
        help="comma-separated thread counts (default: 1,2,4,8)",
    )
    psan.add_argument(
        "--policies",
        default="hwl,fwb",
        help="comma-separated designs to verify (default: hwl,fwb)",
    )
    psan.add_argument("--txns", type=int, default=40)
    psan.add_argument("--seed", type=int, default=42)
    psan.add_argument(
        "--no-adversarial",
        action="store_true",
        help="skip the unsafe-base / hw-rlog must-trip probes",
    )
    psan.add_argument("--json", action="store_true", help="machine-readable report")
    psan.add_argument(
        "--rules",
        action="store_true",
        help="print the rule registry (id, paper section, invariant) and exit",
    )
    psan.add_argument(
        "--save-trace",
        metavar="DIR",
        default=None,
        help="save each cell's event stream as JSONL into DIR",
    )
    psan.add_argument(
        "--from-trace",
        metavar="FILE",
        default=None,
        help="sanitize a saved JSONL trace instead of running anything",
    )
    psan.set_defaults(fn=_cmd_psan)
    pstatic = sub.add_parser(
        "pstatic",
        help="static persistency verifier: psan verdicts proven from the "
        "compiled trace, without replaying",
    )
    pstatic.add_argument(
        "--benchmarks",
        default="hash,rbtree,sps,btree,ssca2",
        help="comma-separated microbenchmarks (default: all five)",
    )
    pstatic.add_argument(
        "--threads",
        default="1,2,4",
        help="comma-separated thread counts (default: 1,2,4)",
    )
    pstatic.add_argument(
        "--policies",
        default="non-pers,unsafe-base,redo-clwb,undo-clwb,hw-rlog,hw-ulog,hwl,fwb",
        help="comma-separated designs to verify (default: all eight canonical)",
    )
    pstatic.add_argument("--txns", type=int, default=40)
    pstatic.add_argument("--seed", type=int, default=42)
    pstatic.add_argument(
        "--differential",
        action="store_true",
        help="gate every static verdict against the dynamic checker and "
        "replay-confirm every counterexample (the CI acceptance mode)",
    )
    pstatic.add_argument(
        "--proofs",
        action="store_true",
        help="print the per-rule proof reasons, not just violations",
    )
    pstatic.add_argument(
        "--no-hb",
        action="store_true",
        help="skip the happens-before race detector pass",
    )
    pstatic.add_argument(
        "--markdown",
        metavar="FILE",
        default=None,
        help="also write the verdict table as a markdown artifact",
    )
    pstatic.add_argument(
        "--verbose", action="store_true", help="print one line per cell"
    )
    pstatic.add_argument("--json", action="store_true", help="machine-readable report")
    pstatic.set_defaults(fn=_cmd_pstatic)
    lint = sub.add_parser(
        "lint", help="determinism/accounting AST lint over the source tree"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument("--json", action="store_true", help="machine-readable report")
    lint.add_argument(
        "--strict",
        action="store_true",
        help="also fail on stale lint:allow suppressions (the CI mode)",
    )
    lint.set_defaults(fn=_cmd_lint)
    validate_cmd = sub.add_parser("validate")
    validate_cmd.add_argument("--quick", action="store_true")
    _sweep_flags(validate_cmd)
    validate_cmd.set_defaults(fn=_cmd_validate)

    from .bench.cli import add_bench_parser

    add_bench_parser(sub)

    adapt = sub.add_parser(
        "adapt",
        help="adaptive logging policy: train tables, run drift scenarios, "
        "crash the switch barrier",
    )
    adapt_sub = adapt.add_subparsers(dest="adapt_command", required=True)
    train = adapt_sub.add_parser(
        "train",
        help="grid the writeback family per workload phase (sweep engine "
        "as oracle) and write a repro-adapt/v1 policy table",
    )
    train.add_argument(
        "--benchmarks",
        default=None,
        metavar="A,B",
        help="train one unit per named benchmark kernel instead of the "
        "default drift phases (e.g. hash,sps)",
    )
    train.add_argument(
        "--specs",
        default=None,
        metavar="S1,S2",
        help="candidate designs (default: the legal writeback family "
        "nowb,clwb,fwb under hw+undo+redo)",
    )
    train.add_argument("--threads", type=int, default=2)
    train.add_argument(
        "--txns", type=int, default=160, help="transactions per thread per cell"
    )
    train.add_argument("--seed", type=int, default=42)
    train.add_argument(
        "--out",
        default="policy_table.json",
        metavar="FILE",
        help="where the policy table JSON lands (default: policy_table.json)",
    )
    _sweep_flags(train, psan=False)
    train.set_defaults(fn=_cmd_adapt_train)
    adapt_run = adapt_sub.add_parser(
        "run",
        help="drive the drift scenario adaptively and race every legal "
        "static design; exits non-zero unless adaptive wins",
    )
    adapt_run.add_argument(
        "--table",
        dest="policy_table",
        default=None,
        metavar="FILE",
        help="repro-adapt/v1 policy table (default: the built-in table)",
    )
    adapt_run.add_argument("--threads", type=int, default=2)
    adapt_run.add_argument("--seed", type=int, default=42)
    adapt_run.add_argument(
        "--window",
        type=int,
        default=4,
        help="controller observation window in committed txns (default: 4)",
    )
    adapt_run.add_argument(
        "--json", default=None, metavar="FILE", help="dump the full comparison"
    )
    adapt_run.set_defaults(fn=_cmd_adapt_run)
    adapt_faults = adapt_sub.add_parser(
        "faults",
        help="crash-point campaign at the switch barrier: recovery must "
        "converge under both the pre- and post-switch spec",
    )
    adapt_faults.add_argument(
        "--workload", default="hash", help="campaign kernel (default: hash)"
    )
    adapt_faults.add_argument("--threads", type=int, default=2)
    adapt_faults.add_argument(
        "--txns", type=int, default=24, help="transactions per thread"
    )
    adapt_faults.add_argument("--seed", type=int, default=7)
    adapt_faults.add_argument("--verbose", action="store_true")
    adapt_faults.set_defaults(fn=_cmd_adapt_faults)

    cache_cmd = sub.add_parser(
        "cache", help="sweep result-cache maintenance (.repro_cache)"
    )
    cache_action = cache_cmd.add_subparsers(dest="cache_command", required=True)
    prune = cache_action.add_parser(
        "prune", help="delete entries whose CODE_SALT predates the current one"
    )
    prune.add_argument(
        "--dry-run", action="store_true", help="count stale entries, delete nothing"
    )
    prune.add_argument(
        "--dir",
        default=None,
        help="cache directory (default: REPRO_CACHE_DIR or .repro_cache)",
    )
    prune.set_defaults(fn=_cmd_cache)
    stats = cache_action.add_parser(
        "stats",
        help="entry counts plus CRC32 verification of compiled-trace blobs",
    )
    stats.add_argument(
        "--dir",
        default=None,
        help="cache directory (default: REPRO_CACHE_DIR or .repro_cache)",
    )
    stats.set_defaults(fn=_cmd_cache)
    return parser


def main(argv=None) -> int:
    """Entry point.

    A :class:`~repro.errors.ConfigError` is input the command rejects: it
    prints one ``<command>: <reason>`` line on stderr and exits 2, apart
    from a failed run's 1.
    """
    from .errors import ConfigError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        sub = getattr(args, f"{args.command}_command", None)
        print(f"{args.command}{' ' + sub if sub else ''}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
