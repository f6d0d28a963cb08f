"""``repro bench`` — run / compare / update / list.

Exit codes: 0 success, 1 regression (or intra-run counter drift),
2 usage, schema, or baseline error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .baseline import (
    default_baseline_path,
    load_baseline,
    result_to_doc,
    write_baseline,
)
from .compare import DEFAULT_WALL_TOLERANCE, compare_results
from .registry import get_suites
from .runner import DEFAULT_REPEATS, run_bench


def _run_suites(args, progress):
    """``run_bench`` over the suites, mode and repeats the flags name."""
    names = None
    if args.suites:
        names = [name.strip() for name in args.suites.split(",") if name.strip()]
    repeats = DEFAULT_REPEATS if args.repeats is None else args.repeats
    return run_bench(names=names, quick=args.quick, repeats=repeats, progress=progress)


def _baseline_path(args) -> Path:
    if args.baseline:
        return Path(args.baseline)
    return default_baseline_path(args.quick)


def _run(args) -> int:
    result = _run_suites(args, None if args.json else print)
    if args.json:
        print(json.dumps(result_to_doc(result), indent=2))
    else:
        print(result.render())
    if args.out:
        write_baseline(args.out, result)
        print(f"wrote {args.out}")
    return 0 if result.deterministic else 1


def _update(args) -> int:
    path = _baseline_path(args)
    result = _run_suites(args, print)
    if not result.deterministic:
        print(
            "bench update: refusing to record a baseline whose counters "
            "drifted between repeats",
            file=sys.stderr,
        )
        return 1
    write_baseline(path, result)
    print(f"baseline updated: {path}")
    return 0


def _compare(args) -> int:
    if args.from_file:
        args.parser.refuse(args, "--from", "suites", "repeats")
    baseline = load_baseline(_baseline_path(args))
    if args.from_file:
        current = load_baseline(args.from_file)
    else:
        current = _run_suites(args, None if args.json else print)
    report = compare_results(
        baseline,
        current,
        wall_tolerance=args.wall_tolerance / 100.0,
        gate_wall=not args.no_wall_gate,
    )
    if args.report:
        Path(args.report).write_text(report.render_markdown())
    if args.json:
        print(
            json.dumps(
                {
                    "passed": report.passed,
                    "regressing_suites": report.regressing_suites,
                    "regressions": [
                        {
                            "suite": d.suite,
                            "metric": d.metric,
                            "kind": d.kind,
                            "baseline": d.baseline,
                            "current": d.current,
                        }
                        for d in report.regressions
                    ],
                },
                indent=2,
            )
        )
    else:
        print(report.render())
        if args.report:
            print(f"wrote {args.report}")
        print("bench compare: PASS" if report.passed else "bench compare: FAIL")
    return 0 if report.passed else 1


def _list(args) -> int:
    width = max(len(suite.name) for suite in get_suites())
    for suite in get_suites():
        print(f"{suite.name:{width}s}  {suite.description}")
    return 0


def _common_flags(cmd) -> None:
    cmd.add_argument(
        "--quick",
        action="store_true",
        help="small matrices (seconds; the committed CI baseline's mode)",
    )
    cmd.add_argument(
        "--suites",
        default=None,
        help="comma-separated subset of suites (default: all registered)",
    )
    cmd.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="wall-clock repeats per suite; min is reported "
        f"(default: {DEFAULT_REPEATS})",
    )


def add_bench_parser(sub) -> None:
    """Attach the ``bench`` subcommand tree to the top-level subparsers."""
    bench = sub.add_parser(
        "bench",
        help="performance-regression benchmark suites and baseline gating",
    )
    action = bench.add_subparsers(dest="bench_command", required=True)

    run_cmd = action.add_parser("run", help="run suites, optionally write a result file")
    _common_flags(run_cmd)
    run_cmd.add_argument(
        "--out", type=run_cmd.output_path, help="write the run as a baseline-format JSON file"
    )
    run_cmd.add_argument("--json", action="store_true", help="machine-readable output")
    run_cmd.set_defaults(fn=_run)

    compare_cmd = action.add_parser(
        "compare", help="diff a fresh (or saved) run against a baseline"
    )
    _common_flags(compare_cmd)
    compare_cmd.add_argument(
        "--baseline",
        default=None,
        help="baseline file (default: BENCH_quick.json / BENCH_full.json by mode)",
    )
    compare_cmd.add_argument(
        "--from",
        dest="from_file",
        default=None,
        metavar="FILE",
        help="compare a saved 'bench run --out' file instead of running now",
    )
    compare_cmd.add_argument(
        "--wall-tolerance",
        type=float,
        default=DEFAULT_WALL_TOLERANCE * 100,
        metavar="PCT",
        help="allowed wall-clock slowdown in percent (default: 25; "
        "deterministic counters always gate at 0)",
    )
    compare_cmd.add_argument(
        "--no-wall-gate",
        action="store_true",
        help="report wall-clock changes but never fail on them",
    )
    compare_cmd.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        type=compare_cmd.output_path,
        help="write the markdown comparison report to FILE",
    )
    compare_cmd.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    compare_cmd.set_defaults(fn=_compare)

    update_cmd = action.add_parser(
        "update", help="re-run suites and rewrite the baseline intentionally"
    )
    _common_flags(update_cmd)
    update_cmd.add_argument(
        "--baseline",
        default=None,
        type=update_cmd.output_path,
        help="baseline file to rewrite (default: by mode)",
    )
    update_cmd.set_defaults(fn=_update)

    list_cmd = action.add_parser("list", help="list registered suites")
    list_cmd.set_defaults(fn=_list)
