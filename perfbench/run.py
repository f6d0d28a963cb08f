"""Benchmark command: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Prints a few human-readable lines, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See NOTES.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def process_age() -> float:
    """Seconds since this process started (0 where /proc is missing)."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started_ticks = int(fields[19])
    except (OSError, IndexError, ValueError):
        return 0.0
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started_ticks / os.sysconf("SC_CLK_TCK")


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument(
        "--seed", type=int, required=True, help="orders the calls of each sweep and serve pass"
    )
    parser.add_argument("--seconds", type=float, required=True, help="timed section length")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--held-out",
        action="store_true",
        help="use the workload's held-out input seed (for confirming a gain)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench, workloads

    args = parse_args(argv, workloads.WORKLOADS)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work"
    cache_dir = work / f"cache-{args.workload}-{os.getpid()}"
    if cache_dir.exists():
        shutil.rmtree(cache_dir)
    cache_dir.mkdir(parents=True)
    # Each run starts from its own empty cache directory, and passes no
    # result cache: only in-process memoisation may serve timed work.
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    os.environ.pop("REPRO_TRACE_CACHE", None)
    os.environ.pop("REPRO_TRACE", None)
    try:
        result = bench.run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            held_out=args.held_out,
            started=time.perf_counter() - process_age(),
            spans_path=work / f"spans-{args.workload}.gz",
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
