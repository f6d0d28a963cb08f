"""Benchmark execution: repeats, timing, intra-run determinism check.

Each suite runs ``repeats`` times; the reported wall-clock is the
**minimum** over the repeats (the least-noise estimate of the code's
cost), while the counters of every repeat must be identical — a suite
whose counters drift between back-to-back executions in the same
process has a determinism bug, which the result records and the CLI
turns into a non-zero exit.

Test hook
---------
``REPRO_BENCH_PERTURB=<suite>=<factor>[,<suite>=<factor>]`` multiplies a
suite's counters and wall time by ``factor`` after measurement.  It
exists so the regression gate itself is testable (a perturbed suite must
make ``repro bench compare`` fail and name the suite); production runs
never set it.
"""

from __future__ import annotations

import os
import platform
import sys
from dataclasses import dataclass, field
from typing import List, Optional

from .registry import BenchTimer, get_suites

ENV_PERTURB = "REPRO_BENCH_PERTURB"

#: Wall-clock repeats per suite unless a caller asks for others.
DEFAULT_REPEATS = 3


def host_fingerprint() -> dict:
    """Host identity relevant to wall-clock comparability.

    Deliberately excludes volatile detail (kernel build, hostname): the
    fingerprint decides whether wall-clock numbers are worth gating, so
    it should only change when timing comparability is actually lost.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


def _perturb_factor(name: str) -> Optional[float]:
    spec = os.environ.get(ENV_PERTURB, "")
    for part in spec.split(","):
        key, sep, value = part.partition("=")
        if sep and key.strip() == name:
            try:
                return float(value)
            except ValueError:
                return None
    return None


@dataclass
class SuiteResult:
    """One suite's measured outcome."""

    name: str
    description: str
    counters: dict
    wall_seconds: float
    wall_all: List[float]
    counter_drift: bool = False

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "counters": self.counters,
            "wall_seconds": round(self.wall_seconds, 6),
            "wall_all": [round(w, 6) for w in self.wall_all],
            "counter_drift": self.counter_drift,
        }


@dataclass
class BenchRunResult:
    """All suite results of one ``repro bench run``."""

    mode: str
    repeats: int
    host: dict = field(default_factory=host_fingerprint)
    suites: List[SuiteResult] = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        """True when no suite's counters drifted between repeats."""
        return not any(suite.counter_drift for suite in self.suites)

    def render(self) -> str:
        width = max([len("suite")] + [len(s.name) for s in self.suites])
        lines = [
            f"repro bench: mode={self.mode} repeats={self.repeats} "
            f"python={self.host['python']}",
            f"{'suite':{width}s} {'wall-s':>9s} {'counters':>8s}  note",
        ]
        for suite in self.suites:
            note = "COUNTER DRIFT ACROSS REPEATS" if suite.counter_drift else ""
            lines.append(
                f"{suite.name:{width}s} {suite.wall_seconds:9.3f} "
                f"{len(suite.counters):8d}  {note}"
            )
        return "\n".join(lines)


def run_bench(
    names=None,
    quick: bool = True,
    repeats: int = DEFAULT_REPEATS,
    progress=None,
) -> BenchRunResult:
    """Run the requested suites; returns all measurements.

    ``progress`` (e.g. ``print``) receives one line per finished suite.
    """
    import time

    result = BenchRunResult(mode="quick" if quick else "full", repeats=repeats)
    for suite in get_suites(names):
        walls: List[float] = []
        counters_seen: List[dict] = []
        for _ in range(max(1, repeats)):
            timer = BenchTimer()
            start = time.perf_counter()
            counters = suite.run(quick, timer)
            whole = time.perf_counter() - start
            walls.append(timer.elapsed if timer.used else whole)
            counters_seen.append(counters)
        drift = any(c != counters_seen[0] for c in counters_seen[1:])
        counters = counters_seen[0]
        wall = min(walls)
        factor = _perturb_factor(suite.name)
        if factor is not None:
            print(
                f"warning: {ENV_PERTURB} inflating suite {suite.name!r} "
                f"by {factor}x (test hook)",
                file=sys.stderr,
            )
            counters = {
                key: (
                    int(value * factor)
                    if isinstance(value, int)
                    else value * factor
                )
                for key, value in counters.items()
            }
            wall *= factor
            walls = [w * factor for w in walls]
        result.suites.append(
            SuiteResult(
                suite.name, suite.description, counters, wall, walls, drift
            )
        )
        if progress is not None:
            progress(
                f"{suite.name}: {wall:.3f}s min of {len(walls)}, "
                f"{len(counters)} counter(s)"
                + (" [COUNTER DRIFT]" if drift else "")
            )
    return result
