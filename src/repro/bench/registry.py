"""Benchmark suite registry.

A *suite* is one named performance probe of the system: it executes a
fixed, deterministic piece of work and returns **cost counters** —
simulated cycles, instructions, cache and NVRAM accesses, log records —
that are a pure function of the configuration.  The runner
(:mod:`repro.bench.runner`) times each suite's execution in wall-clock
alongside, so every suite yields two kinds of metric:

* **deterministic counters** — identical on every run of the same code,
  on any host; CI gates on these with zero tolerance, because any drift
  means the simulator's behaviour changed;
* **wall-clock seconds** (min over N repeats) — noisy and
  host-dependent; compared with a configurable percentage tolerance and
  only on a matching host fingerprint.

Suites register themselves via the :func:`register` decorator at import
time (importing :mod:`repro.bench.suites` populates the table).  A suite
function receives the run mode and a :class:`BenchTimer`; work wrapped
in ``timer.timed()`` is what the wall-clock metric measures (a suite
that never opens a timed section is timed whole).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict

from ..errors import ConfigError


class BenchError(ConfigError):
    """A benchmark suite or baseline operation failed; the CLI refuses it
    like any other :class:`ConfigError` (one line, exit 2)."""


class BenchTimer:
    """Accumulates wall-clock time over explicitly timed sections.

    Lets a suite exclude its setup cost (building a workload image,
    populating a cache) from the measured hot path.
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.used = False

    @contextmanager
    def timed(self):
        """Context manager adding the enclosed duration to the total."""
        self.used = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.elapsed += time.perf_counter() - start


@dataclass(frozen=True)
class Suite:
    """One registered benchmark suite."""

    name: str
    description: str
    fn: Callable

    def run(self, quick: bool, timer: BenchTimer) -> dict:
        """Execute once; returns the suite's deterministic counters."""
        counters = self.fn(quick, timer)
        for key, value in counters.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise BenchError(
                    f"suite {self.name!r} counter {key!r} is "
                    f"{type(value).__name__}, not a number"
                )
        return counters


#: All registered suites, in registration order.
SUITES: Dict[str, Suite] = {}


def register(name: str, description: str):
    """Class decorator registering ``fn`` as suite ``name``."""

    def decorator(fn: Callable) -> Callable:
        if name in SUITES:
            raise ValueError(f"bench suite {name!r} is already registered")
        SUITES[name] = Suite(name, description, fn)
        return fn

    return decorator


def get_suites(names=None) -> list:
    """The requested suites (all, in registration order, when ``names``
    is None); unknown names raise :class:`BenchError`."""
    from . import suites as _suites  # noqa: F401  (populates SUITES)

    if names is None:
        return list(SUITES.values())
    picked = []
    for name in names:
        suite = SUITES.get(name)
        if suite is None:
            raise BenchError(
                f"unknown bench suite {name!r} "
                f"(registered: {', '.join(SUITES)})"
            )
        picked.append(suite)
    return picked
