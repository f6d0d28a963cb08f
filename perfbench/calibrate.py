"""Host-speed calibration for the wall-clock metrics.

Shared virtual machines change speed by tens of percent over seconds to
minutes, for every kind of code at once: on a 2-vCPU 2.1 GHz Xeon VM,
sweep cells summed over 5 s windows took from 0.76x to 1.35x their
median time.  So after every timed call into the program, the benchmark
times a fixed pure-Python loop (a *sample*), and converts the calls'
wall time into *reference seconds* — the time they would have taken on
a host where one sample takes :data:`REFERENCE_SAMPLE_S`::

    reference seconds = sum(wall_i) * REFERENCE_SAMPLE_S / c

with ``c`` the mean sample time weighted by wall time: call ``i`` counts
the mean of the samples taken just before and just after it.  The
samples are taken outside the timed calls and never touch the program,
so a change to the program cannot move them.
"""

from __future__ import annotations

import math
import time
from typing import Optional

#: Loop iterations in one sample.
SAMPLE_ITERATIONS = 60_000
#: Seconds one sample takes on the reference host: a typical figure for
#: one vCPU of a 2.1 GHz Xeon, where samples took 6.5 to 10 ms.
REFERENCE_SAMPLE_S = 0.008
#: Sampling after a call lasts at least this share of the call's wall time
#: (and at least one sample).
SAMPLE_SHARE = 0.05


def sample() -> float:
    """Wall seconds of one run of the fixed calibration loop."""
    begin = time.perf_counter()
    acc = 0
    for i in range(SAMPLE_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - begin


class HostClock:
    """Wall time of timed calls, and the host speed while they ran."""

    def __init__(self, sampler=sample) -> None:
        self.sampler = sampler
        self.wall = 0.0
        self._weighted = []  # wall_i * mean sample time around call i
        self._last: Optional[float] = None  # mean sample after the last call

    def add_call(self, wall: float) -> None:
        """Count one timed call of ``wall`` seconds, then sample the host."""
        samples = [self.sampler()]
        while math.fsum(samples) < SAMPLE_SHARE * wall:
            samples.append(self.sampler())
        after = math.fsum(samples) / len(samples)
        before = after if self._last is None else self._last
        self._last = after
        self.wall += wall
        self._weighted.append(wall * (before + after) / 2)

    def speed(self) -> float:
        """Host speed relative to the reference host (above 1: faster)."""
        return REFERENCE_SAMPLE_S * self.wall / math.fsum(self._weighted)

    def reference_seconds(self) -> float:
        """The timed calls' wall time, converted to reference seconds."""
        return self.wall * self.speed()
