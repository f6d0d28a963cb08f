"""Property test: an armed fault monitor fires where a counting one does.

A monitor armed on a crash point watches only its trigger's stream
(:class:`~repro.faults.crashpoints.FaultMonitor`), while a profiling or
deadline monitor counts every stream.  For random trigger indices of
each execution kind, the armed monitor must fire at the same op, with
the same crash instant, as a monitor that counts every stream: a
deadline monitor whose deadline never comes.
"""

from __future__ import annotations

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulatedCrash
from repro.faults import GUARANTEED_POLICIES
from repro.faults.campaign import (
    campaign_trace,
    default_campaign_system,
    finish_run,
    start_run,
)
from repro.faults.crashpoints import EXECUTION_KINDS, CrashPoint, FaultMonitor


class _OpCounter:
    """Counts the ops a monitor observes, then hands each one on."""

    def __init__(self, monitor: FaultMonitor) -> None:
        self.monitor = monitor
        self.ops = 0

    def after_op(self, now, stats) -> None:
        self.ops += 1
        self.monitor.after_op(now, stats)


@functools.lru_cache(maxsize=None)
def _case(policy):
    """``(system, trace, event totals)`` of a 2-thread hash run."""
    system = default_campaign_system()
    trace = campaign_trace("hash", 7, system, 2, 16)
    profile = FaultMonitor()
    finish_run(start_run(trace, system, policy, profile)).machine.nvram.recycle()
    return system, trace, dict(profile.counts)


def _fire(system, trace, policy, monitor: FaultMonitor):
    """``(op, kind, index, instant)`` at which ``monitor`` crashed the run."""
    counter = _OpCounter(monitor)
    shard = start_run(trace, system, policy, counter)
    fired = None
    try:
        finish_run(shard)
    except SimulatedCrash as crash:
        fired = (counter.ops, crash.kind, crash.index, crash.at_time)
    shard.machine.nvram.recycle()
    return fired


@pytest.mark.parametrize("policy", GUARANTEED_POLICIES, ids=lambda p: p.value)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_armed_monitor_fires_where_a_counting_monitor_does(policy, data):
    system, trace, counts = _case(policy)
    kind = data.draw(st.sampled_from([k for k in EXECUTION_KINDS if counts[k]]))
    point = CrashPoint(kind, data.draw(st.integers(0, counts[kind] - 1)))
    armed = _fire(system, trace, policy, FaultMonitor(point))
    counting = _fire(system, trace, policy, FaultMonitor(point, deadline=math.inf))
    assert armed is not None, f"{point} never fired"
    assert armed == counting, str(point)
