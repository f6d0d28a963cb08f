"""Crash-at-the-barrier recovery: the switch campaign's core claims,
exercised directly on a small set of transitions (the full default
campaign runs in tier-1, against the verdict tables of
tests/integration/test_campaign_golden.py)."""

from __future__ import annotations

import pytest

from repro.adapt.faults import (
    default_switch_transitions,
    run_switch_campaign,
)
from repro.core.design import resolve_design, switch_legal
from repro.sim.machine import Machine


def test_switch_campaign_recycles_every_device(monkeypatch):
    """Profile runs and crash points alike hand their device back once
    verified, so no switch-campaign machine keeps its image."""
    machines = []
    original = Machine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        machines.append(self)

    monkeypatch.setattr(Machine, "__init__", init)
    result = run_switch_campaign(
        transitions=[("hw+undo+redo+nowb", "hw+undo+redo+clwb")], txns_per_thread=12
    )
    assert result.passed and result.total_points == 3
    # The makespan run, both barrier sides, the profile and the late
    # point (plus the workload's set-up machine on a trace-cache miss).
    assert len(machines) >= 5
    assert all(machine.nvram.image is None for machine in machines)


class TestDefaultTransitions:
    def test_default_transitions_all_legal(self):
        transitions = default_switch_transitions()
        assert transitions
        for old, new in transitions:
            assert old != new
            assert switch_legal(old, new)

    def test_writeback_family_and_content_switch_present(self):
        labels = {
            (old.mechanism_string(), new.mechanism_string())
            for old, new in default_switch_transitions()
        }
        assert ("hw+undo+redo+nowb", "hw+undo+redo+clwb") in labels
        assert ("sw+undo+redo+clwb", "sw+undo+clwb") in labels


@pytest.mark.parametrize(
    "pair",
    [
        ("hw+undo+redo+nowb", "hw+undo+redo+clwb"),
        ("hw+undo+redo+fwb", "hw+undo+redo+nowb"),
        ("sw+undo+redo+clwb", "sw+undo+clwb"),
    ],
    ids=lambda pair: f"{pair[0]}->{pair[1]}",
)
class TestBarrierCrash:
    def test_crash_on_either_side_recovers_identically(self, pair):
        old, new = (resolve_design(name) for name in pair)
        result = run_switch_campaign(
            transitions=[(old, new)], txns_per_thread=12
        )
        assert result.total_points >= 2
        (report,) = result.reports
        assert report.sides_identical, (
            "recovered NVRAM differs across the swap for "
            f"{report.label}"
        )
        for point in report.points:
            assert point.triggered, f"{point.kind} crash point never fired"
            assert point.mismatches == 0, (
                f"{point.kind} recovery diverged from the golden image"
            )
            assert point.converged, (
                f"{point.kind} recovery was not idempotent"
            )
