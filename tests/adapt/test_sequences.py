"""Property test: any *legal* sequence of design switches preserves the
sanitizer's invariants and crash consistency at the end of the run.

Sequences are seeded random walks over ``legal_switch_targets`` starting
from each write-back-family member, so every run exercises a different
chain of barriers (including content switches when the walk starts in
the software-logging family)."""

from __future__ import annotations

import random

import pytest

from repro.core.design import legal_switch_targets, resolve_design

_CANDIDATES = (
    "hw+undo+redo+nowb",
    "hw+undo+redo+clwb",
    "hw+undo+redo+fwb",
    "sw+undo+clwb",
    "sw+undo+redo+clwb",
)
from repro.faults.campaign import count_mismatches
from repro.sanitizer.checker import PersistOrderChecker

from .conftest import run_with_switches

_STARTS = ("hw+undo+redo+nowb", "hw+undo+redo+fwb", "sw+undo+clwb")


def _legal_walk(start: str, hops: int, seed: int) -> list:
    rng = random.Random(seed)
    candidates = [resolve_design(name) for name in _CANDIDATES]
    walk = [resolve_design(start)]
    for _ in range(hops):
        targets = [
            target
            for target in legal_switch_targets(walk[-1], candidates)
            if target != walk[-1]
        ]
        if not targets:
            break
        walk.append(rng.choice(targets))
    return walk


@pytest.mark.parametrize("start", _STARTS)
@pytest.mark.parametrize("seed", [3, 17])
def test_legal_switch_sequences_stay_clean(start, seed):
    walk = _legal_walk(start, hops=3, seed=seed)
    assert len(walk) >= 2, f"no legal targets from {start}"
    txns_per_thread = 24
    total = 2 * txns_per_thread
    hops = len(walk) - 1
    switch_at = [max(1, (i + 1) * total // (hops + 1)) for i in range(hops)]

    holder = {}

    def hook(machine):
        holder["checker"] = PersistOrderChecker.attach(machine)

    machine, pm = run_with_switches(
        walk,
        switch_at,
        txns_per_thread=txns_per_thread,
        machine_hook=hook,
    )
    machine.finalize()
    report = holder["checker"].finish()
    assert machine.stats.design_switches == hops
    assert "switch-epoch-clean" in report.rules_checked
    assert not report.diagnostics, [
        (d.rule, d.message) for d in report.diagnostics
    ]

    # End-of-run crash consistency: with every transaction committed
    # the recovered image must match the golden committed state.
    crash_time = machine.crash()
    from repro.core.recovery import RecoveryManager

    RecoveryManager(machine.nvram, machine.log).recover()
    assert count_mismatches(machine.nvram, pm, crash_time) == 0
