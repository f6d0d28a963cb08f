"""The tentpole acceptance gate: on the drifting workload the adaptive
controller must beat *every* static design in the legal family on total
simulated cycles — and do so deterministically."""

from __future__ import annotations

import pytest

from repro.adapt import DriftConfig, DriftPhase, compare_drift, run_drift
from repro.adapt.drift import WRITEBACK_FAMILY
from repro.sim.nvram import NVRAM


@pytest.fixture(scope="module")
def comparison():
    return compare_drift(DriftConfig())


def test_adaptive_beats_every_static(comparison):
    adaptive_cycles = comparison["adaptive_cycles"]
    assert comparison["static"], "no static baselines ran"
    for name in WRITEBACK_FAMILY:
        assert name in comparison["static"]
    for name, report in comparison["static"].items():
        assert adaptive_cycles < report["total_cycles"], (
            f"adaptive ({adaptive_cycles:.1f}) does not beat static "
            f"{name} ({report['total_cycles']:.1f})"
        )
    assert comparison["adaptive_wins"]
    assert comparison["margin"] > 0.0


def test_adaptive_run_switches_and_serves_everything(comparison):
    adaptive = comparison["adaptive"]
    assert adaptive["adaptive"] is True
    assert adaptive["counters"]["design_switches"] >= 1
    assert adaptive["completed"] == adaptive["offered"]
    assert adaptive["rejected"] == 0
    switched = [
        d
        for d in adaptive["adaptation"]["decisions"]
        if d["outcome"] == "switched"
    ]
    assert len(switched) == adaptive["counters"]["design_switches"]


def test_static_baselines_serve_everything(comparison):
    # Lossless admission: the race is fair only if every design served
    # the identical request stream.
    for report in comparison["static"].values():
        assert report["completed"] == report["offered"]
        assert report["counters"]["design_switches"] == 0


def test_drift_run_is_deterministic():
    config = DriftConfig(
        phases=(
            DriftPhase(48, 0.9, 0.30, 0.65),
            DriftPhase(48, 0.9, 0.65, 1.0),
        )
    )
    first = run_drift(config)
    second = run_drift(config)
    assert first == second


def test_drift_runs_reuse_pooled_device_buffers_and_leave_them_zeroed(monkeypatch):
    """Each run returns its shard buffers to the pool once the report is
    built, so successive runs share pooled images instead of allocating
    fresh devices, and what the pool keeps is all zero."""
    config = DriftConfig(
        phases=(
            DriftPhase(24, 0.9, 0.30, 0.65),
            DriftPhase(24, 0.9, 0.65, 1.0),
        ),
        shards=2,
    )
    run_drift(config)  # prepares the kernel once per process
    monkeypatch.setattr(NVRAM, "_image_pool", {})
    runs = []

    def hook(_shard_id, machine):
        runs[-1].add(id(machine.nvram.image))

    first_images = set()
    runs.append(first_images)
    first = run_drift(config, machine_hook=hook)
    pooled = {id(buffer) for buffers in NVRAM._image_pool.values() for buffer in buffers}
    assert len(first_images) == 2 and pooled == first_images
    runs.append(set())
    second = run_drift(config, machine_hook=hook)
    assert runs[1] == first_images
    assert second == first
    pooled = [buffer for buffers in NVRAM._image_pool.values() for buffer in buffers]
    assert len(pooled) == 2
    assert all(buffer[:].count(0) == len(buffer) for buffer in pooled)
