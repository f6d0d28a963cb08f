"""Adaptive serve mode: config plumbing, report shape, and in-process
determinism (tests/sched/test_serve_golden.py pins CI's adaptive serve
runs across processes)."""

from __future__ import annotations

from repro.adapt import default_policy_table
from repro.adapt.table import PolicyTable, make_rule
from repro.core.design import resolve_design
from repro.errors import ConfigError
from repro.sched.serve import ServeConfig, run_serve
from repro.sched.traffic import TrafficConfig

import pytest


def _config(**overrides) -> ServeConfig:
    defaults = dict(
        workload="ycsb",
        shards=1,
        threads=2,
        policy_table=default_policy_table(),
        adapt_window_txns=8,
        traffic=TrafficConfig(requests=48, rate=0.01, seed=42),
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def test_policy_table_start_seeds_the_design():
    table = PolicyTable(
        rules=(make_rule({"wrap_pressure_min": 0.5}, "hw+undo+redo+clwb"),),
        default=None,
        start=resolve_design("hw+undo+redo+nowb"),
    )
    config = _config(policy_table=table)
    assert config.policy == resolve_design("hw+undo+redo+nowb")


def test_explicit_policy_overrides_table_start():
    table = PolicyTable(
        rules=(),
        default=None,
        start=resolve_design("hw+undo+redo+nowb"),
    )
    config = _config(policy="hw+undo+redo+clwb", policy_table=table)
    assert config.policy == resolve_design("hw+undo+redo+clwb")


def test_invalid_adaptive_knobs_rejected():
    with pytest.raises(ConfigError):
        _config(adapt_window_txns=0).validate()


def test_adaptive_report_carries_adaptation_block():
    report = run_serve(_config())
    assert report.adaptation
    assert report.adaptation["window_txns"] == 8
    assert report.adaptation["start_design"]
    assert len(report.adaptation["final_designs"]) == 1
    assert "adaptive:" in report.render()
    assert "design switches" in report.render_markdown()


def test_non_adaptive_report_has_no_adaptation_block():
    report = run_serve(_config(policy_table=None, policy="fwb"))
    assert report.adaptation == {}
    assert "adaptive:" not in report.render()


def test_adaptive_serve_is_deterministic():
    first = run_serve(_config())
    second = run_serve(_config())
    assert first.digest() == second.digest()
    assert first.to_dict() == second.to_dict()
