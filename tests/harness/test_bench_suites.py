"""Bench suite registry and runner: determinism, perturb hook, validation."""

import pytest

from repro.bench import (
    BenchError,
    BenchTimer,
    Suite,
    get_suites,
    register,
    run_bench,
)
from repro.bench.runner import ENV_PERTURB

EXPECTED_SUITES = [
    "sweep-serial",
    "sweep-parallel",
    "cache-probe",
    "logbuffer-drain",
    "recovery-replay",
    "sweep-cache-hit",
    "compile-decode",
    "compile-replay",
    "pstatic-matrix",
    "ablate-grid",
    "serve-shard",
    "serve-traffic",
    "adapt-decide",
    "adapt-switch",
    "workload-prepare",
    "fault-campaign",
]

# Cheap enough to run twice in a unit test; the expensive sweep suites
# are exercised end-to-end by the CLI integration tests instead.
CHEAP_SUITES = ["cache-probe", "logbuffer-drain", "recovery-replay"]


class TestRegistry:
    def test_all_expected_suites_registered(self):
        assert [s.name for s in get_suites()] == EXPECTED_SUITES

    def test_subset_selection_preserves_request_order(self):
        picked = get_suites(["logbuffer-drain", "cache-probe"])
        assert [s.name for s in picked] == ["logbuffer-drain", "cache-probe"]

    def test_unknown_suite_raises_bencherror(self):
        with pytest.raises(BenchError, match="unknown bench suite"):
            get_suites(["no-such-suite"])

    def test_duplicate_registration_rejected(self):
        get_suites()  # ensure the built-in suites are registered
        with pytest.raises(ValueError, match="already registered"):
            register("cache-probe", "dup")(lambda quick, timer: {})

    def test_suite_run_rejects_non_numeric_counters(self):
        bad = Suite("bad", "d", lambda quick, timer: {"verdict": "fast"})
        with pytest.raises(BenchError, match="not a number"):
            bad.run(True, BenchTimer())

    def test_suite_run_rejects_bool_counters(self):
        bad = Suite("bad", "d", lambda quick, timer: {"ok": True})
        with pytest.raises(BenchError, match="not a number"):
            bad.run(True, BenchTimer())


class TestDeterminism:
    @pytest.mark.parametrize("name", CHEAP_SUITES)
    def test_counters_identical_across_repeats(self, name):
        result = run_bench(names=[name], quick=True, repeats=2)
        [suite] = result.suites
        assert not suite.counter_drift
        assert result.deterministic
        assert suite.counters, "suite must report at least one counter"

    def test_two_runs_agree_exactly(self):
        first = run_bench(names=["logbuffer-drain"], quick=True, repeats=1)
        second = run_bench(names=["logbuffer-drain"], quick=True, repeats=1)
        assert first.suites[0].counters == second.suites[0].counters


class TestPerturbHook:
    def test_perturb_scales_counters_and_wall(self, monkeypatch):
        clean = run_bench(names=["logbuffer-drain"], quick=True, repeats=1)
        monkeypatch.setenv(ENV_PERTURB, "logbuffer-drain=2.0")
        warped = run_bench(names=["logbuffer-drain"], quick=True, repeats=1)
        for key, value in clean.suites[0].counters.items():
            expected = int(value * 2.0) if isinstance(value, int) else value * 2.0
            assert warped.suites[0].counters[key] == expected

    def test_perturb_only_touches_named_suite(self, monkeypatch):
        clean = run_bench(names=["cache-probe"], quick=True, repeats=1)
        monkeypatch.setenv(ENV_PERTURB, "logbuffer-drain=2.0")
        other = run_bench(names=["cache-probe"], quick=True, repeats=1)
        assert other.suites[0].counters == clean.suites[0].counters


class TestTimer:
    def test_timed_sections_accumulate(self):
        timer = BenchTimer()
        assert not timer.used
        with timer.timed():
            pass
        with timer.timed():
            pass
        assert timer.used
        assert timer.elapsed >= 0.0
