"""Self-tests of the benchmark: span arithmetic, host-speed calibration,
op counting, metric declarations and run-to-run repeatability on
shrunken configurations.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import repro.harness.cache
from perfbench import bench, calibrate, tracer, workloads
from perfbench.workloads import CrashConfig, ServeLadderConfig, SweepConfig, make_workload
from repro.faults import run_fault_campaign
from repro.sched.serve import ServeConfig, run_serve
from repro.sched.traffic import TrafficConfig
from repro.sim.core import Core

ROOT = Path(__file__).resolve().parents[2]

SMALL = {
    "sweep": SweepConfig(benchmarks=("hash", "sps"), txns_per_thread=40),
    "serve": ServeLadderConfig(kernels=("memcached", "ycsb"), requests=160, warmup_requests=16),
    "crash": CrashConfig(benchmarks=("hash",), points=8, txns_per_thread=12, warmup_points=4),
}



def quiet(*_args) -> None:
    pass


def root_seconds(log: tracer.SpanLog) -> float:
    """Wall time covered by top-level spans."""
    return sum(log.end[i] - log.start[i] for i in range(len(log)) if log.parent[i] < 0)


@pytest.fixture(autouse=True)
def fresh_caches(tmp_path, monkeypatch):
    """An empty cache directory and trace memo per test, as per run."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
    monkeypatch.setattr(repro.harness.cache, "_SHARED_TRACE_CACHE", None)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_and_back_to_back_children():
    log = tracer.SpanLog()
    root = log.record("root", tracer.OTHER, 0.0, 10.0)
    first = log.record("first", "core", 1.0, 4.0, parent=root)
    log.record("nested", "nvram", 2.0, 3.0, parent=first)
    log.record("second", "core", 4.0, 7.0, parent=root)  # starts as first ends

    assert list(log.self_times()) == [4.0, 2.0, 1.0, 3.0]
    layers = log.layer_self_seconds()
    assert (layers[tracer.OTHER], layers["core"], layers["nvram"]) == (4.0, 5.0, 1.0)
    assert sum(layers.values()) == root_seconds(log) == 10.0


def test_overlapping_children_are_counted_once():
    log = tracer.SpanLog()
    root = log.record("root", tracer.OTHER, 0.0, 10.0)
    log.record("a", "core", 1.0, 5.0, parent=root)
    log.record("b", "core", 3.0, 6.0, parent=root)
    assert log.self_times()[0] == 5.0


def test_wrappers_record_parents_and_conserve_time():
    class Toy:
        def outer(self):
            self.inner()
            self.inner()
            return 3

        def inner(self):
            time.sleep(0.002)

    log = tracer.SpanLog()
    installed = tracer.Installation()
    installed.patch(Toy, "outer", log.wrap(Toy.outer, "Toy.outer", "core"))
    installed.patch(Toy, "inner", log.wrap(Toy.inner, "Toy.inner", "nvram"))
    with log.span("bench.op"):
        assert Toy().outer() == 3
    installed.remove()
    assert Toy.outer.__name__ == "outer" and not hasattr(Toy.outer, "__wrapped__")

    assert log.calls() == {"bench.op": 1, "Toy.outer": 1, "Toy.inner": 2}
    assert list(log.parent) == [-1, 0, 1, 1]
    self_times = log.self_times()
    assert self_times[1] == pytest.approx(
        (log.end[1] - log.start[1]) - sum(log.end[i] - log.start[i] for i in (2, 3))
    )
    assert sum(log.layer_self_seconds().values()) == pytest.approx(root_seconds(log))


def test_install_wraps_and_remove_restores(tmp_path):
    import repro.sched.serve
    from repro.harness import runner

    original_exec = vars(Core)["exec_compute"]
    original_prepare = runner.prepare_workload
    log = tracer.SpanLog()
    installed = tracer.install(log)
    try:
        assert vars(Core)["exec_compute"].__wrapped__ is original_exec
        assert repro.sched.serve.prepare_workload.__wrapped__ is original_prepare
    finally:
        installed.remove()
    assert vars(Core)["exec_compute"] is original_exec
    assert repro.sched.serve.prepare_workload is original_prepare


def test_span_file_round_trip(tmp_path):
    log = tracer.SpanLog()
    log.op_id = 4
    with log.span("bench.op"):
        log.record("child", "core", 1.0, 2.0, parent=0, op=4)
    log.counters["replay.ops"] = 9
    path = tmp_path / "spans.gz"
    log.write(path)
    back = tracer.SpanLog.read(path)
    assert back.names == log.names and back.layers == log.layers
    for column in ("name_ix", "start", "end", "parent", "op"):
        assert getattr(back, column) == getattr(log, column)


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
def test_host_clock_weights_samples_around_each_call_by_its_time():
    samples = iter([0.016, 0.004, 0.004, 0.004])
    clock = calibrate.HostClock(sampler=lambda: next(samples))
    clock.add_call(0.1)  # one sample: 0.016 >= 5 % of 0.1 s
    clock.add_call(0.2)  # three samples until they reach 5 % of 0.2 s
    assert clock.wall == pytest.approx(0.3)
    # The first call has no sample before it; the second has 0.016 before
    # and a mean of 0.004 after.
    mean_sample = (0.1 * 0.016 + 0.2 * (0.016 + 0.004) / 2) / 0.3
    assert clock.speed() == pytest.approx(calibrate.REFERENCE_SAMPLE_S / mean_sample)
    assert clock.reference_seconds() == pytest.approx(0.3 * clock.speed())


def test_host_clock_reads_reference_seconds_on_the_reference_host():
    clock = calibrate.HostClock(sampler=lambda: calibrate.REFERENCE_SAMPLE_S)
    for wall in (0.05, 1.5, 0.3):
        clock.add_call(wall)
    assert clock.speed() == pytest.approx(1.0)
    assert clock.reference_seconds() == pytest.approx(1.85)


def test_calibration_sample_is_a_positive_wall_time():
    assert 0.0 < calibrate.sample() < 1.0


# ----------------------------------------------------------------------
# Op and failure counting
# ----------------------------------------------------------------------
def test_sweep_counts_cells_and_fails_a_pass_that_does_not_validate(monkeypatch):
    sweep = make_workload("sweep", 1, config=SMALL["sweep"])
    assert sweep.setup().consistent
    tally = sweep.run_pass()
    assert (tally.attempted, tally.failed, tally.consistent) == (16, 0, True)
    assert tally.sim_instructions == sum(
        stats["instructions"] for stats in sweep.reference.values()
    )

    class Failing:
        passed = False

    monkeypatch.setattr(workloads, "validate", lambda **_kw: Failing())
    tally = sweep.run_pass()
    assert (tally.attempted, tally.failed) == (16, 16)


def test_sweep_counts_a_raising_pass_as_all_failed(monkeypatch):
    def broken(**_kw):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads, "run_micro_sweep", broken)
    tally = make_workload("sweep", 1, config=SMALL["sweep"]).run_pass()
    assert (tally.attempted, tally.failed) == (16, 16)


def test_serve_counts_offered_requests_and_refusals(monkeypatch):
    # 160 requests never fill a shard's queue on the real ladder; a step
    # at 0.05 req/cycle makes memcached refuse some.
    monkeypatch.setattr(workloads, "RATES", workloads.RATES + (0.05,))
    config = SMALL["serve"]
    serve = make_workload("serve", 3, config=config)
    assert serve.setup().consistent
    tally = serve.run_pass()
    offered = unserved = 0
    for kernel in config.kernels:
        for rate in workloads.RATES:
            report = run_serve(
                ServeConfig(
                    workload=kernel,
                    shards=workloads.SERVE_SHARDS,
                    threads=workloads.SERVE_THREADS,
                    traffic=TrafficConfig(
                        requests=config.requests, rate=rate, seed=config.input_seed
                    ),
                    seed=config.input_seed,
                    replicas=workloads.SERVE_REPLICAS,
                )
            )
            offered += report.offered
            unserved += report.offered - report.completed
    assert tally.consistent
    assert unserved > 0
    assert (tally.attempted, tally.failed) == (offered, unserved)
    assert tally.attempted == len(config.kernels) * len(workloads.RATES) * config.requests


def test_crash_counts_points_and_violations(monkeypatch):
    config = SMALL["crash"]
    crash = make_workload("crash", 5, config=config)
    assert crash.setup().consistent
    tally = crash.run_pass()
    result = run_fault_campaign(
        workload="hash",
        points=config.points,
        txns_per_thread=config.txns_per_thread,
        threads=workloads.CRASH_THREADS,
        seed=config.input_seed,
    )
    violations = sum(len(report.violations) for report in result.reports)
    assert tally.consistent
    assert (tally.attempted, tally.failed) == (result.total_points, violations)
    assert tally.sim_instructions > 0

    def one_violation(**kwargs):
        campaign = run_fault_campaign(**kwargs)
        if kwargs["policies"][0] == workloads.GUARANTEED_POLICIES[0]:
            campaign.reports[0].points[0].mismatches = 1
        return campaign

    monkeypatch.setattr(workloads, "run_fault_campaign", one_violation)
    tally = crash.run_pass()
    assert (tally.attempted, tally.failed) == (result.total_points, violations + 1)
    assert not tally.consistent  # the pass no longer matches the first one


# ----------------------------------------------------------------------
# Declared metrics and repeatability
# ----------------------------------------------------------------------
def _declared(section: str) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {(metric["name"], metric["unit"]) for metric in spec[section]}


def _printed(result: dict) -> set:
    return {(name, metric["unit"]) for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["sweep", "serve", "crash"])
def test_back_to_back_runs_repeat_and_print_declared_metrics(workload, tmp_path, monkeypatch):
    def fresh_run(order_seed: int, trace: bool) -> dict:
        # What run.py gives every process: an empty cache directory and
        # an empty trace memo.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"cache-{order_seed}-{trace}"))
        monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
        monkeypatch.setattr(repro.harness.cache, "_SHARED_TRACE_CACHE", None)
        return bench.run(workload, order_seed, 0.01, trace, config=SMALL[workload], echo=quiet)

    runs = []
    for order_seed in (1, 2):
        untraced = fresh_run(order_seed, False)
        traced = fresh_run(order_seed, True)
        assert untraced["correct"] and traced["correct"]
        assert _printed(untraced) == _declared("end_to_end")
        assert all(metric["value"] > 0 for metric in untraced["metrics"].values())
        assert _printed(traced) == _declared("per_layer")
        runs.append((untraced, traced))

    (first, first_traced), (second, second_traced) = runs
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert (first_traced["attempted"], first_traced["failed"]) == (
        second_traced["attempted"],
        second_traced["failed"],
    )
    # Everything but host time repeats: counts, ratios and simulated figures.
    simulated = {
        name
        for name in first_traced["metrics"]
        if not name.endswith("_s") and name != "trace.overhead_pct"
    }
    for name in simulated:
        assert first_traced["metrics"][name] == second_traced["metrics"][name], name


def test_traced_runs_keep_the_predicted_layers_apart():
    spans = {}
    for workload in ("sweep", "serve", "crash"):
        log = tracer.SpanLog()
        item = make_workload(workload, 1, config=SMALL[workload])
        item.span_log = log
        installed = tracer.install(log)
        try:
            with log.span("bench.pass"):
                item.setup()
                item.run_pass()
        finally:
            installed.remove()
        spans[workload] = log.layers_seen()
    assert not spans["sweep"].get("txn") and not spans["sweep"].get("recovery")
    assert not spans["serve"].get("replay") and not spans["serve"].get("recovery")
    assert not spans["crash"].get("replay") and spans["crash"].get("recovery")
    assert spans["sweep"].get("replay") and spans["serve"].get("sched")
