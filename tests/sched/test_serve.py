"""End-to-end serve scenarios: determinism, replication, psan, CLI."""

import json

import pytest

import repro.sched.serve as serve
from repro.errors import ConfigError
from repro.sanitizer.checker import PersistOrderChecker
from repro.sched.serve import ServeConfig, default_serve_config, run_serve
from repro.sched.traffic import TrafficConfig
from repro.sim.config import LoggingConfig
from repro.workloads.whisper import make_whisper_kernel


def _config(**overrides):
    base = dict(
        workload="memcached",
        shards=2,
        threads=2,
        traffic=TrafficConfig(requests=40, rate=0.004, seed=6),
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestDeterminism:
    def test_identical_configs_yield_identical_reports(self):
        first = run_serve(_config())
        second = run_serve(_config())
        assert first.digest() == second.digest()
        assert first.to_dict() == second.to_dict()

    def test_all_request_shaped_kernels_complete(self):
        for workload in ("memcached", "redis", "ycsb"):
            report = run_serve(
                _config(
                    workload=workload,
                    shards=1,
                    traffic=TrafficConfig(requests=24, rate=0.004, seed=6),
                )
            )
            assert report.completed == report.admitted == 24
            assert report.p50 > 0 and report.p999 >= report.p99 >= report.p50

    def test_seed_changes_the_report(self):
        first = run_serve(_config())
        second = run_serve(
            _config(traffic=TrafficConfig(requests=40, rate=0.004, seed=7))
        )
        assert first.digest() != second.digest()


class TestPreparedKernelMemo:
    """A kernel is prepared once per process for its workload and system."""

    @pytest.fixture
    def prepares(self, monkeypatch):
        """Count ``prepare_workload`` calls made by serve, on an empty memo."""
        calls = []
        original = serve.prepare_workload

        def counting(workload, system):
            calls.append((workload.identity_key(), system))
            return original(workload, system)

        monkeypatch.setattr(serve, "prepare_workload", counting)
        monkeypatch.setattr(serve, "_prepared", {})
        return calls

    def test_repeated_scenarios_prepare_once(self, prepares):
        replicated = dict(replicas=1, ring_records=64)
        first = run_serve(_config(**replicated))
        second = run_serve(_config(**replicated))
        assert len(prepares) == 1
        assert first.replication["compactions"] > 0
        assert first.digest() == second.digest()
        assert first.to_dict() == second.to_dict()
        run_serve(_config(seed=7))
        assert len(prepares) == 2
        small_log = default_serve_config(2, logging=LoggingConfig(log_entries=512))
        run_serve(_config(system=small_log))
        assert len(prepares) == 3
        run_serve(_config())
        assert len(prepares) == 3

    def test_memo_keeps_the_most_recently_used_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(serve, "_prepared", {})
        made = []

        def fake_prepare(workload, system):
            made.append(workload.seed)
            return object()

        monkeypatch.setattr(serve, "prepare_workload", fake_prepare)
        system = default_serve_config(2)
        bound = serve.PREPARED_MEMO_ENTRIES
        kernels = [make_whisper_kernel("ycsb", seed=seed) for seed in range(bound + 3)]
        first = serve.prepared_kernel(kernels[0], system)
        for kernel in kernels[1:]:
            serve.prepared_kernel(kernels[0], system)  # keep the first one hot
            serve.prepared_kernel(kernel, system)
            assert len(serve._prepared) <= bound
        assert serve.prepared_kernel(kernels[0], system) is first
        assert len(made) == len(kernels)
        serve.prepared_kernel(kernels[1], system)  # evicted long ago
        assert len(made) == len(kernels) + 1
        assert len(serve._prepared) == bound


class TestLatencyAttribution:
    def test_latency_covers_queueing_not_just_service(self):
        """Under a hard burst, later requests in the queue must report
        larger enqueue->durable latency than the first ones — the
        client-visible number includes queueing delay."""
        report = run_serve(
            ServeConfig(
                workload="ycsb",
                shards=1,
                threads=1,
                batch_requests=1,
                traffic=TrafficConfig(
                    requests=16, rate=0.05, arrival="burst", burst_size=16, seed=2
                ),
            )
        )
        assert report.completed == 16
        assert report.p999 > 2 * report.p50


class TestReplication:
    def test_rings_compact_mid_run_and_stay_bounded(self):
        report = run_serve(
            ServeConfig(
                workload="redis",
                shards=1,
                threads=2,
                replicas=2,
                ring_records=64,
                traffic=TrafficConfig(requests=60, rate=0.004, seed=3),
            )
        )
        rep = report.replication
        assert rep["replicas"] == 2
        assert rep["compactions"] > 0
        assert rep["records_compacted"] > 0
        for shard in rep["per_shard"]:
            # Post-run occupancy must be below the ring size: compaction
            # kept the standby bounded while records kept arriving.
            assert all(occ <= 64 for occ in shard["ring_occupancy"])
            assert all(base > 0 for base in shard["base_seqs"])
            assert shard["committed_frontier"] > 0

    def test_replication_is_deterministic(self):
        def go():
            return run_serve(
                ServeConfig(
                    workload="redis",
                    shards=1,
                    replicas=1,
                    ring_records=64,
                    traffic=TrafficConfig(requests=40, rate=0.004, seed=3),
                )
            )

        assert go().digest() == go().digest()


class TestGuards:
    def test_non_request_shaped_kernel_rejected(self):
        with pytest.raises(ConfigError, match="request-shaped"):
            run_serve(_config(workload="ctree"))

    def test_bad_shards_rejected(self):
        with pytest.raises(ConfigError):
            run_serve(_config(shards=0))

    @pytest.mark.parametrize("design", ["undo-clwb", "hw-ulog", "unsafe-base"])
    def test_replication_without_redo_rejected_before_any_machine(
        self, design, monkeypatch
    ):
        """Replica compaction folds redo content into the checkpoint, so
        an undo-only design must be refused up front, not mid-run."""
        from repro.harness import runner

        def no_machine(*_args, **_kwargs):
            raise AssertionError("a machine was built")

        # Serve builds its machines through the run builder.
        monkeypatch.setattr(runner, "Machine", no_machine)
        with pytest.raises(ConfigError, match="redo"):
            run_serve(_config(policy=design, replicas=1))
        _config(policy=design).validate()  # no replicas: fine

    def test_replication_checks_every_adaptive_design(self):
        from repro.adapt.table import PolicyTable, make_rule
        from repro.core.design import resolve_design

        table = PolicyTable(
            rules=(make_rule({"wrap_pressure_min": 0.5}, "sw+undo+clwb"),),
            start=resolve_design("sw+undo+redo+clwb"),
        )
        _config(policy_table=table).validate()
        with pytest.raises(ConfigError, match="redo"):
            _config(policy_table=table, replicas=1).validate()

    def test_non_persistent_design_replicates_nothing(self):
        report = run_serve(_config(policy="non-pers", replicas=1))
        assert report.replication["shipped"] == 0


class TestPsanOnServeStreams:
    def test_scheduler_produced_streams_are_clean(self):
        """Attach the persistency-ordering sanitizer to every shard
        machine: the serve path's interleaved, request-batched
        transactions must satisfy the same ordering rules as the batch
        path under a guaranteed design."""
        checkers = {}

        def hook(shard_id, machine):
            checkers[shard_id] = PersistOrderChecker.attach(machine)

        report = run_serve(
            _config(traffic=TrafficConfig(requests=30, rate=0.004, seed=6)),
            machine_hook=hook,
        )
        assert report.completed == 30
        assert len(checkers) == 2
        for shard_id, checker in checkers.items():
            psan_report = checker.finish()
            assert psan_report.clean, (shard_id, psan_report.render())


class TestCli:
    def test_serve_command_writes_reports(self, tmp_path, capsys):
        from repro.__main__ import main

        md = tmp_path / "serve.md"
        out = tmp_path / "serve.json"
        code = main(
            [
                "serve", "--workload", "memcached", "--shards", "1",
                "--requests", "16", "--markdown", str(md), "--json", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "p99" in text and "throughput" in text
        assert "p99 latency" in md.read_text()
        payload = json.loads(out.read_text())
        assert payload["offered"] == 16
        assert payload["completed"] == payload["admitted"]

    def test_serve_replication_without_redo_exits_2(self, capsys):
        from repro.__main__ import main

        code = main(
            ["serve", "--design", "undo-clwb", "--replicas", "1", "--requests", "16"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "redo" in captured.err
