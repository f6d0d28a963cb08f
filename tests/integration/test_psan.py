"""End-to-end tests for the persistency-ordering sanitizer.

The acceptance bar from the paper reproduction: the guaranteed designs
(hwl, fwb, and the software-logging baselines) run every microbenchmark
clean, while each deliberately-broken design trips exactly the rule its
missing mechanism implies.  A subset of that matrix runs here; the full
benchmark x thread-count sweep runs in CI's ``checks`` job.
"""

import importlib
import json
import re
import tracemalloc

import pytest

from repro.__main__ import main
from repro.core.design import (
    FWB,
    HWL,
    HW_RLOG,
    HW_ULOG,
    REDO_CLWB,
    UNDO_CLWB,
    UNSAFE_BASE,
)
from repro.harness.sweep import run_micro_sweep
from repro.sanitizer import static
from repro.harness.runner import RunConfig
from repro.sanitizer.checker import (
    PersistOrderChecker,
    PsanSweepReport,
    cell_trace,
    replay_checked,
    run_psan,
)
from repro.sanitizer.rules import PsanReport
from repro.sanitizer.static import run_differential
from repro.sim.trace import Tracer

TXNS = 15  # enough to wrap nothing but exercise every rule's machinery


def psan(policy, benchmark="hash", threads=1, **kw):
    return run_psan(benchmark, policy, threads=threads,
                    txns_per_thread=TXNS, **kw)


class TestGuaranteedDesignsClean:
    @pytest.mark.parametrize("policy", [HWL, FWB], ids=lambda p: p.name)
    @pytest.mark.parametrize("threads", [1, 2])
    def test_hardware_designs_clean(self, policy, threads):
        report = psan(policy, threads=threads)
        assert report.clean, report.render()
        assert report.txns_checked == TXNS * threads

    @pytest.mark.parametrize("policy", [UNDO_CLWB, REDO_CLWB], ids=lambda p: p.name)
    def test_software_baselines_clean(self, policy):
        report = psan(policy)
        assert report.clean, report.render()

    @pytest.mark.parametrize("bench", ["rbtree", "sps"])
    def test_other_microbenchmarks_clean_under_hwl(self, bench):
        report = psan(HWL, benchmark=bench)
        assert report.clean, report.render()


class TestBrokenDesignsTrip:
    def test_unsafe_base_trips_commit_durability(self):
        # No clwb ordering at all: commits are reported durable while the
        # records sit in volatile buffers.
        report = psan(UNSAFE_BASE)
        assert not report.clean
        assert "commit-durability" in report.rules_fired()

    def test_hw_rlog_trips_undo_missing(self):
        # Redo-only hardware logging steals dirty lines it cannot undo.
        report = psan(HW_RLOG)
        assert report.rules_fired() == {"undo-missing"}

    def test_hw_ulog_trips_redo_missing(self):
        # Undo-only hardware logging commits without forcing data back.
        report = psan(HW_ULOG)
        assert report.rules_fired() == {"redo-missing"}

    def test_diagnostics_carry_provenance(self):
        report = psan(HW_RLOG)
        diag = report.diagnostics[0]
        assert diag.provenance  # the event chain that led here
        assert diag.addr is not None
        assert "undo" in diag.message


class TestOfflineTraces:
    def test_saved_trace_rechecks_identically(self, tmp_path):
        path = str(tmp_path / "hwl.jsonl")
        live = psan(HWL, trace_path=path)
        replayed = PersistOrderChecker.check_events(
            Tracer.from_jsonl(path).events()
        )
        assert live.clean and replayed.clean
        assert replayed.events_processed == live.events_processed
        assert replayed.txns_checked == live.txns_checked

    def test_saved_violating_trace_rechecks_identically(self, tmp_path):
        path = str(tmp_path / "rlog.jsonl")
        live = psan(HW_RLOG, trace_path=path)
        replayed = PersistOrderChecker.check_events(
            Tracer.from_jsonl(path).events()
        )
        assert replayed.rules_fired() == live.rules_fired()
        assert len(replayed.diagnostics) == len(live.diagnostics)


class TestSweepIntegration:
    def test_sweep_psan_collects_reports_in_matrix_order(self):
        sweep = PsanSweepReport()
        run_micro_sweep(
            benchmarks=("hash",),
            threads=(1, 2),
            policies=(HWL, FWB),
            txns_per_thread=TXNS,
            psan_report=sweep,
        )
        assert [(r.benchmark, r.threads, r.policy) for r in sweep.reports] == [
            ("hash", 1, "hwl"), ("hash", 1, "fwb"),
            ("hash", 2, "hwl"), ("hash", 2, "fwb"),
        ]
        assert sweep.clean

    def test_sweep_clean_ignores_unguaranteed_designs(self):
        sweep = PsanSweepReport()
        run_micro_sweep(
            benchmarks=("hash",),
            threads=(1,),
            policies=(HWL, HW_RLOG),
            txns_per_thread=TXNS,
            psan_report=sweep,
        )
        by_policy = {r.policy: r for r in sweep.reports}
        assert by_policy["hwl"].clean
        assert not by_policy["hw-rlog"].clean  # expected: no guarantee
        assert sweep.clean
        assert "no guarantee claimed" in sweep.render()

    def test_sweep_psan_parallel_matches_serial(self):
        serial, parallel = PsanSweepReport(), PsanSweepReport()
        kw = dict(
            benchmarks=("hash",), threads=(1,), policies=(HWL,),
            txns_per_thread=TXNS,
        )
        run_micro_sweep(psan_report=serial, **kw)
        run_micro_sweep(psan_report=parallel, jobs=2, **kw)
        a, b = serial.reports[0], parallel.reports[0]
        assert (a.clean, a.events_processed, a.txns_checked) == (
            b.clean, b.events_processed, b.txns_checked
        )


def _summary(report):
    return (
        sorted(report.rules_fired()),
        len(report.diagnostics),
        report.events_processed,
        report.txns_checked,
    )


class TestOneCellPath:
    """``run_psan``, a sanitized sweep row (serial and on workers) and the
    differential gate's dynamic side get the cell's trace from one
    function and replay it through one checked replay, so they report
    the same thing."""

    @pytest.mark.parametrize("policy", [HWL, UNSAFE_BASE], ids=lambda p: p.name)
    def test_entry_points_report_the_same(self, policy, monkeypatch):
        expected = _summary(psan(policy, threads=2))
        for jobs in (1, 2):
            sweep = PsanSweepReport()
            run_micro_sweep(
                benchmarks=("hash",),
                threads=(2,),
                policies=(policy,),
                txns_per_thread=TXNS,
                jobs=jobs,
                psan_report=sweep,
            )
            (row,) = sweep.reports
            assert (row.benchmark, row.threads) == ("hash", 2)
            assert _summary(row) == expected, f"jobs={jobs}"

        dynamic = []
        replay = static.replay_checked

        def spy(*args, **kwargs):
            result = replay(*args, **kwargs)
            dynamic.append(result[1])
            return result

        monkeypatch.setattr(static, "replay_checked", spy)
        gate = run_differential(("hash",), (2,), (policy,), txns_per_thread=TXNS)
        assert gate.passed
        (report,) = dynamic
        assert _summary(report) == expected


class TestCheckedReplayFootprint:
    def test_a_checked_replay_keeps_no_event_stream(self):
        """The checker consumes events as they are emitted; a replay that
        saves no trace keeps none.  A ring of every event (and the checker
        hanging off the returned tracer) retained about 25 MB here."""
        trace, system = cell_trace("hash", 8, 250, None, None, 42)
        run = RunConfig(
            policy=FWB, threads=8, txns_per_thread=250, system=system, seed=42
        )
        tracemalloc.start()
        try:
            _stats, report, tracer = replay_checked(trace, run)
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.clean and report.events_processed > 30_000
        assert len(tracer) == 0
        assert retained < 4_000_000, retained

    def test_a_saved_trace_keeps_every_event(self):
        trace, system = cell_trace("hash", 1, TXNS, None, None, 42)
        run = RunConfig(policy=HWL, threads=1, txns_per_thread=TXNS, system=system)
        _stats, report, tracer = replay_checked(trace, run, keep_events=True)
        assert len(tracer) == report.events_processed > 0


class TestPrepareOnMiss:
    ARGS = [
        "psan", "--benchmarks", "hash", "--threads", "2",
        "--policies", "hwl,fwb", "--txns", "40",
    ]

    def test_a_warm_trace_cache_prepares_nothing(self, tmp_path, monkeypatch, capsys):
        """The CI psan smoke on a warm cache: every trace hits, so no
        benchmark is prepared (the adversarial probe's benchmark was
        prepared twice before, hit or miss)."""
        cache = importlib.import_module("repro.harness.cache")
        runner = importlib.import_module("repro.harness.runner")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cache, "_SHARED_TRACE_CACHE", None)
        calls = []
        prepare = runner.prepare_workload

        def counting(workload, *args, **kwargs):
            calls.append(workload.name)
            return prepare(workload, *args, **kwargs)

        monkeypatch.setattr(runner, "prepare_workload", counting)
        assert main(self.ARGS) == 0
        cold = capsys.readouterr().out
        assert calls == ["hash"]  # two cells miss, one preparation
        calls.clear()
        monkeypatch.setattr(cache, "_SHARED_TRACE_CACHE", None)  # disk only
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == cold
        assert calls == []


def _psan_rows(out, benchmarks):
    """Sanitizer-table rows (benchmark, thread count, policy, ...)."""
    pattern = re.compile(rf"^({'|'.join(benchmarks)}) +\d+ ")
    return [line for line in out.splitlines() if pattern.match(line)]


class TestCli:
    def test_psan_command_passes_on_guaranteed_designs(self, capsys):
        rc = main([
            "psan", "--benchmarks", "hash", "--threads", "1",
            "--txns", str(TXNS),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "psan: PASS" in out
        assert "adversarial unsafe-base" in out  # probes ran and tripped

    def test_psan_json_output(self, capsys):
        rc = main([
            "psan", "--benchmarks", "hash", "--threads", "1",
            "--policies", "hwl", "--txns", str(TXNS),
            "--no-adversarial", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["matrix"]["clean"] is True
        cell = payload["matrix"]["cells"][0]
        assert (cell["policy"], cell["benchmark"]) == ("hwl", "hash")

    def test_psan_reports_unguaranteed_rows_without_failing(self, capsys):
        rc = main([
            "psan", "--benchmarks", "hash", "--threads", "1",
            "--policies", "hw-rlog,hwl", "--txns", str(TXNS),
            "--no-adversarial",
        ])
        out = capsys.readouterr().out
        # hw-rlog claims no guarantee, so the matrix is still a PASS --
        # the row is annotated instead of failing the gate.
        assert rc == 0
        assert "no guarantee claimed" in out

    def test_from_trace_roundtrip(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        rc = main([
            "psan", "--benchmarks", "hash", "--threads", "1",
            "--policies", "hwl", "--txns", str(TXNS),
            "--no-adversarial", "--save-trace", str(traces),
        ])
        assert rc == 0
        saved = list(traces.glob("*.jsonl"))
        assert len(saved) == 1
        capsys.readouterr()
        rc = main(["psan", "--from-trace", str(saved[0])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean" in out

    def test_lint_command_clean_tree(self, capsys):
        assert main(["lint"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_lint_command_finds_violations(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim"
        bad.mkdir(parents=True)
        (bad / "x.py").write_text("import random\n")
        rc = main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "wall-clock" in out

    def test_figure_psan_flag(self, capsys):
        rc = main(["figure", "6", "--quick", "--psan", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hwl" in out and "clean" in out

    def test_figure10_psan_sanitizes_every_cell(self, capsys):
        rc = main(["figure", "10", "--quick", "--psan", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 0
        # 2 kernels x 5 designs, one sanitizer row each.
        assert len(_psan_rows(out, ("ycsb", "tpcc"))) == 10

    def test_full_validate_hands_its_options_to_the_sweep(self, monkeypatch, capsys):
        module = importlib.import_module("repro.harness.validate")
        full_sweep = module.run_micro_sweep
        seen = {}

        def small_sweep(**kwargs):
            # The wiring is the point, not the 40-cell matrix: run one
            # benchmark at a few transactions.
            seen.update(kwargs)
            return full_sweep(
                **{**kwargs, "benchmarks": ("hash",), "txns_per_thread": TXNS}
            )

        monkeypatch.setattr(module, "run_micro_sweep", small_sweep)
        main(["validate", "--psan", "--no-cache"])
        out = capsys.readouterr().out
        assert isinstance(seen["psan_report"], PsanSweepReport)
        assert len(seen["psan_report"].reports) == 8
        assert len(_psan_rows(out, ("hash",))) == 8

    @pytest.mark.parametrize("figure", ["11a", "11b"])
    def test_psan_on_a_figure_without_a_sweep_exits_2(self, figure, capsys):
        assert main(["figure", figure, "--psan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


class TestSweepReportRendering:
    def make_sweep(self, *policies):
        sweep = PsanSweepReport()
        for policy in policies:
            sweep.reports.append(PsanReport(
                policy=policy, benchmark="hash", threads=1,
                events_processed=1234, txns_checked=20,
            ))
        return sweep

    def test_policy_column_fits_longest_composed_name(self):
        long_name = "hw+undo+redo+clwb+instant"
        sweep = self.make_sweep("hwl", long_name)
        lines = sweep.render().splitlines()
        header, short_row, long_row = lines[0], lines[2], lines[3]
        # The verdict column starts at the same offset in every row:
        # no shearing even when one policy name dwarfs the others.
        assert header.index("verdict") == short_row.index("clean")
        assert short_row.index("clean") == long_row.index("clean")
        assert long_name in long_row

    def test_short_names_keep_compact_layout(self):
        sweep = self.make_sweep("hwl", "fwb")
        separator = sweep.render().splitlines()[1]
        # Column width collapses back to the header word when every
        # policy name is short.
        assert len(separator) == len("policy") + 50
