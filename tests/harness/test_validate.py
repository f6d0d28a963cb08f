"""Tests for the one-shot reproduction validation."""

import pytest

from repro.core.design import FWB, UNDO_CLWB
from repro.harness.sweep import run_micro_sweep
from repro.harness.validate import Check, ValidationReport, validate
from repro.workloads.hashtable import HashTableWorkload
from tests.conftest import tiny_system


class TestReport:
    def test_empty_report_passes(self):
        assert ValidationReport().passed

    def test_single_failure_fails_all(self):
        report = ValidationReport()
        report.add("a", "claim", "x", True)
        report.add("b", "claim", "y", False)
        assert not report.passed
        assert "FAIL" in report.rendered
        assert "SOME CHECKS FAILED" in report.rendered

    def test_rendered_contains_rows(self):
        report = ValidationReport()
        report.add("fig6", "claim text", 1.5, True)
        text = report.rendered
        assert "fig6" in text and "claim text" in text and "1.5" in text
        assert "ALL CHECKS PASSED" in text

    def test_check_dataclass(self):
        check = Check("n", "c", "m", True)
        assert check.passed


class TestValidate:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_micro_sweep(
            benchmarks=("hash",),
            threads=(1,),
            txns_per_thread=120,
            system=tiny_system(num_cores=2),
            workload_factory=lambda name: HashTableWorkload(
                seed=1, buckets_per_partition=32, keys_per_partition=256
            ),
        )

    def test_passes_on_real_sweep(self, sweep):
        report = validate(sweep=sweep)
        assert report.passed, report.rendered

    def test_covers_all_headline_figures(self, sweep):
        report = validate(sweep=sweep)
        names = {check.name.split("/")[0] for check in report.checks}
        assert names == {"fig6", "fig7", "fig8", "fig9", "fig11b"}

    def test_detects_a_broken_sweep(self, sweep):
        """Corrupting the fwb cell must flip the verdict."""
        from repro.harness.sweep import SweepCell

        broken = type(sweep)(cells=dict(sweep.cells))
        fwb_cell = SweepCell("hash", 1, FWB)
        unsafe_cell = SweepCell("hash", 1, UNDO_CLWB)
        # Make fwb look slower than software-clwb.
        broken.cells[fwb_cell] = broken.cells[unsafe_cell]
        report = validate(sweep=broken)
        assert not report.passed
