"""The ``repro adapt`` command group and the adaptive serve flags."""

from __future__ import annotations

import importlib
import json

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_adapt_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adapt"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["adapt", "train"])
        assert args.benchmarks is None
        assert args.txns == 160
        assert args.out == "policy_table.json"

    def test_run_defaults(self):
        args = build_parser().parse_args(["adapt", "run"])
        assert args.policy_table is None
        assert args.window == 4
        assert args.seed == 42

    def test_faults_defaults(self):
        args = build_parser().parse_args(["adapt", "faults"])
        assert args.workload == "hash"
        assert args.txns == 24
        assert args.seed == 7

    def test_serve_adaptive_flags(self):
        args = build_parser().parse_args(
            ["serve", "--adaptive", "--adapt-window", "8"]
        )
        assert args.adaptive
        assert args.adapt_window == 8
        assert args.design is None

    def test_serve_policy_table_implies_adaptive(self):
        args = build_parser().parse_args(
            ["serve", "--policy-table", "t.json"]
        )
        assert args.policy_table == "t.json"


class TestCommands:
    def test_adapt_run_wins_and_reports(self, capsys):
        assert main(["adapt", "run"]) == 0
        out = capsys.readouterr().out
        assert "adaptive WINS" in out
        assert "best static:" in out

    def test_adapt_run_json_dump(self, tmp_path, capsys):
        path = tmp_path / "drift.json"
        assert main(["adapt", "run", "--json", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["adaptive_wins"] is True
        assert set(doc["static"]) >= {
            "hw+undo+redo+nowb",
            "hw+undo+redo+clwb",
            "hw+undo+redo+fwb",
        }

    def test_adapt_train_writes_versioned_table(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        code = main(
            [
                "adapt",
                "train",
                "--benchmarks",
                "hash",
                "--threads",
                "1",
                "--txns",
                "30",
                "--no-cache",
                "--out",
                str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "policy table written" in out
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro-adapt/v1"

    def test_adapt_train_hands_its_cell_timeout_to_the_sweep(
        self, tmp_path, monkeypatch
    ):
        sweep = importlib.import_module("repro.harness.sweep")
        seen = {}

        class Stop(Exception):
            pass

        def spy(**kwargs):
            seen.update(kwargs)
            raise Stop

        monkeypatch.setattr(sweep, "run_micro_sweep", spy)
        with pytest.raises(Stop):
            main(
                [
                    "adapt",
                    "train",
                    "--benchmarks",
                    "hash",
                    "--threads",
                    "1",
                    "--txns",
                    "30",
                    "--jobs",
                    "2",
                    "--no-cache",
                    "--cell-timeout",
                    "7.5",
                    "--out",
                    str(tmp_path / "table.json"),
                ]
            )
        assert seen["cell_timeout"] == 7.5
        assert seen["jobs"] == 2
        assert seen["cache"] is None

    def test_serve_adaptive_accepts_trained_table(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        assert (
            main(
                [
                    "adapt",
                    "train",
                    "--benchmarks",
                    "hash",
                    "--threads",
                    "1",
                    "--txns",
                    "30",
                    "--no-cache",
                    "--out",
                    str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "serve",
                "--workload",
                "ycsb",
                "--requests",
                "32",
                "--policy-table",
                str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "adaptive:" in out
