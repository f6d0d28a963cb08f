"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "12"])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.benchmark == "hash"
        assert args.threads == 1

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.policy == "guaranteed"
        assert args.workload == "hash"
        assert args.points == 60
        assert args.seed == 7

    def test_cell_timeout_flag(self):
        args = build_parser().parse_args(["figure", "6", "--cell-timeout", "2.5"])
        assert args.cell_timeout == 2.5

    def test_ablate_defaults(self):
        args = build_parser().parse_args(["ablate"])
        assert args.specs is None
        assert args.backends == "hw,sw"
        assert args.contents == "undo,redo,undo+redo"
        assert args.writebacks == "none,clwb,fwb"
        assert args.commits == "fenced"
        assert args.benchmarks == "hash"
        assert not args.no_psan
        assert args.jobs is None  # auto: sized to the grid and the host
        assert not args.chart


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out and "Table III" in out

    def test_lifetime(self, capsys):
        assert main(["lifetime"]) == 0
        out = capsys.readouterr().out
        assert "15.2 days" in out

    def test_figure_11b(self, capsys):
        assert main(["figure", "11b"]) == 0
        out = capsys.readouterr().out
        assert "FWB frequency" in out

    def test_figure_quick_sweep(self, capsys):
        assert main(["figure", "6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "unsafe-base" in out
        assert "fwb gain" in out

    def test_ablate_specs_smoke(self, capsys):
        code = main(
            [
                "ablate",
                "--specs",
                "hwl,fwb,hw+undo+clwb,sw+redo+fwb",
                "--txns",
                "20",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "design-space ablation: 4 design(s)" in out
        assert "hw+undo+clwb" in out
        # Guarantee column derives from the mechanisms.
        assert " yes " in out and " no " in out

    def test_ablate_grid_smoke(self, capsys):
        code = main(
            [
                "ablate",
                "--backends",
                "hw",
                "--contents",
                "undo+redo",
                "--writebacks",
                "clwb,fwb",
                "--txns",
                "20",
                "--no-psan",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 design(s)" in out
        assert "hw+undo+redo+clwb" in out and "hw+undo+redo+fwb" in out

    def test_ablate_chart(self, capsys):
        code = main(
            [
                "ablate",
                "--specs",
                "hwl,fwb",
                "--txns",
                "10",
                "--no-psan",
                "--jobs",
                "1",
                "--chart",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ablation throughput" in out
        assert "█" in out

    def test_ablate_empty_grid_errors(self, capsys):
        code = main(["ablate", "--backends", "none", "--contents", "undo"])
        assert code == 2
        assert "no valid design" in capsys.readouterr().err

    def test_ablate_bad_spec_errors(self):
        with pytest.raises(ValueError, match="did you mean"):
            main(["ablate", "--specs", "hlw"])

    def test_faults_smoke(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "--policy",
                    "fwb",
                    "--points",
                    "10",
                    "--txns",
                    "16",
                    "--verbose",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "campaign PASSED" in out
        assert "fwb" in out
        assert "violation(s)" in out  # the --verbose per-policy line


REJECTED = [
    ["faults", "--txns", "0"],
    ["faults", "--txns", "-3"],
    ["faults", "--threads", "0"],
    ["faults", "--threads", "3"],
    ["faults", "--points", "0"],
    ["adapt", "faults", "--txns", "0"],
    ["adapt", "faults", "--threads", "3"],
    ["dist", "--replicas", "0"],
    ["dist", "--threads", "3"],
    ["dist", "--txns", "0"],
    ["dist", "--points", "0"],
    ["faults", "--policy", "nope"],
    ["faults", "--policy", ""],
    ["dist", "--benchmarks", "nope"],
    ["adapt", "faults", "--workload", "nope"],
    ["serve", "--replicas", "-1"],
    ["serve", "--replicas", "1", "--ring-records", "0"],
    ["serve", "--replicas", "1", "--ring-records", "-5"],
]


class TestRejectedCampaignInput:
    """Bad campaign input is a usage error (exit 2), not a failed campaign
    (exit 1) and never a pass over zero points."""

    @pytest.mark.parametrize(
        "argv", REJECTED, ids=lambda argv: "_".join(a.lstrip("-") for a in argv)
    )
    def test_one_line_and_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        command = " ".join(argv[:2]) if argv[0] == "adapt" else argv[0]
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"{command}: ")

    @pytest.mark.parametrize(
        "argv, hint",
        [
            (["faults", "--policy", "nope"], "did you mean"),
            (["dist", "--policy", "nope"], "did you mean"),
            (["dist", "--benchmarks", "hash,nope"], "choose from"),
            (["adapt", "faults", "--workload", "nope"], "choose from"),
        ],
        ids=["faults-policy", "dist-policy", "dist-benchmarks", "adapt-workload"],
    )
    def test_unknown_names_keep_their_hint(self, argv, hint, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'nope'" in err and hint in err

    def test_campaigns_over_no_points_do_not_pass(self):
        from repro.adapt.faults import SwitchCampaignResult
        from repro.dist import DistConfig
        from repro.dist.campaign import DistCampaignResult
        from repro.faults.campaign import CampaignResult

        assert not CampaignResult("hash", 1, 1, 7).passed
        assert not SwitchCampaignResult("hash", 1, 1, 7).passed
        assert not DistCampaignResult(DistConfig()).passed
