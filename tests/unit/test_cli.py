"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import dataclasses
import importlib
import itertools
import os
import re
import shlex
import shutil
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.errors import ConfigError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(ConfigError):
            build_parser().parse_args([])

    def test_figure_choices(self):
        with pytest.raises(ConfigError):
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
    # Unknown designs and benchmarks, and non-integer thread lists.
    ["ablate", "--specs", "hlw"],
    ["psan", "--policies", "nope"],
    ["pstatic", "--policies", "nope"],
    ["adapt", "train", "--specs", "nope"],
    ["serve", "--design", "nope"],
    ["ablate", "--benchmarks", "nope"],
    ["psan", "--benchmarks", "nope"],
    ["pstatic", "--benchmarks", "nope"],
    ["adapt", "train", "--benchmarks", "nope"],
    ["psan", "--threads", "x"],
    ["pstatic", "--threads", "1,x"],
    ["ablate", "--threads", "1,x"],
    # Flags a figure does not read: each figure id takes only its own.
    ["figure", "10", "--chart"],
    ["figure", "11a", "--chart"],
    ["figure", "11b", "--chart"],
    ["figure", "11a", "--jobs", "2"],
    ["figure", "11b", "--jobs", "1"],
    ["figure", "11a", "--no-cache"],
    ["figure", "11b", "--no-cache"],
    ["figure", "11b", "--quick"],
    # Flags the chosen mode of a command does not read.
    ["pstatic", "--differential", "--proofs"],
    ["pstatic", "--verbose"],
    ["pstatic", "--json", "--proofs"],
    ["psan", "--rules", "--json"],
    ["psan", "--rules", "--benchmarks", "hash"],
    ["psan", "--rules", "--threads", "1"],
    ["psan", "--rules", "--policies", "hwl"],
    ["psan", "--rules", "--txns", "3"],
    ["psan", "--rules", "--seed", "1"],
    ["psan", "--rules", "--no-adversarial"],
    ["psan", "--rules", "--save-trace", "{tmp}/traces"],
    ["psan", "--rules", "--from-trace", "{tmp}/trace.jsonl"],
    ["psan", "--from-trace", "{tmp}/trace.jsonl", "--benchmarks", "nope"],
    ["psan", "--from-trace", "{tmp}/trace.jsonl", "--threads", "x"],
    ["psan", "--from-trace", "{tmp}/trace.jsonl", "--policies", "nope"],
    ["psan", "--from-trace", "{tmp}/trace.jsonl", "--txns", "0"],
    ["psan", "--from-trace", "{tmp}/trace.jsonl", "--seed", "1"],
    ["psan", "--from-trace", "{tmp}/trace.jsonl", "--no-adversarial"],
    ["psan", "--from-trace", "{tmp}/trace.jsonl", "--save-trace", "{tmp}/traces"],
    # serve's three dependent flags: the entry point carries them but
    # ignores them, so the parser walk below cannot see these drops.
    ["serve", "--burst-size", "24"],
    ["serve", "--adapt-window", "8"],
    ["serve", "--ring-records", "128"],
    ["ablate", "--specs", "hwl", "--backends", "hw"],
    ["ablate", "--specs", "hwl", "--contents", "undo"],
    ["ablate", "--specs", "hwl", "--writebacks", "clwb"],
    ["ablate", "--specs", "hwl", "--commits", "instant"],
    ["bench", "compare", "--from", "run.json", "--suites", "lifetime"],
    ["bench", "compare", "--from", "run.json", "--repeats", "1"],
    # Parser errors: no command, an unknown one, a bad choice or number,
    # an unknown flag, a missing subcommand.
    [],
    ["nope"],
    ["figure", "12"],
    ["faults", "--txns", "x"],
    ["serve", "--arrival", "nope"],
    ["faults", "--bogus"],
    ["adapt"],
    # Paths checked before the run: inputs must exist, outputs need
    # their directory.
    ["lint", "{tmp}/missing"],
    ["psan", "--from-trace", "{tmp}/missing/trace.jsonl"],
    ["serve", "--policy-table", "{tmp}/missing/table.json"],
    ["adapt", "run", "--table", "{tmp}/missing/table.json"],
    ["serve", "--requests", "4", "--markdown", "{tmp}/missing/serve.md"],
    ["serve", "--requests", "4", "--json", "{tmp}/missing/serve.json"],
    ["pstatic", "--markdown", "{tmp}/missing/verdicts.md"],
    ["adapt", "run", "--json", "{tmp}/missing/drift.json"],
    ["adapt", "train", "--out", "{tmp}/missing/table.json"],
    ["bench", "run", "--out", "{tmp}/missing/run.json"],
    ["bench", "compare", "--report", "{tmp}/missing/report.md"],
    ["bench", "update", "--baseline", "{tmp}/missing/baseline.json"],
]


def _subcommands(parser) -> dict:
    """The parsers a parser's subcommand argument chooses between."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def command_of(argv) -> str:
    """The (sub)command a refusal of ``argv`` names: the leading words
    that select a parser, or ``repro`` when none does."""
    parser, words = build_parser(), []
    for word in argv:
        parser = _subcommands(parser).get(word)
        if parser is None:
            break
        words.append(word)
    return " ".join(words) or "repro"


class TestRejectedCampaignInput:
    """Bad input is a usage error (exit 2) — one line naming the command —
    not a failed run (exit 1), a traceback, or a flag silently dropped."""

    @pytest.mark.parametrize(
        "argv",
        REJECTED,
        ids=lambda argv: "_".join(a.lstrip("-") for a in argv) or "no-command",
    )
    def test_one_line_and_exit_2(self, argv, tmp_path, capsys):
        (tmp_path / "trace.jsonl").write_text("")
        argv = [word.format(tmp=tmp_path) for word in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"{command_of(argv)}: ")
        assert not (tmp_path / "traces").exists()

    @pytest.mark.parametrize(
        "argv, hint",
        [
            (["faults", "--policy", "nope"], "did you mean"),
            (["dist", "--policy", "nope"], "did you mean"),
            (["dist", "--benchmarks", "hash,nope"], "choose from"),
            (["adapt", "faults", "--workload", "nope"], "choose from"),
            (["ablate", "--specs", "nope"], "did you mean"),
            (["psan", "--benchmarks", "nope"], "choose from"),
        ],
        ids=[
            "faults-policy",
            "dist-policy",
            "dist-benchmarks",
            "adapt-workload",
            "ablate-specs",
            "psan-benchmarks",
        ],
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


# ----------------------------------------------------------------------
# Every flag is read: a walk over the whole parser
# ----------------------------------------------------------------------
def canon(value):
    """A comparable form of an argument an entry point receives."""
    if isinstance(value, (list, tuple)):
        return [canon(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canon(item) for key, item in value.items()}
    text = repr(value)
    if " at 0x" in text and hasattr(value, "__dict__"):
        return type(value).__name__, canon(vars(value))
    return text


class Fake(str):
    """Stands in for an entry point and whatever it returns.  Attributes,
    calls, items and iteration all yield more fakes and every call is
    logged in ``calls``, so a handler runs to its end with nothing
    simulated and a flag's effect on the calls or the output stays
    visible."""

    def __new__(cls, name: str, calls: list):
        fake = super().__new__(cls, name)
        fake._calls = calls
        return fake

    def _child(self, name: str) -> "Fake":
        return Fake(name, self._calls)

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        return self._child(f"{self}.{name}")

    def __call__(self, *args, **kwargs):
        self._calls.append((str(self), canon(args), canon(kwargs)))
        return self._child(f"{self}()")

    def __getitem__(self, key):
        return self._child(f"{self}[{key}]")

    def __iter__(self):
        return iter((self._child(f"{self}[0]"), self._child(f"{self}[1]")))

    def __format__(self, spec):
        return str(self)

    def __truediv__(self, other):
        return self

    __mul__ = __truediv__


#: Entry points the walk stubs, by module: everything that simulates,
#: sanitizes, lints, benchmarks or renders a result.
STUBS = {
    "repro.__main__": (
        "run_micro_sweep", "experiments", "make_microbenchmark", "Preparation",
    ),
    "repro.harness.plots": ("figure_chart", "grouped_bars"),
    "repro.harness.validate": ("validate",),
    "repro.faults": ("run_fault_campaign",),
    "repro.dist": ("run_dist_campaign",),
    "repro.sanitizer": ("run_psan", "PersistOrderChecker", "PsanSweepReport"),
    "repro.sim.trace": ("Tracer",),
    "repro.sanitizer.static": ("run_differential", "run_pstatic", "StaticSweepReport"),
    "repro.sched.serve": ("run_serve",),
    "repro.adapt": ("train_policy_table", "compare_drift", "run_switch_campaign"),
    "repro.bench.cli": (
        "run_bench", "load_baseline", "compare_results", "write_baseline",
        "result_to_doc",
    ),
}

#: Valid values other than the default for the string flags, by dest
#: (the first that differs from the flag's default is used).
STRINGS = {
    "benchmarks": ("hash", "sps"),
    "threads": ("2",),
    "policies": ("hwl", "fwb"),
    "policy": ("fwb", "hwl"),
    "specs": ("hwl,fwb",),
    "backends": ("hw",),
    "contents": ("undo+redo",),
    "writebacks": ("fwb",),
    "commits": ("fenced,instant",),
    "design": ("hwl",),
    "workload": ("sps",),
    "suites": ("cache-probe",),
}

#: Ordered pairs (command, A, B) where B adds nothing to A by design.
REDUNDANT = {
    ("serve", "--policy-table", "--adaptive"): "a policy table implies adaptive mode",
}


def leaf_commands(parser=None, words=()):
    """Every (command words, parser) that runs a command."""
    parser = parser or build_parser()
    children = _subcommands(parser)
    if not children:
        yield words, parser
    for word, child in children.items():
        yield from leaf_commands(child, (*words, word))


def flag_value(action, tmp) -> list:
    """``action`` at a valid value other than its default, as argv words."""
    kind = getattr(action.type, "__name__", "")
    if action.nargs == 0:
        return [action.option_strings[0]]
    if kind == "existing_path" or action.dest in ("from_file", "baseline"):
        value = str(tmp / "table.json")
    elif kind == "output_path":
        value = str(tmp / "run" / f"{action.dest}.out")
    elif action.dest in ("save_trace", "dir"):
        value = str(tmp / "run" / action.dest)
    elif action.choices:
        value = [c for c in action.choices if c != action.default][-1]
    elif action.type is int:
        value = str((action.default or 1) + 1)
    elif action.type is float:
        value = str(action.default * 2)
    else:
        value = next(v for v in STRINGS[action.dest] if v != action.default)
    return [action.option_strings[0], value]


#: The workflow whose ``python -m repro`` lines the walk runs.
CI_WORKFLOW = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"


def ci_commands(program: str) -> list:
    """The arguments of every ``program`` command in the CI workflow, a
    ``run:`` value or a line of a ``run: |`` block, with ``\\``
    continuations joined."""
    text = re.sub(r"\\\n\s*", " ", CI_WORKFLOW.read_text())
    line = re.compile(rf"^\s*(?:run:\s*)?{re.escape(program)}\s+(.*)$", re.M)
    return [shlex.split(rest) for rest in line.findall(text)]


def input_paths(argv) -> list:
    """The values ``argv`` gives options that read an existing file."""
    parser = next(p for words, p in leaf_commands() if tuple(argv[: len(words)]) == words)
    reads = {
        flag
        for action in parser._actions
        if getattr(action.type, "__name__", "") == "existing_path"
        for flag in action.option_strings
    }
    return [value for flag, value in zip(argv, argv[1:]) if flag in reads]


class TestEveryFlagIsRead:
    """Walk every command with its entry points stubbed.  For each
    ordered pair of flags A and B at non-default values, adding B to A
    must change what the command calls, prints or writes — or refuse
    the run in one line with exit 2.  A flag that does neither is
    dropped silently: the run reports on input nobody gave it."""

    @pytest.fixture
    def run(self, tmp_path, monkeypatch, capsys):
        from repro.adapt import default_policy_table
        from repro.sanitizer.lint import STALE_SUPPRESSION

        calls = []
        for module, names in STUBS.items():
            for name in names:
                fake = Fake(name, calls)
                monkeypatch.setattr(importlib.import_module(module), name, fake)
        stale = Fake("finding", calls)
        stale.rule = STALE_SUPPRESSION
        monkeypatch.setattr(
            "repro.sanitizer.lint.lint_paths",
            lambda paths: calls.append(("lint_paths", canon(paths))) or [stale],
        )
        parser = build_parser()
        monkeypatch.setattr("repro.__main__.build_parser", lambda: parser)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        # A table unlike the built-in one, so that naming it shows.
        table = dataclasses.replace(default_policy_table(), workload="walk")
        table.save(tmp_path / "table.json")
        out = tmp_path / "run"

        def outcome(argv):
            out.mkdir()
            calls.clear()
            code = main(argv)
            captured = capsys.readouterr()
            written = {
                str(path.relative_to(out)): path.read_bytes()
                for path in sorted(out.rglob("*"))
                if path.is_file()
            }
            shutil.rmtree(out)
            return code, captured.out, captured.err, list(calls), written

        return outcome

    def test_no_flag_is_dropped(self, run, tmp_path):
        dropped = []
        for words, parser in leaf_commands():
            command = " ".join(words)
            flags = [
                action
                for action in parser._actions
                if action.option_strings and action.dest != "help"
            ]
            for a, b in itertools.product([None, *flags], flags):
                if a is b:
                    continue
                base = [*words, *(flag_value(a, tmp_path) if a else [])]
                alone, both = run(base), run([*base, *flag_value(b, tmp_path)])
                refused = both[0] == 2 and len(both[2].splitlines()) == 1
                pair = (command, a and a.option_strings[0], b.option_strings[0])
                if both == alone and not refused and pair not in REDUNDANT:
                    dropped.append(" ".join(filter(None, pair)))
        assert not dropped, f"flags dropped silently: {dropped}"

    def test_every_ci_command_is_accepted(self, run, tmp_path, monkeypatch):
        """Every ``python -m repro`` line of the CI workflow runs here,
        from a directory holding only what the job's ``mkdir`` lines
        make: a line naming a removed or refused flag fails tier-1, not
        the first push.  A file an earlier line would have written is
        stood in for by the walk's policy table."""
        commands = ci_commands("python -m repro")
        assert len(commands) > 20
        monkeypatch.chdir(tmp_path)
        for directories in ci_commands("mkdir"):
            for directory in directories:
                (tmp_path / directory).mkdir(parents=True)
        refused = []
        for argv in commands:
            for path in input_paths(argv):
                if not os.path.exists(path):
                    shutil.copy(tmp_path / "table.json", path)
            code, _out, err, _calls, _written = run(argv)
            if code == 2:
                refused.append(f"{shlex.join(argv)}: {err.strip()}")
        assert not refused, "\n".join(refused)

    def test_walk_reaches_every_leaf_command(self):
        commands = {" ".join(words) for words, _parser in leaf_commands()}
        assert {"figure 6", "figure 11b", "psan", "bench compare", "adapt train"} <= commands
        assert {command.split()[0] for command in commands} == set(
            _subcommands(build_parser())
        )
