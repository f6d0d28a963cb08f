"""Tests for the determinism/accounting lint."""

import os
import textwrap

from repro.sanitizer.lint import (
    LintFinding,
    declared_stats_fields,
    lint_file,
    lint_paths,
    registered_event_kinds,
)

STATS = frozenset({"instructions", "fwb_writebacks"})
KINDS = frozenset({"tx_begin", "store"})


def write(tmp_path, relpath, body):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body))
    return str(path)


def run(tmp_path, relpath, body):
    return lint_file(write(tmp_path, relpath, body), STATS, KINDS)


class TestWallClock:
    def test_random_import_in_sim_fires(self, tmp_path):
        findings = run(tmp_path, "repro/sim/x.py", "import random\n")
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_from_import_fires(self, tmp_path):
        findings = run(tmp_path, "repro/core/x.py", "from time import sleep\n")
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_harness_layer_is_exempt(self, tmp_path):
        # Process pools and retry backoff legitimately use real time.
        assert run(tmp_path, "repro/harness/x.py", "import time\n") == []

    def test_suppression_comment(self, tmp_path):
        body = "import random  # lint: allow(wall-clock) seeded explicitly\n"
        assert run(tmp_path, "repro/workloads/x.py", body) == []


class TestSchedEntropy:
    def test_random_import_in_sched_fires(self, tmp_path):
        findings = run(tmp_path, "repro/sched/x.py", "import random\n")
        assert [f.rule for f in findings] == ["sched-entropy"]

    def test_time_from_import_fires(self, tmp_path):
        findings = run(
            tmp_path, "repro/sched/x.py", "from time import monotonic\n"
        )
        assert [f.rule for f in findings] == ["sched-entropy"]

    def test_unseeded_rng_constructor_fires(self, tmp_path):
        body = "def f(Random):\n    return Random()\n"
        findings = run(tmp_path, "repro/sched/x.py", body)
        assert [f.rule for f in findings] == ["sched-entropy"]
        assert "unseeded" in findings[0].message

    def test_seeded_rng_constructor_is_clean(self, tmp_path):
        body = "def f(Random):\n    return Random(42)\n"
        assert run(tmp_path, "repro/sched/x.py", body) == []

    def test_thread_rng_import_is_clean(self, tmp_path):
        body = "from ..workloads.rng import thread_rng\n"
        assert run(tmp_path, "repro/sched/x.py", body) == []

    def test_non_sched_paths_exempt(self, tmp_path):
        # The harness layer may use real time; sched-entropy must not
        # reach outside repro/sched.
        assert run(tmp_path, "repro/harness/x.py", "import time\n") == []


class TestStatsCounter:
    def test_undeclared_counter_fires(self, tmp_path):
        body = "def f(m):\n    m.stats.typo_counter += 1\n"
        findings = run(tmp_path, "x.py", body)
        assert [f.rule for f in findings] == ["stats-counter"]
        assert "typo_counter" in findings[0].message

    def test_declared_counter_is_clean(self, tmp_path):
        body = "def f(m):\n    m.stats.instructions += 1\n"
        assert run(tmp_path, "x.py", body) == []

    def test_private_stats_attribute_checked_too(self, tmp_path):
        body = "def f(self):\n    self._stats.ghost = 3\n"
        assert [f.rule for f in run(tmp_path, "x.py", body)] == ["stats-counter"]

    def test_plain_attribute_write_is_not_a_stats_write(self, tmp_path):
        # `stats.x = ...` where `stats` is a bare name is a local object,
        # not a machine-stats attribute chain.
        body = "def f(stats, r):\n    stats.psan_report = r\n"
        assert run(tmp_path, "x.py", body) == []


class TestFloatEq:
    def test_equality_on_time_name_fires(self, tmp_path):
        body = "def f(a, completion_time):\n    return a == completion_time\n"
        assert [f.rule for f in run(tmp_path, "x.py", body)] == ["float-eq"]

    def test_inequality_on_attribute_fires(self, tmp_path):
        body = "def f(a, b):\n    return a.completion != b\n"
        assert [f.rule for f in run(tmp_path, "x.py", body)] == ["float-eq"]

    def test_none_sentinel_is_exempt(self, tmp_path):
        body = "def f(deadline):\n    return deadline == None\n"
        assert run(tmp_path, "x.py", body) == []

    def test_ordering_comparisons_are_fine(self, tmp_path):
        body = "def f(a, deadline):\n    return a <= deadline\n"
        assert run(tmp_path, "x.py", body) == []

    def test_non_time_names_are_fine(self, tmp_path):
        body = "def f(kind, other):\n    return kind == other\n"
        assert run(tmp_path, "x.py", body) == []


class TestEventKind:
    def test_unregistered_kind_fires(self, tmp_path):
        body = "def f(t):\n    t.emit(1.0, 'tx_bgin', 0)\n"
        findings = run(tmp_path, "x.py", body)
        assert [f.rule for f in findings] == ["event-kind"]
        assert "tx_bgin" in findings[0].message

    def test_registered_kind_is_clean(self, tmp_path):
        body = "def f(t):\n    t.emit(1.0, 'store', 0)\n"
        assert run(tmp_path, "x.py", body) == []

    def test_non_emit_calls_ignored(self, tmp_path):
        body = "def f(t):\n    t.send(1.0, 'bogus', 0)\n"
        assert run(tmp_path, "x.py", body) == []


class TestDeviceImageEq:
    def test_comparing_two_device_images_fires(self, tmp_path):
        body = "ok = a.machine.nvram.image == b.machine.nvram.image\n"
        findings = run(tmp_path, "x.py", body)
        assert [f.rule for f in findings] == ["device-image-eq"]

    def test_a_name_bound_to_an_image_fires(self, tmp_path):
        body = """
        def f(machine, zero):
            image = machine.nvram.image
            assert image != zero
            fresh = NVRAM(config).image
            return fresh == zero
        """
        findings = run(tmp_path, "x.py", body)
        assert [(f.rule, f.line) for f in findings] == [
            ("device-image-eq", 4),
            ("device-image-eq", 6),
        ]

    def test_contents_comparisons_are_clean(self, tmp_path):
        body = """
        def f(nvram, other, prepared, clone, image):
            assert bytes(nvram.image) == image
            assert nvram.snapshot() == other.snapshot()
            assert prepared.image == clone.image
            return nvram.image is other.image

        def g(image, zero):
            return image != zero
        """
        assert run(tmp_path, "x.py", body) == []

    def test_repo_sources_and_tests_compare_image_contents(self):
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        findings = [
            finding
            for finding in lint_paths(
                [os.path.join(root, "src"), os.path.join(root, "tests")]
            )
            if finding.rule == "device-image-eq"
        ]
        assert findings == [], "\n".join(f.render() for f in findings)


class TestRegistries:
    def test_declared_stats_fields_parse_real_source(self):
        fields = declared_stats_fields()
        assert "instructions" in fields
        assert "fwb_writebacks" in fields

    def test_registered_event_kinds_parse_real_source(self):
        kinds = registered_event_kinds()
        assert {"tx_begin", "tx_commit", "store", "log_place",
                "nvram_write"} <= kinds

    def test_repo_source_tree_is_clean(self):
        # The CI gate: the shipped tree must lint clean.
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))),
            "src", "repro",
        )
        findings = lint_paths([src])
        assert findings == [], "\n".join(f.render() for f in findings)


class TestPlumbing:
    def test_lint_paths_walks_directories(self, tmp_path):
        write(tmp_path, "repro/sim/a.py", "import random\n")
        write(tmp_path, "repro/sim/b.py", "import secrets\n")
        findings = lint_paths([str(tmp_path)])
        assert len(findings) == 2
        assert findings == sorted(
            findings, key=lambda f: (f.path, f.line, f.rule)
        )

    def test_finding_render_and_dict(self):
        finding = LintFinding("float-eq", "x.py", 3, "msg")
        assert finding.render() == "x.py:3: [float-eq] msg"
        assert finding.to_dict() == {
            "rule": "float-eq", "path": "x.py", "line": 3, "message": "msg",
        }


class TestPassFramework:
    def test_builtin_passes_registered(self):
        from repro.sanitizer.lint import PASSES

        assert set(PASSES) >= {
            "wall-clock", "stats-counter", "float-eq", "event-kind",
            "sched-entropy", "device-image-eq",
        }
        for rule, cls in PASSES.items():
            assert cls.rule == rule
            assert cls.description

    def test_custom_pass_participates(self, tmp_path):
        import ast

        from repro.sanitizer.lint import PASSES, LintPass, register_pass

        @register_pass
        class NoGlobalsPass(LintPass):
            rule = "no-globals"
            description = "test-only: reject the global statement"

            def visit_Global(self, node):
                self.add(node, "global statement")

        try:
            findings = run(
                tmp_path, "x.py", "def f():\n    global g\n    g = 1\n"
            )
            assert [f.rule for f in findings] == ["no-globals"]
        finally:
            PASSES.pop("no-globals")


class TestSuppressionAudit:
    def test_stale_suppression_reported(self, tmp_path):
        body = "x = 1  # lint: allow(float-eq) was a time compare once\n"
        findings = run(tmp_path, "x.py", body)
        assert [f.rule for f in findings] == ["stale-suppression"]
        assert "suppresses nothing" in findings[0].message

    def test_live_suppression_is_not_stale(self, tmp_path):
        body = "import random  # lint: allow(wall-clock) seeded explicitly\n"
        assert run(tmp_path, "repro/sim/x.py", body) == []

    def test_unknown_rule_reported(self, tmp_path):
        findings = run(tmp_path, "x.py", "x = 1  # lint: allow(bogus-rule)\n")
        assert [f.rule for f in findings] == ["stale-suppression"]
        assert "names no registered lint pass" in findings[0].message

    def test_inactive_rule_suppression_skipped(self, tmp_path):
        # wall-clock does not run outside the deterministic packages,
        # so the mark's staleness is unknowable there — not a finding.
        body = "import time  # lint: allow(wall-clock)\n"
        assert run(tmp_path, "repro/harness/x.py", body) == []

    def test_docstrings_are_not_audited(self, tmp_path):
        body = '"""Mentions lint: allow(float-eq) in prose only."""\nx = 1\n'
        assert run(tmp_path, "x.py", body) == []

    def test_audit_can_be_disabled(self, tmp_path):
        from repro.sanitizer.lint import lint_file

        path = write(tmp_path, "x.py", "x = 1  # lint: allow(float-eq)\n")
        assert lint_file(path, STATS, KINDS, audit_suppressions=False) == []
