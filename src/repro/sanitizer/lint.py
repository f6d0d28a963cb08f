"""Determinism and accounting lint (the source half of the sanitizer).

``repro lint`` runs a set of **pluggable AST passes** over the source
tree.  Each pass is a :class:`LintPass` subclass registered under its
rule id via :func:`register_pass`; ``lint_file`` instantiates every
registered pass that declares itself applicable to the file and runs it
over the parsed tree.  The built-in passes reject five classes of
hazard that have historically produced irreproducible or silently-wrong
simulation results:

``wall-clock``
    Importing ambient-entropy or wall-clock modules (``random``,
    ``time``, ``datetime``, ``secrets``, ``uuid``) inside the
    deterministic simulation packages (``sim``, ``core``, ``txn``,
    ``workloads``, ``faults``).  Simulated time is the only clock, and
    all randomness must flow through the seeded
    :mod:`repro.workloads.rng` stream.  The harness layer (process
    pools, retry backoff) legitimately uses real time and is exempt.

``stats-counter``
    Writing a counter attribute on a stats object (``*.stats.NAME`` /
    ``*._stats.NAME``) that :class:`~repro.sim.stats.MachineStats` does
    not declare.  A typo'd counter accumulates into a ghost attribute
    that no report or test ever reads.

``float-eq``
    ``==`` / ``!=`` between floating-point cycle quantities (operands
    named like times: ``time``, ``completion``, ``release``, ...).
    Simulated timestamps are floats; exact comparison is only ever
    correct against a sentinel, which must be annotated.

``event-kind``
    Passing a string literal to ``.emit(...)`` that is not registered in
    :data:`repro.sim.events.EVENT_KINDS` — a typo would create a
    parallel event stream the sanitizer silently ignores.

``device-image-eq``
    ``==`` / ``!=`` with an NVRAM device image operand (``nvram.image``,
    ``machine.nvram.image``, or a name bound to one in the same
    function).  The image is a memory mapping, which compares by
    identity: such a check is never a contents check.  Compare
    :meth:`~repro.sim.nvram.NVRAM.snapshot` results instead.

A finding on a line containing ``# lint: allow(rule-id)`` is suppressed;
the comment marks a reviewed, justified exception.  Suppressions are
themselves **audited**: an ``allow`` whose rule no longer fires on that
line (the code changed, the exception went stale) is reported as a
``stale-suppression`` finding — informational by default, fatal under
``repro lint --strict`` — so dead exceptions cannot silently accumulate.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Iterable, Optional

#: Modules whose import signals wall-clock or ambient entropy.
WALL_CLOCK_MODULES = frozenset({"random", "time", "datetime", "secrets", "uuid"})

#: Top-level ``repro`` subpackages that must stay deterministic.
DETERMINISTIC_PACKAGES = frozenset({"sim", "core", "txn", "workloads", "faults"})

#: Identifier fragments that mark a value as a simulated-time quantity.
TIME_IDENTIFIERS = frozenset(
    {
        "time",
        "cycles",
        "completion",
        "release",
        "durable",
        "now",
        "deadline",
        "next_scan",
        "clock",
        "latency",
        "stall",
    }
)

_ALLOW_MARK = "lint: allow("
_ALLOW_RE = re.compile(r"lint:\s*allow\(([a-z-]+)\)")

#: The audit pass's own rule id (not an AST pass; produced by the
#: suppression audit in :func:`lint_file`).
STALE_SUPPRESSION = "stale-suppression"


@dataclass(frozen=True)
class LintFinding:
    """One lint violation."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


def declared_stats_fields(stats_path: Optional[str] = None) -> frozenset:
    """Field names declared by ``MachineStats``, parsed from its source.

    Parsing (rather than importing) keeps the lint usable on a tree that
    does not import cleanly — the exact situation a lint is for.
    """
    if stats_path is None:
        stats_path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "sim",
            "stats.py",
        )
    with open(stats_path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=stats_path)
    fields: set = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name == "MachineStats"):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                fields.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        fields.add(target.id)
    return frozenset(fields)


def registered_event_kinds(events_path: Optional[str] = None) -> frozenset:
    """Event kinds from :mod:`repro.sim.events`, parsed from its source."""
    if events_path is None:
        events_path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "sim",
            "events.py",
        )
    with open(events_path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=events_path)
    kinds: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            kinds.add(node.value)
    return frozenset(kinds)


def _deterministic_module(path: str) -> bool:
    """True when ``path`` lies inside a deterministic repro subpackage."""
    parts = os.path.normpath(path).split(os.sep)
    if "repro" not in parts:
        return False
    tail = parts[parts.index("repro") + 1 :]
    return bool(tail) and tail[0] in DETERMINISTIC_PACKAGES


def _time_identifier(node: ast.AST) -> Optional[str]:
    """The time-ish identifier an operand refers to, if any."""
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is None:
        return None
    lowered = name.lower()
    if lowered in TIME_IDENTIFIERS:
        return name
    for fragment in TIME_IDENTIFIERS:
        if lowered.endswith("_" + fragment):
            return name
    return None


def _is_none_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


# ----------------------------------------------------------------------
# The pass framework
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LintContext:
    """Per-file inputs shared by every pass."""

    path: str
    stats_fields: frozenset
    event_kinds: frozenset
    deterministic: bool


#: rule id -> LintPass subclass, in registration order.
PASSES: dict = {}


def register_pass(cls):
    """Class decorator adding a :class:`LintPass` to the registry."""
    assert cls.rule and cls.rule not in PASSES, cls
    PASSES[cls.rule] = cls
    return cls


class LintPass(ast.NodeVisitor):
    """One lint rule: an AST visitor producing findings for its rule.

    Subclasses set ``rule`` / ``description``, override visit methods,
    and may override :meth:`applicable` to skip files the rule does not
    govern (the pass then never runs there, and its suppressions in
    those files are ignored rather than audited).
    """

    rule: str = "?"
    description: str = ""

    def __init__(self, ctx: LintContext) -> None:
        self.ctx = ctx
        self.findings: list = []

    @classmethod
    def applicable(cls, ctx: LintContext) -> bool:
        return True

    def add(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            LintFinding(self.rule, self.ctx.path, getattr(node, "lineno", 0), message)
        )


@register_pass
class WallClockPass(LintPass):
    rule = "wall-clock"
    description = "no ambient entropy / wall clock in simulation packages"

    @classmethod
    def applicable(cls, ctx: LintContext) -> bool:
        return ctx.deterministic

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in WALL_CLOCK_MODULES:
                self.add(
                    node,
                    f"import of {alias.name!r} in a deterministic "
                    "simulation module (use simulated time / the "
                    "seeded workload RNG)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module:
            root = node.module.split(".")[0]
            if root in WALL_CLOCK_MODULES:
                self.add(
                    node,
                    f"import from {node.module!r} in a deterministic "
                    "simulation module",
                )
        self.generic_visit(node)


@register_pass
class SchedEntropyPass(LintPass):
    rule = "sched-entropy"
    description = "service layer admits no wall clock or unseeded randomness"

    @classmethod
    def applicable(cls, ctx: LintContext) -> bool:
        # The sched package sits above the deterministic simulation core
        # (so it is not in DETERMINISTIC_PACKAGES), but its whole
        # contract is replayable scenarios: a schedule or interleaving
        # that consulted the host would make `repro serve` reports
        # unreproducible.  All randomness must flow through the seeded
        # repro.workloads.rng streams and all time must be simulated.
        parts = os.path.normpath(ctx.path).split(os.sep)
        if "repro" not in parts:
            return False
        tail = parts[parts.index("repro") + 1 :]
        return bool(tail) and tail[0] == "sched"

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in WALL_CLOCK_MODULES:
                self.add(
                    node,
                    f"import of {alias.name!r} in the service layer: "
                    "schedules and interleavings must be pure functions "
                    "of the seeded config (use repro.workloads.rng and "
                    "simulated cycles)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module:
            root = node.module.split(".")[0]
            if root in WALL_CLOCK_MODULES:
                self.add(
                    node,
                    f"import from {node.module!r} in the service layer "
                    "(use repro.workloads.rng and simulated cycles)",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # An RNG constructed without an explicit seed falls back to host
        # entropy — the one way a seeded import policy can still leak.
        callee = None
        if isinstance(node.func, ast.Name):
            callee = node.func.id
        elif isinstance(node.func, ast.Attribute):
            callee = node.func.attr
        if callee in ("Random", "SystemRandom", "default_rng") and not (
            node.args or node.keywords
        ):
            self.add(
                node,
                f"unseeded {callee}() in the service layer: pass an "
                "explicit seed (or use repro.workloads.rng.thread_rng)",
            )
        self.generic_visit(node)


@register_pass
class StatsCounterPass(LintPass):
    rule = "stats-counter"
    description = "stats writes must target declared MachineStats fields"

    def _check_target(self, target: ast.AST) -> None:
        if not isinstance(target, ast.Attribute):
            return
        value = target.value
        if not (isinstance(value, ast.Attribute) and value.attr in ("stats", "_stats")):
            return
        if target.attr not in self.ctx.stats_fields:
            self.add(
                target,
                f"write to undeclared stats counter {target.attr!r} "
                "(declare it on MachineStats)",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)


@register_pass
class FloatEqPass(LintPass):
    rule = "float-eq"
    description = "no exact ==/!= between cycle-time floats"

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_none_constant(left) or _is_none_constant(right):
                continue
            name = _time_identifier(left) or _time_identifier(right)
            if name is not None:
                self.add(
                    node,
                    f"exact ==/!= on cycle-time value {name!r} "
                    "(compare with a tolerance, or annotate the sentinel)",
                )
        self.generic_visit(node)


@register_pass
class EventKindPass(LintPass):
    rule = "event-kind"
    description = "emitted event kinds must be registered"

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            kind = node.args[1].value
            if kind not in self.ctx.event_kinds:
                self.add(
                    node,
                    f"emit of unregistered event kind {kind!r} "
                    "(register it in repro.sim.events.EVENT_KINDS)",
                )
        self.generic_visit(node)


def _names_device(node: ast.AST) -> bool:
    """True for an expression naming an NVRAM device (``nvram``,
    ``machine.nvram``, ``NVRAM(config)``)."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "NVRAM"
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return "nvram" in name.lower()


def _device_image(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "image"
        and _names_device(node.value)
    )


@register_pass
class DeviceImageEqPass(LintPass):
    rule = "device-image-eq"
    description = "no ==/!= on a device image (a mapping compares by identity)"

    def __init__(self, ctx: LintContext) -> None:
        super().__init__(ctx)
        self._aliases: list = [set()]  # per scope: names bound to an image

    def _visit_scope(self, node: ast.AST) -> None:
        aliases = {
            target.id
            for stmt in ast.walk(node)
            if isinstance(stmt, ast.Assign) and _device_image(stmt.value)
            for target in stmt.targets
            if isinstance(target, ast.Name)
        }
        self._aliases.append(aliases)
        self.generic_visit(node)
        self._aliases.pop()

    visit_Module = visit_FunctionDef = visit_AsyncFunctionDef = _visit_scope

    def _is_image(self, node: ast.AST) -> bool:
        return _device_image(node) or (
            isinstance(node, ast.Name) and node.id in self._aliases[-1]
        )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                self._is_image(left) or self._is_image(right)
            ):
                self.add(
                    node,
                    "==/!= on a device image compares identity, not "
                    "contents (compare nvram.snapshot() results)",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# Driving the passes + the suppression audit
# ----------------------------------------------------------------------
def _comment_lines(source: str) -> dict:
    """``lineno -> comment text`` for every real comment token.

    Tokenizing (rather than scanning raw lines) keeps docstrings that
    merely *mention* the allow syntax out of the audit.
    """
    comments: dict = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string
    except tokenize.TokenError:
        pass
    return comments


def _audit_suppressions(
    path: str, source: str, raw: list, active_rules: set
) -> list:
    """Stale ``lint: allow`` marks: no finding of that rule on the line.

    Marks naming a rule whose pass did not run on this file (e.g. a
    ``wall-clock`` allow outside the deterministic packages) are skipped
    — the pass could not have fired there, so the mark's staleness is
    unknowable, and flagging it would punish moving a file.
    """
    fired = {(finding.line, finding.rule) for finding in raw}
    stale: list = []
    for lineno, text in sorted(_comment_lines(source).items()):
        for rule in _ALLOW_RE.findall(text):
            if rule == STALE_SUPPRESSION:
                continue
            if rule not in PASSES:
                stale.append(
                    LintFinding(
                        STALE_SUPPRESSION,
                        path,
                        lineno,
                        f"allow({rule}) names no registered lint pass",
                    )
                )
            elif rule in active_rules and (lineno, rule) not in fired:
                stale.append(
                    LintFinding(
                        STALE_SUPPRESSION,
                        path,
                        lineno,
                        f"allow({rule}) suppresses nothing: the rule no "
                        "longer fires on this line (remove the comment)",
                    )
                )
    return stale


def lint_file(
    path: str,
    stats_fields: Optional[frozenset] = None,
    event_kinds: Optional[frozenset] = None,
    audit_suppressions: bool = True,
) -> list:
    """Lint one file through every applicable registered pass.

    Returns surviving (unsuppressed) findings, plus — when
    ``audit_suppressions`` — a ``stale-suppression`` finding for every
    ``lint: allow`` comment that suppressed nothing.
    """
    if stats_fields is None:
        stats_fields = declared_stats_fields()
    if event_kinds is None:
        event_kinds = registered_event_kinds()
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    ctx = LintContext(
        path, stats_fields, event_kinds, deterministic=_deterministic_module(path)
    )
    raw: list = []
    active_rules: set = set()
    for cls in PASSES.values():
        if not cls.applicable(ctx):
            continue
        active_rules.add(cls.rule)
        lint_pass = cls(ctx)
        lint_pass.visit(tree)
        raw.extend(lint_pass.findings)
    lines = source.splitlines()
    kept = []
    for finding in raw:
        line_text = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        if f"{_ALLOW_MARK}{finding.rule})" in line_text:
            continue
        kept.append(finding)
    if audit_suppressions:
        kept.extend(_audit_suppressions(path, source, raw, active_rules))
    return kept


def lint_paths(paths: Iterable[str], audit_suppressions: bool = True) -> list:
    """Lint files and directory trees; returns all findings, sorted."""
    stats_fields = declared_stats_fields()
    event_kinds = registered_event_kinds()
    files: list = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, _dirnames, filenames in os.walk(path):
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            files.append(path)
    findings: list = []
    for path in sorted(files):
        findings.extend(
            lint_file(
                path,
                stats_fields,
                event_kinds,
                audit_suppressions=audit_suppressions,
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
