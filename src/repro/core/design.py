"""The composable persistence-design mechanism space.

The paper's eight evaluated designs (Section VI) are points in a small
mechanism space, not eight unrelated artifacts.  Each design is the
composition of four orthogonal axes:

* **log backend** — who generates log records: nobody (``none``), the
  pipeline as ordinary instructions (``sw``), or the HWL engine inside
  the cache hierarchy (``hw``);
* **log content** — what a DATA record carries: old values (``undo``),
  new values (``redo``), or both (``undo+redo``);
* **write-back discipline** — how dirty persistent lines reach NVRAM:
  natural evictions only (``none``), explicit ``clwb`` over the write
  set at commit (``clwb``), or the hardware force-write-back scanner
  (``fwb``);
* **commit protocol** — whether the commit point is tied to durability
  (``fenced``) or optimistically reported at the core clock
  (``instant``).

:class:`DesignSpec` is the frozen composition; every predicate the
simulator consults (``persistence_guaranteed``, ``protects_log_wrap``,
``defers_in_place_stores``, …) is *derived* from the combination instead
of enumerated per design.  :data:`DESIGNS` registers the paper's eight
names as canonical specs and additionally parses free-form mechanism
strings such as ``"hw+undo+clwb"`` or ``"sw+redo+fwb"``, which is what
lets ``repro ablate`` sweep arbitrary grids of the space.
"""

from __future__ import annotations

import dataclasses
import difflib
import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple


class LogBackend(enum.Enum):
    """Who generates log records."""

    NONE = "none"
    SOFTWARE = "sw"
    HARDWARE = "hw"


class LogContent(enum.Enum):
    """What a DATA log record carries."""

    NONE = "none"
    UNDO = "undo"
    REDO = "redo"
    UNDO_REDO = "undo+redo"


class Writeback(enum.Enum):
    """How dirty persistent cache lines are forced to NVRAM."""

    NONE = "none"
    CLWB = "clwb"
    FWB = "fwb"


class CommitProtocol(enum.Enum):
    """Whether the reported commit point is tied to durability."""

    INSTANT = "instant"
    FENCED = "fenced"


@dataclass(frozen=True)
class DesignSpec:
    """One point in the mechanism space.

    Equality and hashing use only the four mechanism axes — ``name`` is
    presentation metadata, so a registered canonical design and an
    anonymous spec with the same mechanisms compare (and cache) equal.
    """

    log_backend: LogBackend
    log_content: LogContent
    writeback: Writeback
    commit: CommitProtocol
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.log_backend is LogBackend.NONE:
            if self.log_content is not LogContent.NONE:
                raise ValueError(
                    "a design without a log backend cannot carry log "
                    f"content {self.log_content.value!r}"
                )
            if self.writeback is not Writeback.NONE:
                raise ValueError(
                    "a design without a log backend has nothing to order "
                    f"write-backs against (writeback={self.writeback.value!r})"
                )
            if self.commit is not CommitProtocol.FENCED:
                pass  # instant is the only meaningful choice; accept it
        elif self.log_content is LogContent.NONE:
            raise ValueError(
                f"backend {self.log_backend.value!r} requires log content "
                "(undo, redo, or undo+redo)"
            )
        if not self.name:
            object.__setattr__(self, "name", self.mechanism_string())

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    @property
    def value(self) -> str:
        """Display name (the same string as :attr:`name`)."""
        return self.name

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name

    def mechanism_string(self) -> str:
        """Canonical ``backend+content+writeback[+commit]`` spelling.

        Round-trips through :func:`parse_design`.  Default tokens are
        kept explicit except the ``fenced`` commit (the common case).
        """
        if self.log_backend is LogBackend.NONE:
            return "none"
        parts = [self.log_backend.value]
        parts.extend(self.log_content.value.split("+"))
        if self.writeback is not Writeback.NONE:
            parts.append(self.writeback.value)
        else:
            parts.append("nowb")
        if self.commit is CommitProtocol.INSTANT:
            parts.append("instant")
        return "+".join(parts)

    # ------------------------------------------------------------------
    # Structural predicates (all derived; nothing enumerated per design)
    # ------------------------------------------------------------------
    @property
    def uses_hw_logging(self) -> bool:
        """True when the HWL engine generates log records in hardware."""
        return self.log_backend is LogBackend.HARDWARE

    @property
    def uses_sw_logging(self) -> bool:
        """True when logging executes as instructions in the pipeline."""
        return self.log_backend is LogBackend.SOFTWARE

    @property
    def logs_undo(self) -> bool:
        """True when old values are logged."""
        return self.log_content in (LogContent.UNDO, LogContent.UNDO_REDO)

    @property
    def logs_redo(self) -> bool:
        """True when new values are logged."""
        return self.log_content in (LogContent.REDO, LogContent.UNDO_REDO)

    @property
    def uses_clwb_at_commit(self) -> bool:
        """True when transactions issue clwb over their write set."""
        return self.writeback is Writeback.CLWB

    @property
    def uses_fwb(self) -> bool:
        """True when the hardware FWB scanner is active."""
        return self.writeback is Writeback.FWB

    @property
    def defers_in_place_stores(self) -> bool:
        """Software redo-only logging: in-place stores wait for log
        completion (the Figure 1(b) memory barrier)."""
        return self.uses_sw_logging and self.log_content is LogContent.REDO

    @property
    def persistence_guaranteed(self) -> bool:
        """True when a crash at any instant is recoverable.

        Derived from the mechanisms:

        * no log, or an ``instant`` commit, guarantees nothing;
        * hardware logging recovers at any instant iff records carry
          **both** undo (for stolen lines) and redo (for un-forced
          lines) — the write-back discipline only bounds how often log
          wrap must force lines, never safety;
        * software redo logging is recoverable once the fenced redo log
          is the commit point (wrap protection covers laggard data);
        * software undo-only logging additionally needs ``clwb`` at
          commit, because the data itself must be durable before the
          commit record — there is no redo value to replay.
        """
        if self.log_backend is LogBackend.NONE:
            return False
        if self.commit is not CommitProtocol.FENCED:
            return False
        if self.log_backend is LogBackend.HARDWARE:
            return self.logs_undo and self.logs_redo
        if self.logs_redo:
            return True
        return self.writeback is Writeback.CLWB

    @property
    def protects_log_wrap(self) -> bool:
        """True when overwriting a log entry forces its data line durable."""
        return self.persistence_guaranteed

    #: The derived predicates, in a stable order.  This is the complete
    #: behavioural surface a symbolic consumer may depend on: anything a
    #: simulator component branches on is (by construction) one of these.
    PREDICATES = (
        "uses_hw_logging",
        "uses_sw_logging",
        "logs_undo",
        "logs_redo",
        "uses_clwb_at_commit",
        "uses_fwb",
        "defers_in_place_stores",
        "persistence_guaranteed",
        "protects_log_wrap",
    )

    def predicate_table(self) -> dict:
        """Every derived predicate as a flat ``name -> bool`` mapping.

        The static verifier (:mod:`repro.sanitizer.static`) interprets a
        design symbolically: it never instantiates a machine, only reads
        this table (plus :attr:`commit`) to decide which persist-state
        transitions the mechanisms perform.  Exposing the predicates as
        data also lets reports show *why* a verdict holds.
        """
        table = {name: getattr(self, name) for name in self.PREDICATES}
        table["fenced_commit"] = self.commit is CommitProtocol.FENCED
        return table

    # ------------------------------------------------------------------
    # Identity for caching
    # ------------------------------------------------------------------
    def key_material(self) -> dict:
        """JSON-ready mechanism identity for content-addressed caches.

        Excludes :attr:`name`: a canonical design and an anonymous spec
        with identical mechanisms produce identical stats, so they must
        share cache entries — while specs differing in *any* mechanism
        (e.g. only the write-back discipline) must never collide.
        """
        return {
            "log_backend": self.log_backend.value,
            "log_content": self.log_content.value,
            "writeback": self.writeback.value,
            "commit": self.commit.value,
        }

    def named(self, name: str) -> "DesignSpec":
        """A copy of this spec carrying ``name`` (mechanisms unchanged)."""
        return dataclasses.replace(self, name=name)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
_BACKEND_TOKENS = {
    "hw": LogBackend.HARDWARE,
    "hardware": LogBackend.HARDWARE,
    "sw": LogBackend.SOFTWARE,
    "software": LogBackend.SOFTWARE,
    "none": LogBackend.NONE,
}
_WRITEBACK_TOKENS = {
    "clwb": Writeback.CLWB,
    "fwb": Writeback.FWB,
    "nowb": Writeback.NONE,
}
_COMMIT_TOKENS = {
    "fenced": CommitProtocol.FENCED,
    "instant": CommitProtocol.INSTANT,
}


def parse_design(text: str) -> DesignSpec:
    """Parse a ``+``-joined mechanism string into a :class:`DesignSpec`.

    Token grammar (order-free after the backend): a backend (``hw`` /
    ``sw`` / ``none``), content tokens (``undo``, ``redo``, or both),
    an optional write-back token (``clwb`` / ``fwb`` / ``nowb``,
    default none), and an optional commit token (``fenced`` /
    ``instant``, default fenced).  Examples::

        hw+undo+redo+clwb   the paper's hwl
        sw+redo+fwb         software redo logging under the FWB scanner
        hw+undo             hardware undo-only, natural evictions
    """
    tokens = [token.strip().lower() for token in text.split("+") if token.strip()]
    if not tokens:
        raise ValueError("empty design spec")
    backend = _BACKEND_TOKENS.get(tokens[0])
    if backend is None:
        raise ValueError(
            f"design spec {text!r} must start with a backend token "
            "(hw, sw, or none)"
        )
    undo = redo = False
    writeback = Writeback.NONE
    commit = None
    for token in tokens[1:]:
        if token == "undo":
            undo = True
        elif token == "redo":
            redo = True
        elif token in _WRITEBACK_TOKENS:
            writeback = _WRITEBACK_TOKENS[token]
        elif token in _COMMIT_TOKENS:
            commit = _COMMIT_TOKENS[token]
        else:
            raise ValueError(f"unknown mechanism token {token!r} in {text!r}")
    if undo and redo:
        content = LogContent.UNDO_REDO
    elif undo:
        content = LogContent.UNDO
    elif redo:
        content = LogContent.REDO
    else:
        content = LogContent.NONE
    if commit is None:
        commit = (
            CommitProtocol.INSTANT
            if backend is LogBackend.NONE
            else CommitProtocol.FENCED
        )
    return DesignSpec(backend, content, writeback, commit)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class DesignRegistry:
    """Named design specs, plus mechanism-string fallback resolution."""

    def __init__(self) -> None:
        self._by_name: Dict[str, DesignSpec] = {}

    def register(self, name: str, spec: DesignSpec) -> DesignSpec:
        """Register ``spec`` under ``name``; returns the named spec."""
        if name in self._by_name:
            raise ValueError(f"design {name!r} is already registered")
        named = spec.named(name)
        self._by_name[name] = named
        return named

    def names(self) -> Tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name.values())

    def get(self, name: str) -> DesignSpec:
        """The registered spec for ``name`` (ValueError with suggestions)."""
        spec = self._by_name.get(name)
        if spec is None:
            raise ValueError(self._unknown(name))
        return spec

    def resolve(self, text: str) -> DesignSpec:
        """A registered name, else a parsed mechanism string.

        Registered names win (``"fwb"`` is the paper's full design, not
        a bare write-back token), so canonical results always carry
        their paper name.
        """
        spec = self._by_name.get(text)
        if spec is not None:
            return spec
        try:
            return parse_design(text)
        except ValueError:
            raise ValueError(self._unknown(text)) from None

    def _unknown(self, name: str) -> str:
        suggestions = difflib.get_close_matches(name, self._by_name, n=3)
        hint = f"; did you mean {', '.join(map(repr, suggestions))}?" if suggestions else ""
        return (
            f"unknown design {name!r}{hint} "
            f"(registered: {', '.join(self._by_name)}; or compose one, "
            "e.g. 'hw+undo+clwb' or 'sw+redo+fwb')"
        )


#: The global registry carrying the paper's eight canonical designs.
DESIGNS = DesignRegistry()

NON_PERS = DESIGNS.register(
    "non-pers",
    DesignSpec(LogBackend.NONE, LogContent.NONE, Writeback.NONE, CommitProtocol.INSTANT),
)
UNSAFE_BASE = DESIGNS.register(
    "unsafe-base",
    DesignSpec(
        LogBackend.SOFTWARE, LogContent.UNDO, Writeback.NONE, CommitProtocol.INSTANT
    ),
)
REDO_CLWB = DESIGNS.register(
    "redo-clwb",
    DesignSpec(
        LogBackend.SOFTWARE, LogContent.REDO, Writeback.CLWB, CommitProtocol.FENCED
    ),
)
UNDO_CLWB = DESIGNS.register(
    "undo-clwb",
    DesignSpec(
        LogBackend.SOFTWARE, LogContent.UNDO, Writeback.CLWB, CommitProtocol.FENCED
    ),
)
HW_RLOG = DESIGNS.register(
    "hw-rlog",
    DesignSpec(
        LogBackend.HARDWARE, LogContent.REDO, Writeback.NONE, CommitProtocol.FENCED
    ),
)
HW_ULOG = DESIGNS.register(
    "hw-ulog",
    DesignSpec(
        LogBackend.HARDWARE, LogContent.UNDO, Writeback.NONE, CommitProtocol.FENCED
    ),
)
HWL = DESIGNS.register(
    "hwl",
    DesignSpec(
        LogBackend.HARDWARE, LogContent.UNDO_REDO, Writeback.CLWB, CommitProtocol.FENCED
    ),
)
FWB = DESIGNS.register(
    "fwb",
    DesignSpec(
        LogBackend.HARDWARE, LogContent.UNDO_REDO, Writeback.FWB, CommitProtocol.FENCED
    ),
)

#: The paper's designs, in the order its figures present them.
CANONICAL_DESIGNS: Tuple[DesignSpec, ...] = (
    NON_PERS,
    UNSAFE_BASE,
    REDO_CLWB,
    UNDO_CLWB,
    HW_RLOG,
    HW_ULOG,
    HWL,
    FWB,
)

_CANONICAL_ORDER = {spec: index for index, spec in enumerate(CANONICAL_DESIGNS)}


def canonical_order(designs: Iterable[DesignSpec], strict_names: bool = False) -> list:
    """Sort canonical designs into paper order; customs keep their order.

    "Canonical" is decided by :class:`DesignSpec` equality, which
    compares the four mechanism axes only — so a composed spec such as
    ``hw+undo+nowb`` sorts as the canonical ``hw-ulog`` design it
    structurally is, even though its display name differs.  That is
    usually what figure code wants: equal mechanisms are the same point
    in the design space, whatever they were called on the command line.

    ``strict_names=True`` additionally requires the spec's display
    ``name`` to match the registered canonical name, so mechanism-equal
    aliases keep their user-given position among the customs instead of
    being folded into paper order.
    """
    designs = list(designs)

    def _is_canonical(d: DesignSpec) -> bool:
        if d not in _CANONICAL_ORDER:
            return False
        if strict_names:
            return any(d.name == c.name for c in CANONICAL_DESIGNS if c == d)
        return True

    canonical = [d for d in designs if _is_canonical(d)]
    canonical.sort(key=_CANONICAL_ORDER.__getitem__)
    custom = [d for d in designs if not _is_canonical(d)]
    return canonical + custom


def resolve_design(obj) -> DesignSpec:
    """Normalize anything design-shaped into a :class:`DesignSpec`.

    Accepts a :class:`DesignSpec` (returned as-is) or a string (registered
    name or mechanism string).
    """
    if isinstance(obj, DesignSpec):
        return obj
    if isinstance(obj, str):
        return DESIGNS.resolve(obj)
    raise TypeError(f"cannot resolve {obj!r} into a DesignSpec")


# ----------------------------------------------------------------------
# Mid-run switch legality (repro.adapt)
# ----------------------------------------------------------------------
def switch_transition_error(old: DesignSpec, new: DesignSpec):
    """Why switching a live machine from ``old`` to ``new`` is illegal
    (None when the transition is legal).

    A mid-run switch may only re-tune mechanisms the epoch barrier can
    make safe by flushing volatile state; it must never change what the
    machine has already promised:

    * the **log backend** is structural — the HWL engine, log buffers,
      and per-core wiring exist (or not) from construction, so records
      must keep coming from the same producer;
    * the **commit protocol** defines what "committed" meant for every
      pre-switch transaction; moving the commit point would rewrite
      history;
    * ``persistence_guaranteed`` must be preserved in both directions —
      a guaranteeing run may not silently drop its crash-recoverability
      claim, and an unguaranteed run cannot retroactively acquire one
      (its earlier transactions were never logged recoverably).

    Within those walls the barrier makes everything else safe: the
    write-back discipline (``clwb`` ↔ ``fwb`` ↔ ``nowb`` under
    ``hw+undo+redo``) and the log-content sides that do not affect the
    guarantee (``undo`` ↔ ``undo+redo`` under ``sw+clwb``).
    """
    if old.log_backend is not new.log_backend:
        return (
            f"cannot switch log backend mid-run "
            f"({old.log_backend.value!r} -> {new.log_backend.value!r}); "
            "the record-generation engine is structural"
        )
    if old.log_backend is LogBackend.NONE and old != new:
        return "a design without a log backend has no mechanisms to switch"
    if old.commit is not new.commit:
        return (
            f"cannot switch commit protocol mid-run "
            f"({old.commit.value!r} -> {new.commit.value!r}); "
            "it would redefine pre-switch commit points"
        )
    if old.persistence_guaranteed != new.persistence_guaranteed:
        return (
            f"switch must preserve the persistence guarantee "
            f"({old.name!r} guaranteed={old.persistence_guaranteed}, "
            f"{new.name!r} guaranteed={new.persistence_guaranteed})"
        )
    return None


def switch_legal(old: DesignSpec, new: DesignSpec) -> bool:
    """True when a live machine may switch from ``old`` to ``new``."""
    return switch_transition_error(old, new) is None


def check_switch_transition(old: DesignSpec, new: DesignSpec) -> None:
    """Raise ``ValueError`` when the ``old`` -> ``new`` switch is illegal."""
    reason = switch_transition_error(old, new)
    if reason is not None:
        raise ValueError(f"illegal design switch: {reason}")


def legal_switch_targets(spec: DesignSpec, candidates: Iterable[DesignSpec]):
    """The subset of ``candidates`` that ``spec`` may legally switch to
    (including ``spec`` itself when present), in candidate order."""
    return [target for target in candidates if switch_legal(spec, target)]


def expand_grid(
    backends: Iterable[str],
    contents: Iterable[str],
    writebacks: Iterable[str],
    commits: Iterable[str] = ("fenced",),
) -> list:
    """Cross-product of mechanism axis values, invalid combos skipped.

    Axis values are the enum token spellings (``hw``/``sw``/``none``,
    ``undo``/``redo``/``undo+redo``, ``none``/``clwb``/``fwb``,
    ``fenced``/``instant``).  Returns the valid :class:`DesignSpec` grid
    in deterministic axis order.
    """
    grid = []
    for backend in backends:
        for content in contents:
            for writeback in writebacks:
                for commit in commits:
                    try:
                        spec = DesignSpec(
                            LogBackend(backend),
                            LogContent(content),
                            Writeback(writeback),
                            CommitProtocol(commit),
                        )
                    except ValueError:
                        continue
                    if spec not in grid:
                        grid.append(spec)
    return grid
