"""Fault-injection plans for NVRAM contents and in-flight writes.

A plan is a list of fault specs bound into one :class:`FaultInjector`,
which an experiment installs on an :class:`~repro.sim.nvram.NVRAM`
device (``nvram.injector = injector``).  The device consults it when a
crash reverts an in-flight (not-yet-durable) write
(:meth:`FaultInjector.on_revert`): a matching :class:`TornWrite` spec
keeps a word-granularity *prefix* of the new data instead of reverting
it completely — exactly the partially-persisted log entry the paper's
torn-bit/checksum machinery exists to reject.

Static image faults — :class:`GhostRecord` — are applied once, after
the crash, with :meth:`FaultInjector.corrupt_image`.

All specs are plain frozen dataclasses so campaigns can enumerate,
pickle, and label them; validation failures raise
:class:`~repro.errors.FaultInjectionError` at injector construction, not
at fault time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Union

from ..core.logrecord import HEADER_BYTES, LogRecord, RecordKind
from ..errors import FaultInjectionError
from ..utils import WORD_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.nvram import NVRAM


@dataclass(frozen=True)
class TornWrite:
    """Tear in-flight writes landing in ``[base, end)`` at the crash.

    The first ``keep_words`` 8-byte words of the new data persist; the
    rest reverts to the old contents.  At most ``max_tears`` writes are
    torn (newest first, the order the crash revert walks the journal).
    """

    base: int
    end: int
    keep_words: int = 1
    max_tears: int = 1

    def validate(self) -> None:
        if self.base < 0 or self.end <= self.base:
            raise FaultInjectionError(f"torn-write range [{self.base}, {self.end}) is empty")
        if self.keep_words < 0:
            raise FaultInjectionError("keep_words must be non-negative")
        if self.max_tears <= 0:
            raise FaultInjectionError("max_tears must be positive")


@dataclass(frozen=True)
class GhostRecord:
    """A plausible-but-corrupt log entry materialised in an empty slot.

    The payload carries the record magic byte and well-formed fields but
    a deliberately wrong checksum — the shape garbage or a remnant of a
    half-reset log would take.  Recovery must count and skip it rather
    than replay it (or truncate the window early).
    """

    slot_addr: int
    entry_size: int
    seed: int = 0

    def validate(self) -> None:
        if self.slot_addr < 0:
            raise FaultInjectionError(f"ghost slot address {self.slot_addr} is negative")
        if self.entry_size < HEADER_BYTES:
            raise FaultInjectionError(f"entry size {self.entry_size} below {HEADER_BYTES}")

    def payload(self) -> bytes:
        """The corrupt entry bytes (checksum byte inverted)."""
        value = ((self.seed * 2654435761) & 0xFFFFFFFFFFFF) or 0xBADC0FFEE
        record = LogRecord(
            kind=RecordKind.DATA,
            txid=(0x7000 + self.seed) & 0xFFFF,
            tid=self.seed & 0xFF,
            addr=value,
            undo=b"\xde\xad" * 4,
            redo=b"\xbe\xef" * 4,
            torn=self.seed & 1,
        )
        raw = bytearray(record.encode(self.entry_size))
        raw[6] ^= 0xFF  # break the checksum, keep everything else plausible
        return bytes(raw)


FaultSpec = Union[TornWrite, GhostRecord]


class FaultInjector:
    """A validated plan of faults, ready to attach to an NVRAM device.

    The injector is passive until wired up: assign it to
    ``nvram.injector`` (crash-revert faults) and call
    :meth:`corrupt_image` after the crash (static image faults).
    ``tears_applied`` counts the tears that actually fired, so
    experiments can tell an injection that never triggered from one
    that was tolerated.
    """

    def __init__(self, plan: Iterable[FaultSpec]) -> None:
        self.plan = tuple(plan)
        self._tears: list[TornWrite] = []
        self._ghosts: list[GhostRecord] = []
        for spec in self.plan:
            spec.validate()
            if isinstance(spec, TornWrite):
                self._tears.append(spec)
            elif isinstance(spec, GhostRecord):
                self._ghosts.append(spec)
            else:  # pragma: no cover - defensive
                raise FaultInjectionError(f"unknown fault spec {spec!r}")
        self.tears_applied = 0
        self._tears_remaining = {id(spec): spec.max_tears for spec in self._tears}

    # ------------------------------------------------------------------
    # NVRAM hook
    # ------------------------------------------------------------------
    def on_revert(self, addr: int, old: bytes, new: bytes) -> bytes:
        """Decide what an in-flight write leaves behind at the crash.

        ``old`` is the pre-write contents (a full revert), ``new`` what
        the write would have stored.  A matching torn-write spec returns
        a word-granularity mix; otherwise ``old`` is returned unchanged.
        """
        for spec in self._tears:
            remaining = self._tears_remaining[id(spec)]
            if remaining <= 0:
                continue
            if not (spec.base <= addr and addr + len(new) <= spec.end):
                continue
            keep = min(spec.keep_words * WORD_SIZE, len(new))
            if keep >= len(new):
                continue  # a full keep is not a tear
            self._tears_remaining[id(spec)] = remaining - 1
            self.tears_applied += 1
            return new[:keep] + old[keep:]
        return old

    # ------------------------------------------------------------------
    # Static image faults
    # ------------------------------------------------------------------
    def corrupt_image(self, nvram: "NVRAM") -> int:
        """Apply ghost records to the surviving image; returns the number
        of faults applied."""
        for ghost in self._ghosts:
            nvram.poke(ghost.slot_addr, ghost.payload())
        return len(self._ghosts)
