"""Optional execution tracer.

Attach a :class:`Tracer` to a machine to record a timeline of
persistence-relevant events — transaction begins/commits (with their
durability times), per-store and per-log-record events, FWB scans,
log-wrap forced write-backs, NVRAM write completions, and the crash
instant.  Useful for debugging recovery scenarios, for inspecting how far
commit durability lags the core clock under "steal but no force", and as
the event stream the persistency-ordering sanitizer
(:mod:`repro.sanitizer`) verifies.

.. code-block:: python

    machine = Machine(config, DESIGNS.resolve("fwb"))
    machine.tracer = Tracer()
    ...
    print(machine.tracer.summary())

Event kinds emitted by the simulator are registered in
:mod:`repro.sim.events`; detail values are JSON-safe primitives so a
trace can round-trip through :meth:`Tracer.to_jsonl` /
:meth:`Tracer.from_jsonl` and be sanitized offline.

Live consumers (the sanitizer) should :meth:`subscribe` rather than read
:meth:`events` afterwards: the in-memory ring is bounded by ``capacity``
and old events are dropped once it fills (the drop count is reported by
:meth:`summary` and :attr:`dropped`), while subscribers see every event.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: float
    kind: str
    core: int
    detail: dict = field(default_factory=dict)


class Tracer:
    """Bounded in-memory event recorder."""

    def __init__(self, capacity: int = 100_000) -> None:
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.counts: Counter = Counter()
        self._listeners: list = []
        # Kind strings repeat millions of times in a long trace; intern
        # them once so every event shares one object instead of carrying
        # its own copy (and so equality checks are pointer comparisons).
        self._interned: dict = {}

    def emit(self, time: float, kind: str, core: int = -1, /, **detail) -> None:
        """Record one event.

        The leading parameters are positional-only so detail keys may
        reuse their names (log records have their own ``kind``).
        """
        interned = self._interned.get(kind)
        if interned is None:
            interned = self._interned.setdefault(kind, sys.intern(kind))
        event = TraceEvent(time, interned, core, detail)
        self._events.append(event)
        self.counts[interned] += 1
        for listener in self._listeners:
            listener(event)

    # ------------------------------------------------------------------
    # Live consumption
    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[[TraceEvent], None]) -> None:
        """Call ``listener`` with every event as it is emitted.

        Subscribers are independent of the bounded ring: they see events
        that the ring later drops.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[TraceEvent], None]) -> None:
        """Remove a previously subscribed listener (no-op if absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events silently evicted from the bounded ring (capacity hit)."""
        return sum(self.counts.values()) - len(self._events)

    def events(self, kind: Optional[str] = None) -> list:
        """All retained events, optionally filtered by kind, in order."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    def commit_lags(self) -> list:
        """Per-commit durability lag (durable_time - commit_time).

        Under the full design commits are instant at the core but durable
        only once the commit record drains — this is that gap.
        """
        lags = []
        for event in self.events("tx_commit"):
            durable = event.detail.get("durable")
            if durable is not None:
                lags.append(max(0.0, durable - event.time))
        return lags

    def summary(self) -> str:
        """Human-readable event-count summary."""
        lines = ["trace summary", "-------------"]
        for kind, count in sorted(self.counts.items()):
            lines.append(f"{kind:24s} {count}")
        dropped = self.dropped
        if dropped:
            lines.append(
                f"{'dropped (capacity)':24s} {dropped} "
                f"(ring holds {self.capacity}; oldest events evicted)"
            )
        lags = self.commit_lags()
        if lags:
            lines.append(
                f"{'commit durability lag':24s} "
                f"avg {sum(lags) / len(lags):.0f} / max {max(lags):.0f} cycles"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # Offline persistence (psan on saved traces)
    # ------------------------------------------------------------------
    def to_jsonl(self, path: str) -> int:
        """Write the retained events to ``path``, one JSON object per line.

        Returns the number of events written.  Detail values are emitted
        as-is, so components must keep them JSON-serialisable (ints,
        floats, strings, bools, None) — which the registered event schema
        does.  Note the ring is bounded: a trace meant for offline
        sanitizing should be recorded with a capacity sized to the run
        (``Tracer(capacity=...)``), and :attr:`dropped` says whether any
        events were lost.
        """
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            for event in self._events:
                fh.write(
                    json.dumps(
                        {
                            "t": event.time,
                            "k": event.kind,
                            "c": event.core,
                            "d": event.detail,
                        },
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")
                written += 1
        return written

    @classmethod
    def from_jsonl(cls, path: str) -> "Tracer":
        """Rebuild a tracer from a :meth:`to_jsonl` file.

        The returned tracer's capacity covers the whole file, so nothing
        is dropped on reload and the sanitizer can replay the full stream.
        """
        events = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                raw = json.loads(line)
                events.append((raw["t"], raw["k"], raw.get("c", -1), raw.get("d", {})))
        tracer = cls(capacity=max(len(events), 1))
        for time, kind, core, detail in events:
            tracer.emit(time, kind, core, **detail)
        return tracer
