"""Set-associative cache holding real line data.

The cache is functional *and* timed: lines carry their 64 bytes so that
undo values (Section III-B: "its address, old value, and new value are all
available in the cache hierarchy") and crash states are exact.  Each line
also carries the paper's two persistence-related bits:

* ``dirty`` — standard write-back dirty bit;
* ``fwb`` — the extra force-write-back bit added by the FWB mechanism
  (Section IV-D), driving the IDLE/FLAG/FWB state machine.

``log_release`` records the time by which all HWL log records covering the
line's dirty words are durable; a write-back may not reach NVRAM earlier
(the inherent ordering guarantee of Section III-B).
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Iterator, Optional

from ..errors import SimulationError
from ..utils import line_address
from .config import CacheConfig


class CacheLine:
    """One cache line: tag (= line base address), data, and state bits."""

    __slots__ = ("addr", "data", "dirty", "fwb", "last_use", "log_release")

    def __init__(self, addr: int, data: bytes, now: float) -> None:
        self.addr = addr
        self.data = bytearray(data)
        self.dirty = False
        self.fwb = False
        self.last_use = now
        self.log_release = 0.0


_last_use = attrgetter("last_use")


class SetAssociativeCache:
    """LRU set-associative cache with write-back write-allocate semantics.

    Sets are allocated lazily (a dict keyed by set index) so that large
    caches cost memory only for the sets actually touched.  Each set is
    itself a ``dict[tag -> CacheLine]`` — a tag probe is one hash lookup
    instead of a linear scan of up to ``ways`` tags, which is the
    simulator's single hottest operation (every load, store, fill,
    coherence probe and write-back probes a set).

    The insertion order of a set's dict doubles as the LRU tie-break
    order: Python dicts preserve insertion order, victim selection takes
    the minimum ``last_use`` with first-inserted winning ties, and
    removal + reinsertion moves a line to the back — exactly the order a
    list with ``append``/``remove`` (the previous representation)
    maintains, keeping eviction behaviour bit-identical.

    The probe is shared: :attr:`sets` is keyed by :attr:`set_key` of an
    address, a bound builtin (``addr & set bits``) that costs no Python
    frame, so the hierarchy's hit paths probe ``sets`` in their own
    frame with the same key this class uses.  ``sets`` is cleared in
    place, never rebound, so a caller may keep a reference to it.
    """

    def __init__(self, config: CacheConfig, name: str) -> None:
        config.validate()
        self.config = config
        self.name = name
        self.sets: dict[int, dict[int, CacheLine]] = {}
        # Sets and lines are powers of two (validated), so the set bits
        # of an address sit just above its line offset.
        self.set_key = ((config.num_sets - 1) * config.line_size).__and__
        self._line_size = config.line_size

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, addr: int) -> Optional[CacheLine]:
        """Return the line containing ``addr`` or None (no LRU update)."""
        bucket = self.sets.get(self.set_key(addr))
        if bucket is None:
            return None
        return bucket.get(addr & ~(self._line_size - 1))

    def touch(self, line: CacheLine, now: float) -> None:
        """Mark ``line`` most-recently-used at ``now``."""
        line.last_use = now

    # ------------------------------------------------------------------
    # Allocation / eviction
    # ------------------------------------------------------------------
    def fill(
        self, line_addr: int, data: bytes, now: float, dirty: bool = False
    ) -> tuple[CacheLine, Optional[CacheLine]]:
        """Insert a line and return ``(new_line, evicted_victim)``.

        The victim (which the caller must write back if dirty) is the
        removed :class:`CacheLine` itself, which no set holds any more,
        or None when the set had room.  Inserting a line that is already
        present is a simulator bug and raises :class:`SimulationError`.
        Hot paths use this instead of :meth:`insert` + :meth:`lookup` to
        avoid probing the set twice per fill.
        """
        if len(data) != self._line_size:
            raise SimulationError(
                f"{self.name}: insert of {len(data)} bytes, line is {self._line_size}"
            )
        key = self.set_key(line_addr)
        bucket = self.sets.get(key)
        if bucket is None:
            bucket = self.sets[key] = {}
        elif line_addr in bucket:
            raise SimulationError(f"{self.name}: duplicate insert {line_addr:#x}")
        victim = None
        if len(bucket) >= self.config.ways:
            victim = min(bucket.values(), key=_last_use)
            del bucket[victim.addr]
        line = CacheLine(line_addr, data, now)
        line.dirty = dirty
        bucket[line_addr] = line
        return line, victim

    def insert(
        self, line_addr: int, data: bytes, now: float, dirty: bool = False
    ) -> Optional[CacheLine]:
        """Insert a line, evicting the LRU victim if the set is full.

        Returns the evicted line or None; see :meth:`fill`.
        """
        return self.fill(line_addr, data, now, dirty)[1]

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Remove the line containing ``addr`` and return it (None if
        absent); the caller owns the detached line and its data."""
        line_addr = line_address(addr, self._line_size)
        bucket = self.sets.get(self.set_key(line_addr))
        if not bucket:
            return None
        return bucket.pop(line_addr, None)

    def drop_all(self) -> None:
        """Discard every line (power loss)."""
        self.sets.clear()

    # ------------------------------------------------------------------
    # Iteration (FWB scanning, tests)
    # ------------------------------------------------------------------
    def iter_lines(self) -> Iterator[CacheLine]:
        """Iterate all valid lines, set by set in set-creation order and
        each set in insertion order (FWB scans write back in this order)."""
        return chain.from_iterable(map(dict.values, self.sets.values()))

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently cached."""
        return sum(len(bucket) for bucket in self.sets.values())

    def dirty_count(self) -> int:
        """Number of dirty lines (test/FWB visibility)."""
        return sum(1 for line in self.iter_lines() if line.dirty)
