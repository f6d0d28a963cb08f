"""Vector-clock happens-before race detection over compiled trace columns.

The dynamic checker replays a cell under one deterministic interleaving,
so unsynchronized cross-thread accesses to the same NVRAM word can never
manifest as a persist-ordering violation — the replay serializes them.
This module closes that blind spot *statically*: it walks each thread's
compiled op columns (:class:`~repro.sim.ctrace.CompiledThread`) once and
flags every pair of same-word accesses, at least one a write, that no
happens-before edge orders.

Compiled traces carry no synchronization ops today — workloads partition
the heap per thread precisely so their recorded streams are
interleaving-independent (the ``Workload.thread_body`` contract).  A
clean race report is therefore the *proof obligation* behind that contract:
if a workload ever touches a shared word, the detector fails the cell
before replay could silently pick one winner.  The detector still
implements the full vector-clock algebra (``acquire``/``release`` edges)
so synthetic streams and future sync-carrying traces check correctly.

The algorithm is the classic epoch-optimized FastTrack shape: per word,
the last write is a single ``(tid, clock)`` epoch and reads collapse to
a per-tid clock map; a race is an access not ordered after the prior
epoch under the accessor's vector clock.

Addresses may be symbolic block tokens (see :mod:`repro.sim.ctrace`):
distinct blocks never alias, and offsets within a block compare exactly
like real addresses, so symbolic and real words mix freely in one index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim.ctrace import (
    K_FREE,
    K_READ,
    K_TX_BEGIN,
    K_TX_COMMIT,
    K_WRITE,
    CompiledTrace,
)
from ..utils import WORD_SIZE, align_down


@dataclass(frozen=True)
class RaceAccess:
    """One side of a racy pair."""

    tid: int
    op_index: int
    kind: str  # "read" | "write" | "free"

    def to_dict(self) -> dict:
        return {"tid": self.tid, "op_index": self.op_index, "kind": self.kind}


@dataclass(frozen=True)
class Race:
    """Two unordered same-word accesses, at least one a write."""

    word: int
    first: RaceAccess
    second: RaceAccess

    def to_dict(self) -> dict:
        return {
            "word": self.word,
            "first": self.first.to_dict(),
            "second": self.second.to_dict(),
        }

    def render(self) -> str:
        return (
            f"race on word {self.word:#x}: "
            f"tid {self.first.tid} op {self.first.op_index} ({self.first.kind}) "
            f"vs tid {self.second.tid} op {self.second.op_index} "
            f"({self.second.kind})"
        )


@dataclass
class RaceReport:
    """Outcome of one trace's happens-before analysis."""

    races: list = field(default_factory=list)
    words_tracked: int = 0
    accesses: int = 0
    truncated: bool = False
    """True when the per-report race cap was hit (more races exist)."""

    @property
    def clean(self) -> bool:
        return not self.races

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "races": [race.to_dict() for race in self.races],
            "words_tracked": self.words_tracked,
            "accesses": self.accesses,
            "truncated": self.truncated,
        }

    def render(self) -> str:
        if self.clean:
            return (
                f"hb: clean ({self.accesses} accesses over "
                f"{self.words_tracked} words)"
            )
        lines = [f"hb: {len(self.races)} race(s)"]
        lines.extend(race.render() for race in self.races)
        if self.truncated:
            lines.append("  ... report truncated")
        return "\n".join(lines)


@dataclass
class _WordState:
    """Per-word access history, epoch-compressed."""

    write: Optional[tuple] = None  # (tid, clock, op_index, kind)
    reads: dict = field(default_factory=dict)  # tid -> (clock, op_index)


class RaceDetector:
    """Incremental vector-clock race detector.

    Feed accesses through :meth:`read` / :meth:`write` (word-granular
    internally) and synchronization through :meth:`acquire` /
    :meth:`release`; each thread's local clock advances one tick per
    access, so op indices double as intra-thread ordering.
    """

    def __init__(self, max_races: int = 16) -> None:
        self._vc: dict = {}  # tid -> {tid -> clock}
        self._sync: dict = {}  # sync object -> {tid -> clock}
        self._words: dict = {}  # word -> _WordState
        self._max_races = max_races
        self.report = RaceReport()

    # -- clock plumbing ------------------------------------------------
    def _clock(self, tid: int) -> dict:
        vc = self._vc.get(tid)
        if vc is None:
            vc = {tid: 0}
            self._vc[tid] = vc
        return vc

    def _tick(self, tid: int) -> int:
        vc = self._clock(tid)
        vc[tid] += 1
        return vc[tid]

    def acquire(self, tid: int, obj) -> None:
        """Join the releasing clock of ``obj`` into ``tid``'s clock."""
        vc = self._clock(tid)
        for other, clock in self._sync.get(obj, {}).items():
            if clock > vc.get(other, 0):
                vc[other] = clock
        vc[tid] += 1

    def release(self, tid: int, obj) -> None:
        """Publish ``tid``'s clock on ``obj`` for later acquirers."""
        vc = self._clock(tid)
        vc[tid] += 1
        published = self._sync.setdefault(obj, {})
        for other, clock in vc.items():
            if clock > published.get(other, 0):
                published[other] = clock

    # -- access recording ----------------------------------------------
    def _race(self, word: int, prior: tuple, tid: int, op: int, kind: str) -> None:
        if len(self.report.races) >= self._max_races:
            self.report.truncated = True
            return
        self.report.races.append(
            Race(
                word,
                RaceAccess(prior[0], prior[2], prior[3]),
                RaceAccess(tid, op, kind),
            )
        )

    def _word(self, word: int) -> _WordState:
        state = self._words.get(word)
        if state is None:
            state = _WordState()
            self._words[word] = state
        return state

    def read(self, tid: int, addr: int, size: int, op_index: int) -> None:
        """A read of ``[addr, addr + size)`` by ``tid``."""
        vc = self._clock(tid)
        clock = self._tick(tid)
        self.report.accesses += 1
        word = align_down(addr, WORD_SIZE)
        end = addr + size
        while word < end:
            state = self._word(word)
            prior = state.write
            if prior is not None and prior[0] != tid and prior[1] > vc.get(prior[0], 0):
                self._race(word, prior, tid, op_index, "read")
            state.reads[tid] = (clock, op_index)
            word += WORD_SIZE

    def write(
        self, tid: int, addr: int, size: int, op_index: int, kind: str = "write"
    ) -> None:
        """A write of ``[addr, addr + size)`` by ``tid``."""
        vc = self._clock(tid)
        clock = self._tick(tid)
        self.report.accesses += 1
        word = align_down(addr, WORD_SIZE)
        end = addr + size
        while word < end:
            state = self._word(word)
            prior = state.write
            if prior is not None and prior[0] != tid and prior[1] > vc.get(prior[0], 0):
                self._race(word, prior, tid, op_index, kind)
            else:
                for rtid, (rclock, rop) in state.reads.items():
                    if rtid != tid and rclock > vc.get(rtid, 0):
                        self._race(word, (rtid, rclock, rop, "read"), tid, op_index, kind)
                        break
            state.write = (tid, clock, op_index, kind)
            state.reads.clear()
            word += WORD_SIZE

    def finish(self) -> RaceReport:
        self.report.words_tracked = len(self._words)
        return self.report


def detect_races(trace: CompiledTrace, max_races: int = 16) -> RaceReport:
    """Run the detector over every thread of a compiled trace.

    Each thread's columns are walked once, in op order (intra-thread
    program order is the only ordering edge compiled traces carry).
    Transaction boundaries are *not* treated as synchronization: the
    designs under study order persists, they do not provide isolation,
    so two threads writing one word remains a race even inside
    transactions.
    """
    detector = RaceDetector(max_races=max_races)
    for tid, col in enumerate(trace.thread_cols):
        for i, kind, a, b in col.iter_ops():
            if kind == K_READ:
                detector.read(tid, a, b, i)
            elif kind == K_WRITE:
                for _j, addr, length, _sym in col.write_pieces(a, b):
                    detector.write(tid, addr, length, i)
            elif kind == K_FREE:
                # Freeing returns the block to the shared allocator; the
                # *allocation* path is runtime-synchronized, but a free
                # racing an access from another thread is still a bug.
                detector.write(tid, a, b, i, kind="free")
            elif kind in (K_TX_BEGIN, K_TX_COMMIT):
                # Advance the clock so op indices stay monotone ticks.
                detector._tick(tid)
    return detector.finish()
