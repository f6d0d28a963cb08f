"""Content-addressed on-disk caches of sweep results and compiled traces.

A sweep cell's :class:`~repro.sim.stats.MachineStats` is a pure function
of its configuration and of the code that simulates it: the simulator is
deterministic, so (system config, design-spec mechanisms, workload
identity, thread count, transactions per thread) fully determines the
outcome of one version of the code.  :class:`SweepCache` exploits that
by storing each cell's stats as one JSON file named by the SHA-256 of a
canonical encoding of exactly those inputs — repeated figure or
validation runs then skip every already-computed cell.

Keys hash the design's *mechanism fields*
(:meth:`~repro.core.design.DesignSpec.key_material`), not its display
name: a custom ablation spec that happens to share mechanisms with a
canonical design (e.g. ``hw+undo+redo+fwb`` vs ``fwb``) shares its cache
entries, while specs differing in any single mechanism — even just the
write-back discipline — can never collide.

Invalidation is by construction.  Any change to the key inputs
(including the workload's public attributes, via
:meth:`~repro.workloads.base.Workload.identity_key`) produces a different
hash, and every entry's file name starts with :func:`code_digest`, a
hash of every ``.py`` file in the package: an entry written by other
code is never read, and ``repro cache prune`` deletes it.

This module also hosts :class:`TraceCache`, the compiled-trace store
used by the trace-replay execution engine (:mod:`repro.sim.replay`).
Unlike the result cache it is an *engine* detail — it changes how a cell
is executed, never what its stats are — so it is on by default and keyed
**without** the design (one trace serves every design cell).
:func:`compiled_trace` is the one way a run gets its trace: sweep
cells, psan, pstatic and the crash campaigns all look it up there.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache directory (default ``.repro_cache`` in the
  current working directory);
* ``REPRO_TRACE_CACHE=0`` — skip the trace engine's on-disk store
  (traces are still compiled once per process and memoised in memory).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
import zlib
from pathlib import Path
from typing import Optional

from ..core.design import resolve_design
from ..sim.config import SystemConfig
from ..sim.stats import MachineStats
from ..workloads.base import Workload

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_TRACE_CACHE = "REPRO_TRACE_CACHE"

_STATS_FIELDS = {f.name for f in dataclasses.fields(MachineStats)}
_INT_KEY_FIELDS = ("per_core_instructions", "per_core_cycles")

#: What reading back an entry raises when its file is torn, truncated,
#: bit-rotten or of another format.
_UNREADABLE = (OSError, ValueError, KeyError, TypeError, zlib.error)


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """sha256 of every ``.py`` file in the ``repro`` package, computed
    once per process: each file's package-relative path and contents,
    sorted by path.  Every cache entry's name starts with it."""
    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    sources = sorted(path.relative_to(package).as_posix() for path in package.rglob("*.py"))
    for source in sources:
        digest.update(source.encode() + b"\0")
        digest.update(hashlib.sha256((package / source).read_bytes()).digest())
    return digest.hexdigest()


def _entry_prefix() -> str:
    return f"{code_digest()[:16]}-"


def _entry_key(**material) -> str:
    """``<code digest[:16]>-<sha256 of the canonical material>``."""
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return _entry_prefix() + hashlib.sha256(canonical.encode()).hexdigest()


def default_cache_dir() -> Path:
    """Cache directory: ``REPRO_CACHE_DIR`` or ``.repro_cache``."""
    return Path(os.environ.get(ENV_CACHE_DIR, ".repro_cache"))


def stats_to_dict(stats: MachineStats) -> dict:
    """Encode stats as a JSON-ready dict."""
    return dataclasses.asdict(stats)


def stats_from_dict(data: dict) -> MachineStats:
    """Rebuild :class:`MachineStats` from :func:`stats_to_dict` output.

    JSON turns the per-core dicts' int keys into strings; they are
    converted back so round-tripped stats compare equal to the originals.
    Unknown keys are ignored.
    """
    fields = {key: value for key, value in data.items() if key in _STATS_FIELDS}
    for name in _INT_KEY_FIELDS:
        if name in fields:
            fields[name] = {int(core): v for core, v in fields[name].items()}
    return MachineStats(**fields)


class _DiskCache:
    """One directory of ``<key><suffix>`` entries with hit/miss/store
    counters.  Subclasses name their entries (``suffix``), encode and
    decode them, and word their reports (``kind``, ``made``, ``redoing``,
    ``redone``).

    The directory defaults to the *current* environment on every access
    (not frozen at construction): the process-wide trace cache outlives
    environment changes made by tests and CLIs.
    """

    suffix = ""
    kind = ""
    made = ""
    redoing = ""
    redone = ""

    def __init__(self, directory: Optional[Path] = None) -> None:
        self._directory = Path(directory) if directory is not None else None
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    @property
    def directory(self) -> Path:
        return self._directory if self._directory is not None else default_cache_dir()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}{self.suffix}"

    @staticmethod
    def _decode(blob: bytes):
        raise NotImplementedError

    def get(self, key: str):
        """The entry stored under ``key``, or None (counted as hit/miss).

        An entry that exists but does not read back (torn write,
        truncation, bit rot) is additionally counted in ``corrupt`` and
        reported on stderr — silently recomputing hides that the cache is
        rotting — then treated as a miss; the fresh result overwrites it.
        """
        path = self._path(key)
        try:
            entry = self._decode(path.read_bytes())
        except FileNotFoundError:
            self.misses += 1
            return None
        except _UNREADABLE as exc:
            self.corrupt += 1
            self.misses += 1
            print(
                f"warning: corrupt {self.kind}-cache entry {path.name}: {exc!r}; "
                f"{self.redoing}",
                file=sys.stderr,
            )
            return None
        self.hits += 1
        return entry

    def _write(self, key: str, blob: bytes) -> None:
        """Store ``blob`` under ``key`` (atomic rename, parallel-safe)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_bytes(blob)
        os.replace(tmp, path)

    def prune(self, dry_run: bool = False) -> dict:
        """Delete the entries that other code wrote (their name lacks
        this code's digest) or that no longer read back: neither can be
        served again.  ``dry_run`` counts without deleting (``repro
        cache stats``).  Returns ``{"scanned", "stale", "removed",
        "kept", "bytes"}``."""
        counts = dict.fromkeys(("scanned", "stale", "removed", "kept", "bytes"), 0)
        if not self.directory.is_dir():
            return counts
        prefix = _entry_prefix()
        for path in sorted(self.directory.glob(f"*{self.suffix}")):
            counts["scanned"] += 1
            try:
                blob = path.read_bytes()
                counts["bytes"] += len(blob)
                if path.name.startswith(prefix):
                    self._decode(blob)
                    counts["kept"] += 1
                    continue
            except _UNREADABLE:
                pass
            counts["stale"] += 1
            if not dry_run:
                try:
                    path.unlink()
                    counts["removed"] += 1
                except OSError:
                    pass
        return counts

    def summary(self) -> str:
        """One-line counter summary for CLI output."""
        line = (
            f"{self.kind} cache: {self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} {self.made}"
        )
        if self.corrupt:
            line += f", {self.corrupt} corrupt entr(ies) {self.redone}"
        return f"{line} ({self.directory})"


class SweepCache(_DiskCache):
    """On-disk sweep result cache.

    One instance is typically shared across a whole sweep (or several);
    the counters accumulate so CLI entry points can report how much work
    the cache absorbed.
    """

    suffix = ".json"
    kind = "sweep"
    made = "stored"
    redoing = "recomputing"
    redone = "recomputed"

    def key(
        self,
        system: SystemConfig,
        policy,
        workload: Workload,
        threads: int,
        txns_per_thread: int,
    ) -> str:
        """Content hash of everything that determines a cell's stats.

        ``policy`` is a :class:`~repro.core.design.DesignSpec` or a
        design string; the hash covers its mechanism fields, never its
        display name.
        """
        return _entry_key(
            system=dataclasses.asdict(system),
            design=resolve_design(policy).key_material(),
            workload=workload.identity_key(),
            threads=threads,
            txns_per_thread=txns_per_thread,
        )

    @staticmethod
    def _decode(blob: bytes) -> MachineStats:
        return stats_from_dict(json.loads(blob)["stats"])

    def put(self, key: str, stats: MachineStats) -> None:
        """Store ``stats`` under ``key``."""
        self._write(key, json.dumps({"stats": stats_to_dict(stats)}).encode())
        self.stores += 1


class TraceCache(_DiskCache):
    """Two-level store of compiled workload traces.

    Level 1 is an in-process LRU memo (a ``repro bench`` run repeats each
    suite several times; repeats skip even the disk decode), level 2 a
    directory of ``.ctrace`` files written by the
    :meth:`~repro.sim.ctrace.CompiledTrace.to_bytes` codec.  Keys cover
    system config, workload identity, thread count and transactions per
    thread — **not** the design: the whole point of the engine is that
    one trace replays under every design cell.
    """

    MEMO_ENTRIES = 8
    suffix = ".ctrace"
    kind = "trace"
    made = "compiled"
    redoing = "recompiling"
    redone = "recompiled"

    def __init__(
        self, directory: Optional[Path] = None, use_disk: Optional[bool] = None
    ) -> None:
        super().__init__(directory)
        self._use_disk = use_disk
        self._memo: "dict[str, object]" = {}

    @property
    def use_disk(self) -> bool:
        """As constructed, else False when ``REPRO_TRACE_CACHE`` is set
        to an off value."""
        if self._use_disk is not None:
            return self._use_disk
        return os.environ.get(ENV_TRACE_CACHE, "1").lower() not in ("0", "off", "no", "false")

    def key(
        self,
        system: SystemConfig,
        workload: Workload,
        threads: int,
        txns_per_thread: int,
    ) -> str:
        """Content hash of everything that determines the recorded trace."""
        return _entry_key(
            system=dataclasses.asdict(system),
            workload=workload.identity_key(),
            threads=threads,
            txns_per_thread=txns_per_thread,
        )

    @staticmethod
    def _decode(blob: bytes):
        from ..sim.ctrace import CompiledTrace

        return CompiledTrace.from_bytes(blob)

    def get(self, key: str):
        """Cached :class:`~repro.sim.ctrace.CompiledTrace` or None."""
        trace = self._memo.get(key)
        if trace is not None:
            # Re-insert to keep LRU order (dicts preserve insertion order).
            self._memo.pop(key)
            self._memo[key] = trace
            self.hits += 1
            return trace
        if not self.use_disk:
            self.misses += 1
            return None
        trace = super().get(key)
        if trace is not None:
            self._remember(key, trace)
        return trace

    def put(self, key: str, trace) -> None:
        """Store a compiled trace (memo always; disk when enabled)."""
        self._remember(key, trace)
        self.stores += 1
        if self.use_disk:
            self._write(key, trace.to_bytes())

    def _remember(self, key: str, trace) -> None:
        self._memo.pop(key, None)
        self._memo[key] = trace
        while len(self._memo) > self.MEMO_ENTRIES:
            self._memo.pop(next(iter(self._memo)))


#: Process-wide trace cache shared by every sweep in this process (the
#: in-memory memo is what makes bench repeats and multi-figure CLI runs
#: skip recompilation).
_SHARED_TRACE_CACHE: Optional[TraceCache] = None


def shared_trace_cache() -> TraceCache:
    """The process-wide :class:`TraceCache` (created on first use)."""
    global _SHARED_TRACE_CACHE
    if _SHARED_TRACE_CACHE is None:
        _SHARED_TRACE_CACHE = TraceCache()
    return _SHARED_TRACE_CACHE


def peek_trace_cache() -> Optional[TraceCache]:
    """The shared trace cache if one exists, without creating it.

    CLI reporting uses this so that commands which never compiled a
    trace don't print (or instantiate) an idle cache.
    """
    return _SHARED_TRACE_CACHE


def compiled_trace(
    workload: Workload,
    system: SystemConfig,
    threads: int,
    txns_per_thread: int,
    prepare,
):
    """The compiled trace of one ``(workload, threads)`` cell.

    One lookup in the shared trace cache; on a miss the trace is
    compiled from ``prepare()`` — a :class:`~repro.harness.runner
    .PreparedWorkload` of ``workload`` on ``system`` — and stored.
    ``prepare`` is called only on a miss, so a workload whose traces
    all hit is never prepared.
    """
    from ..sim.replay import compile_trace

    cache = shared_trace_cache()
    key = cache.key(system, workload, threads, txns_per_thread)
    trace = cache.get(key)
    if trace is None:
        trace = compile_trace(prepare(), threads, txns_per_thread)
        cache.put(key, trace)
    return trace
