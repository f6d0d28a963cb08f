"""Content-addressed on-disk cache of sweep cell results.

A sweep cell's :class:`~repro.sim.stats.MachineStats` is a pure function
of its configuration: the simulator is deterministic, so (system config,
design-spec mechanisms, workload identity, thread count, transactions per
thread) fully determines the outcome.  :class:`SweepCache` exploits that
by storing each cell's stats as one JSON file named by the SHA-256 of a
canonical encoding of exactly those inputs — repeated figure or
validation runs then skip every already-computed cell.

Keys hash the design's *mechanism fields*
(:meth:`~repro.core.design.DesignSpec.key_material`), not its display
name: a custom ablation spec that happens to share mechanisms with a
canonical design (e.g. ``hw+undo+redo+fwb`` vs ``fwb``) shares its cache
entries, while specs differing in any single mechanism — even just the
write-back discipline — can never collide.

Invalidation is by construction: any change to the key inputs (including
the workload's public attributes, via
:meth:`~repro.workloads.base.Workload.identity_key`) produces a different
hash, and simulator-behaviour changes are handled by bumping
:data:`CODE_SALT`, which is folded into every key.  Trace keys also fold
in :func:`recording_code_digest`, a hash of the code that records a
trace, so an edited workload never replays a trace of its old code.

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
* ``REPRO_SWEEP_CACHE=0`` — disable the result cache even where the CLI
  would turn it on (:func:`cache_enabled`);
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

#: Bump whenever a simulator change alters any cell's stats — every key
#: includes it, so old entries become unreachable (not merely stale).
#: (v2: keys switched from policy names to design-spec mechanisms;
#: v3: instant-commit software redo applies its deferred stores.)
CODE_SALT = "sweep-v3"

#: Bump whenever the recorded column format or recording semantics
#: change; stale ``.ctrace`` files then fail decoding and are recompiled.
#: (v2: CRC32 trailer appended to the blob.)
TRACE_SALT = "ctrace-v2"

#: The sources, relative to the package, whose code decides what a trace
#: records: the workloads' thread bodies and set-up, the heap allocator,
#: the recorder and the column format.
_RECORDING_SOURCES = ("workloads/**/*.py", "txn/heap.py", "sim/replay.py", "sim/ctrace.py")


@functools.lru_cache(maxsize=None)
def recording_code_digest() -> str:
    """sha256 of the sources that record a trace (computed once per
    process): each source's package-relative path and contents, sorted
    by path.  :meth:`TraceCache.key` folds it in."""
    package = Path(__file__).resolve().parent.parent
    sources = sorted(
        {
            path.relative_to(package).as_posix()
            for pattern in _RECORDING_SOURCES
            for path in package.glob(pattern)
        }
    )
    digest = hashlib.sha256()
    for source in sources:
        digest.update(source.encode() + b"\0")
        digest.update(hashlib.sha256((package / source).read_bytes()).digest())
    return digest.hexdigest()


ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_DISABLE = "REPRO_SWEEP_CACHE"
ENV_TRACE_CACHE = "REPRO_TRACE_CACHE"

_STATS_FIELDS = {f.name for f in dataclasses.fields(MachineStats)}
_INT_KEY_FIELDS = ("per_core_instructions", "per_core_cycles")


_OFF_VALUES = ("0", "off", "no", "false")


def cache_enabled() -> bool:
    """False when ``REPRO_SWEEP_CACHE`` is set to an off value."""
    return os.environ.get(ENV_DISABLE, "1").lower() not in _OFF_VALUES


def trace_cache_enabled() -> bool:
    """False when ``REPRO_TRACE_CACHE`` is set to an off value."""
    return os.environ.get(ENV_TRACE_CACHE, "1").lower() not in _OFF_VALUES


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
    Unknown keys are ignored (forward compatibility with entries written
    by a newer field set — the salt guards semantics, not shape).
    """
    fields = {key: value for key, value in data.items() if key in _STATS_FIELDS}
    for name in _INT_KEY_FIELDS:
        if name in fields:
            fields[name] = {int(core): v for core, v in fields[name].items()}
    return MachineStats(**fields)


class SweepCache:
    """On-disk sweep result cache with hit/miss/store counters.

    One instance is typically shared across a whole sweep (or several);
    the counters accumulate so CLI entry points can report how much work
    the cache absorbed.
    """

    def __init__(
        self, directory: Optional[Path] = None, salt: str = CODE_SALT
    ) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
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
        material = {
            "salt": self.salt,
            "system": dataclasses.asdict(system),
            "design": resolve_design(policy).key_material(),
            "workload": workload.identity_key(),
            "threads": threads,
            "txns_per_thread": txns_per_thread,
        }
        canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    # ------------------------------------------------------------------
    # Get / put
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[MachineStats]:
        """Cached stats for ``key``, or None (counted as hit/miss).

        An entry that exists but fails to parse (torn write, truncation,
        bit rot) is additionally counted in ``corrupt`` and reported on
        stderr — silently recomputing hides that the cache is rotting —
        then treated as a miss; the fresh result overwrites it.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            stats = stats_from_dict(payload["stats"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.corrupt += 1
            self.misses += 1
            print(
                f"warning: corrupt sweep-cache entry {path.name}: {exc!r}; "
                "recomputing",
                file=sys.stderr,
            )
            return None
        self.hits += 1
        return stats

    def put(self, key: str, stats: MachineStats) -> None:
        """Store ``stats`` under ``key`` (atomic rename, parallel-safe)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        payload = {"salt": self.salt, "stats": stats_to_dict(stats)}
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
        self.stores += 1

    # ------------------------------------------------------------------
    # Maintenance / reporting
    # ------------------------------------------------------------------
    def prune(self, dry_run: bool = False) -> dict:
        """Delete entries written under a different ``CODE_SALT``.

        Keys fold the salt in, so entries from an older salt (e.g.
        pre-``sweep-v2`` files keyed by policy *names*) can never hit
        again — they are pure dead weight.  Every stored payload also
        records its salt, which is what this scan inspects; entries that
        fail to parse at all are treated as stale too.  ``dry_run``
        counts without deleting.  Returns
        ``{"scanned", "stale", "removed", "kept"}``.
        """
        scanned = stale = removed = 0
        if self.directory.is_dir():
            for path in sorted(self.directory.glob("*.json")):
                scanned += 1
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        entry_salt = json.load(fh).get("salt")
                except (OSError, ValueError):
                    entry_salt = None
                if entry_salt == self.salt:
                    continue
                stale += 1
                if not dry_run:
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return {
            "scanned": scanned,
            "stale": stale,
            "removed": removed,
            "kept": scanned - stale,
        }

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 with no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def summary(self) -> str:
        """One-line counter summary for CLI output."""
        line = (
            f"sweep cache: {self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} stored"
        )
        if self.corrupt:
            line += f", {self.corrupt} corrupt entr(ies) recomputed"
        return f"{line} ({self.directory})"


class TraceCache:
    """Two-level store of compiled workload traces.

    Level 1 is an in-process LRU memo (a ``repro bench`` run repeats each
    suite several times; repeats skip even the disk decode), level 2 a
    directory of ``.ctrace`` files written by the
    :meth:`~repro.sim.ctrace.CompiledTrace.to_bytes` codec.  Keys cover
    system config, workload identity and code
    (:func:`recording_code_digest`), thread count and transactions per
    thread — **not** the design: the whole point of the engine is that
    one trace replays under every design cell.

    Corrupt or format-incompatible files are counted, reported, and
    recompiled, mirroring :class:`SweepCache`.
    """

    MEMO_ENTRIES = 8

    def __init__(
        self,
        directory: Optional[Path] = None,
        salt: str = TRACE_SALT,
        use_disk: Optional[bool] = None,
    ) -> None:
        # Directory and disk-enable default to the *current* environment
        # on every access (not frozen at construction): the process-wide
        # instance outlives environment changes made by tests and CLIs.
        self._directory = Path(directory) if directory is not None else None
        self.salt = salt
        self._use_disk = use_disk
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self._memo: "dict[str, object]" = {}

    @property
    def directory(self) -> Path:
        return self._directory if self._directory is not None else default_cache_dir()

    @property
    def use_disk(self) -> bool:
        return self._use_disk if self._use_disk is not None else trace_cache_enabled()

    def key(
        self,
        system: SystemConfig,
        workload: Workload,
        threads: int,
        txns_per_thread: int,
    ) -> str:
        """Content hash of everything that determines the recorded trace."""
        material = {
            "salt": self.salt,
            "code": recording_code_digest(),
            "system": dataclasses.asdict(system),
            "workload": workload.identity_key(),
            "threads": threads,
            "txns_per_thread": txns_per_thread,
        }
        canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.ctrace"

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
        from ..sim.ctrace import CompiledTrace

        path = self._path(key)
        try:
            blob = path.read_bytes()
            trace = CompiledTrace.from_bytes(blob)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, zlib.error) as exc:
            self.corrupt += 1
            self.misses += 1
            print(
                f"warning: corrupt trace-cache entry {path.name}: {exc!r}; "
                "recompiling",
                file=sys.stderr,
            )
            return None
        self._remember(key, trace)
        self.hits += 1
        return trace

    def put(self, key: str, trace) -> None:
        """Store a compiled trace (memo always; disk when enabled)."""
        self._remember(key, trace)
        self.stores += 1
        if not self.use_disk:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_bytes(trace.to_bytes())
        os.replace(tmp, path)

    def _remember(self, key: str, trace) -> None:
        self._memo.pop(key, None)
        self._memo[key] = trace
        while len(self._memo) > self.MEMO_ENTRIES:
            self._memo.pop(next(iter(self._memo)))

    def summary(self) -> str:
        """One-line counter summary for CLI output."""
        line = (
            f"trace cache: {self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} compiled"
        )
        if self.corrupt:
            line += f", {self.corrupt} corrupt entr(ies) recompiled"
        return f"{line} ({self.directory})"

    def verify_disk(self) -> dict:
        """CRC-verify every on-disk entry (``repro cache stats``).

        Fully decodes each ``.ctrace`` blob — which checks the CRC32
        trailer and the column codec — without touching the memo or the
        hit/miss counters.  Undecodable files are counted as ``stale``,
        not as an error: the salt folds into the cache *key*, so a file
        that fails to decode is either unreachable dead weight from an
        older trace format (the common case after a codec change) or a
        live-key blob that the next ``get`` will transparently recompile
        and overwrite.  Either way nothing is lost — ``prune`` deletes
        them.  Returns ``{scanned, ok, stale, bytes}``.
        """
        counts = {"scanned": 0, "ok": 0, "stale": 0, "bytes": 0}
        if self.directory.is_dir():
            from ..sim.ctrace import CompiledTrace

            for path in sorted(self.directory.glob("*.ctrace")):
                counts["scanned"] += 1
                try:
                    blob = path.read_bytes()
                    counts["bytes"] += len(blob)
                    CompiledTrace.from_bytes(blob)
                except (OSError, ValueError, KeyError, TypeError, zlib.error):
                    counts["stale"] += 1
                else:
                    counts["ok"] += 1
        return counts

    def prune(self, dry_run: bool = False) -> dict:
        """Delete ``.ctrace`` files that no longer decode.

        The trace analogue of :meth:`SweepCache.prune`: because the
        format salt is folded into the key rather than the blob, entries
        written under an older codec linger on disk and fail
        :meth:`~repro.sim.ctrace.CompiledTrace.from_bytes` — they can
        never be served again and are pure dead weight.  ``dry_run``
        counts without deleting.  Returns
        ``{"scanned", "stale", "removed", "kept"}``.
        """
        scanned = stale = removed = 0
        if self.directory.is_dir():
            from ..sim.ctrace import CompiledTrace

            for path in sorted(self.directory.glob("*.ctrace")):
                scanned += 1
                try:
                    CompiledTrace.from_bytes(path.read_bytes())
                except (OSError, ValueError, KeyError, TypeError, zlib.error):
                    stale += 1
                    if not dry_run:
                        try:
                            path.unlink()
                            removed += 1
                        except OSError:
                            pass
        return {
            "scanned": scanned,
            "stale": stale,
            "removed": removed,
            "kept": scanned - stale,
        }


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
