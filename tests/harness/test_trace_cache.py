"""Trace-cache behaviour of the sweep engine.

The sweep compiles each (benchmark, threads) pair once and replays it
per design cell; the compiled trace is memoised in-process and
persisted to disk, so a warm sweep skips workload preparation
entirely.  Replayed cells must equal interpreted runs of
the same cells.
"""

import dataclasses

import pytest

from repro.harness.cache import TraceCache, shared_trace_cache
from repro.harness.runner import RunConfig, prepare_workload, run_workload
from repro.harness.sweep import run_micro_sweep
from repro.workloads import make_microbenchmark

MATRIX = dict(benchmarks=("hash",), threads=(1, 2), txns_per_thread=10)


def _snapshot(result):
    return {
        (cell.benchmark, cell.threads, cell.policy.value): dataclasses.asdict(stats)
        for cell, stats in result.cells.items()
    }


def test_traced_sweep_matches_interpreted(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    result = run_micro_sweep(**MATRIX)
    traced = _snapshot(result)
    prepared = prepare_workload(make_microbenchmark("hash", seed=42))
    interpreted = {}
    for cell in result.cells:
        run = RunConfig(
            policy=cell.policy,
            threads=cell.threads,
            txns_per_thread=MATRIX["txns_per_thread"],
        )
        outcome = run_workload(prepared.workload, run, prepared=prepared)
        outcome.machine.nvram.recycle()
        interpreted[(cell.benchmark, cell.threads, cell.policy.value)] = (
            dataclasses.asdict(outcome.stats)
        )
    assert traced == interpreted


def test_warm_sweep_hits_trace_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = shared_trace_cache()
    cold_misses = cache.misses
    # seed=9 keeps this matrix distinct from other tests sharing the
    # process-wide memo, so the first sweep really is cold.
    first = _snapshot(run_micro_sweep(**MATRIX, seed=9))
    assert cache.misses > cold_misses  # compiled at least once
    warm_hits = cache.hits
    second = _snapshot(run_micro_sweep(**MATRIX, seed=9))
    assert cache.hits > warm_hits  # second sweep replayed from cache
    assert first == second


def test_trace_hits_skip_preparation(tmp_path, monkeypatch):
    """One trace lookup per (benchmark, threads) pair per sweep, and a
    benchmark whose traces all hit is never prepared."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = shared_trace_cache()
    first = _snapshot(run_micro_sweep(**MATRIX, seed=13))

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("prepared a benchmark whose traces all hit")

    monkeypatch.setattr("repro.harness.sweep.prepare_workload", boom)
    hits, misses = cache.hits, cache.misses
    second = _snapshot(run_micro_sweep(**MATRIX, seed=13))
    assert (cache.hits - hits, cache.misses - misses) == (2, 0)
    assert second == first


def test_trace_cache_disk_roundtrip_and_corruption(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.harness.runner import prepare_workload
    from repro.sim.replay import compile_trace
    from repro.workloads.hashtable import HashTableWorkload
    from tests.conftest import tiny_system

    prepared = prepare_workload(
        HashTableWorkload(seed=3, buckets_per_partition=8, keys_per_partition=32),
        tiny_system(),
    )
    trace = compile_trace(prepared, 1, 4)
    cache = TraceCache(tmp_path)
    key = cache.key(prepared.system, prepared.workload, 1, 4)
    assert cache.get(key) is None
    cache.put(key, trace)
    # A fresh cache (empty memo) must decode from disk.
    fresh = TraceCache(tmp_path)
    loaded = fresh.get(key)
    assert loaded is not None and loaded.op_count() == trace.op_count()
    # Corrupt file: counted, dropped, treated as a miss.
    path = fresh._path(key)
    path.write_bytes(b"garbage")
    broken = TraceCache(tmp_path)
    assert broken.get(key) is None
    assert broken.corrupt == 1


def test_blob_checksum_catches_bit_flips_and_truncation(tmp_path):
    """The CRC32 trailer on `CTRC0001` blobs: a single flipped byte or a
    truncated file must fail decode loudly (ValueError) instead of
    yielding a silently-wrong trace or a deep zlib crash."""
    from repro.harness.runner import prepare_workload
    from repro.sim.ctrace import CompiledTrace
    from repro.sim.replay import compile_trace
    from repro.workloads.hashtable import HashTableWorkload
    from tests.conftest import tiny_system

    prepared = prepare_workload(
        HashTableWorkload(seed=4, buckets_per_partition=8, keys_per_partition=32),
        tiny_system(),
    )
    trace = compile_trace(prepared, 1, 4)
    blob = trace.to_bytes()
    # Round trip is intact.
    assert CompiledTrace.from_bytes(blob).op_count() == trace.op_count()
    # Flip one byte mid-blob: checksum mismatch.
    flipped = bytearray(blob)
    flipped[len(flipped) // 2] ^= 0x40
    with pytest.raises(ValueError, match="checksum mismatch"):
        CompiledTrace.from_bytes(bytes(flipped))
    # Drop the tail: truncation is caught before any parsing.
    with pytest.raises(ValueError):
        CompiledTrace.from_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError, match="truncated"):
        CompiledTrace.from_bytes(blob[:10])


def test_corrupt_disk_entry_warns_and_recompiles(tmp_path, monkeypatch, capsys):
    """A bit-flipped on-disk entry is a counted miss with a stderr
    warning — the sweep recompiles instead of crashing or replaying a
    wrong trace."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.harness.runner import prepare_workload
    from repro.sim.replay import compile_trace
    from repro.workloads.hashtable import HashTableWorkload
    from tests.conftest import tiny_system

    prepared = prepare_workload(
        HashTableWorkload(seed=5, buckets_per_partition=8, keys_per_partition=32),
        tiny_system(),
    )
    trace = compile_trace(prepared, 1, 4)
    cache = TraceCache(tmp_path)
    key = cache.key(prepared.system, prepared.workload, 1, 4)
    cache.put(key, trace)
    path = cache._path(key)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    broken = TraceCache(tmp_path)  # fresh memo: must hit the disk
    assert broken.get(key) is None
    assert broken.corrupt == 1 and broken.misses == 1
    err = capsys.readouterr().err
    assert "corrupt trace-cache entry" in err and "recompiling" in err
    assert "corrupt entr(ies) recompiled" in broken.summary()
    # Recompile-and-put heals the entry for the next reader.
    broken.put(key, trace)
    healed = TraceCache(tmp_path)
    assert healed.get(key) is not None


def test_trace_key_ignores_design(tmp_path):
    from repro.harness.runner import prepare_workload
    from repro.workloads.hashtable import HashTableWorkload
    from tests.conftest import tiny_system

    workload = HashTableWorkload(seed=3)
    system = tiny_system()
    cache = TraceCache(tmp_path)
    assert cache.key(system, workload, 2, 10) == cache.key(system, workload, 2, 10)
    assert cache.key(system, workload, 2, 10) != cache.key(system, workload, 4, 10)
    assert cache.key(system, workload, 2, 10) != cache.key(system, workload, 2, 20)


def test_trace_key_folds_in_the_recording_code(tmp_path, monkeypatch):
    """Keys are stable within a process, start with the package's code
    digest (computed once per process) and move with it."""
    from repro.harness import cache as cache_module
    from repro.workloads.hashtable import HashTableWorkload
    from tests.conftest import tiny_system

    workload = HashTableWorkload(seed=3)
    system = tiny_system()
    cache = TraceCache(tmp_path)
    key = cache.key(system, workload, 2, 10)
    assert TraceCache(tmp_path).key(system, workload, 2, 10) == key
    assert key.startswith(cache_module.code_digest()[:16] + "-")
    monkeypatch.setattr(cache_module, "code_digest", lambda: "e" * 64)
    assert cache.key(system, workload, 2, 10) != key


def test_edited_recording_code_recompiles_instead_of_reading_the_old_trace(
    tmp_path, monkeypatch
):
    """A ``.ctrace`` written by other code is never served: once the code
    digest changes, ``compiled_trace`` prepares and compiles again
    rather than decoding the old file."""
    from repro.harness import cache as cache_module
    from repro.harness.cache import compiled_trace
    from repro.harness.runner import Preparation
    from repro.workloads.hashtable import HashTableWorkload
    from tests.conftest import tiny_system

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    system = tiny_system()
    workload = HashTableWorkload(seed=6, buckets_per_partition=8, keys_per_partition=32)
    preparations = []

    def prepare():
        preparations.append(None)
        return Preparation(workload, system)()

    def lookup():
        # A fresh process-wide cache: an empty memo, so only the disk can hit.
        monkeypatch.setattr(cache_module, "_SHARED_TRACE_CACHE", None)
        return compiled_trace(workload, system, 1, 4, prepare)

    first = lookup()
    assert len(preparations) == 1 and len(list(tmp_path.glob("*.ctrace"))) == 1
    assert lookup().op_count() == first.op_count()
    assert len(preparations) == 1  # served from the disk
    monkeypatch.setattr(cache_module, "code_digest", lambda: "e" * 64)
    lookup()
    assert len(preparations) == 2  # recompiled, the old file unread
    assert len(list(tmp_path.glob("*.ctrace"))) == 2
