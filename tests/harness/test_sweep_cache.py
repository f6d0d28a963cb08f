"""Sweep result cache: keys, round-trips, invalidation, sweep wiring."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.design import FWB, NON_PERS
from repro.harness import cache as cache_module
from repro.harness.cache import (
    SweepCache,
    TraceCache,
    stats_from_dict,
    stats_to_dict,
)
from repro.harness.runner import default_experiment_config
from repro.harness.sweep import SweepResult, run_micro_sweep
from repro.sim.stats import MachineStats
from repro.workloads.hashtable import HashTableWorkload
from tests.conftest import tiny_system

POLICIES = (NON_PERS, FWB)


def small_workload(seed=1, **overrides):
    params = dict(buckets_per_partition=16, keys_per_partition=64)
    params.update(overrides)
    return HashTableWorkload(seed=seed, **params)


def small_factory(name):
    return small_workload()


def sweep_kwargs(**overrides):
    kw = dict(
        benchmarks=("hash",),
        threads=(1,),
        policies=POLICIES,
        txns_per_thread=20,
        system=tiny_system(),
        workload_factory=small_factory,
    )
    kw.update(overrides)
    return kw


def sample_stats():
    return MachineStats(
        instructions=1234,
        cycles=5678.5,
        transactions_committed=20,
        nvram_write_bytes=4096,
        energy_nvram_pj=12.25,
        per_core_instructions={0: 600, 1: 634},
        per_core_cycles={0: 2800.25, 1: 2878.25},
    )


class TestStatsRoundTrip:
    def test_json_round_trip_is_equal(self):
        stats = sample_stats()
        wire = json.loads(json.dumps(stats_to_dict(stats)))
        assert stats_from_dict(wire) == stats

    def test_per_core_keys_restored_as_ints(self):
        wire = json.loads(json.dumps(stats_to_dict(sample_stats())))
        assert list(wire["per_core_instructions"]) == ["0", "1"]  # JSON stringifies
        restored = stats_from_dict(wire)
        assert list(restored.per_core_instructions) == [0, 1]
        assert list(restored.per_core_cycles) == [0, 1]

    def test_unknown_fields_ignored(self):
        wire = stats_to_dict(sample_stats())
        wire["field_from_the_future"] = 7
        assert stats_from_dict(wire) == sample_stats()


class TestSweepCacheKeys:
    def setup_method(self):
        self.system = default_experiment_config()
        self.cache = SweepCache("unused")

    def base_key(self, **overrides):
        params = dict(
            system=self.system,
            policy=FWB,
            workload=small_workload(),
            threads=1,
            txns_per_thread=20,
        )
        params.update(overrides)
        return self.cache.key(
            params["system"],
            params["policy"],
            params["workload"],
            params["threads"],
            params["txns_per_thread"],
        )

    def test_key_is_stable(self):
        assert self.base_key() == self.base_key()

    def test_key_covers_every_input(self):
        base = self.base_key()
        assert self.base_key(policy=NON_PERS) != base
        assert self.base_key(threads=2) != base
        assert self.base_key(txns_per_thread=21) != base
        assert self.base_key(workload=small_workload(seed=2)) != base
        assert self.base_key(workload=small_workload(keys_per_partition=65)) != base
        assert (
            self.base_key(system=self.system.scaled(num_cores=4)) != base
        )

    def test_key_uses_design_mechanisms_not_name(self):
        # A canonical design and an anonymous spec with identical
        # mechanisms must share entries: same simulation, same stats.
        from repro.core.design import parse_design

        assert self.base_key(policy=parse_design("hw+undo+redo+fwb")) == self.base_key()

    def test_specs_differing_only_in_writeback_never_collide(self):
        from repro.core.design import parse_design

        clwb = self.base_key(policy=parse_design("hw+undo+redo+clwb"))
        fwb = self.base_key(policy=parse_design("hw+undo+redo+fwb"))
        nowb = self.base_key(policy=parse_design("hw+undo+redo+nowb"))
        assert len({clwb, fwb, nowb}) == 3

    def test_custom_spec_string_key_matches_spec_key(self):
        assert self.base_key(policy="hw+undo+redo+fwb") == self.base_key()

    def test_salt_bump_invalidates(self, monkeypatch):
        """The code digest salts every key: other code, other keys."""
        base = self.base_key()
        assert base.startswith(cache_module.code_digest()[:16] + "-")
        monkeypatch.setattr(cache_module, "code_digest", lambda: "e" * 64)
        assert self.base_key() != base
        assert self.base_key().startswith("e" * 16 + "-")


PACKAGE = Path(cache_module.__file__).resolve().parent.parent


class TestCodeDigest:
    def test_is_computed_once_per_process(self):
        assert cache_module.code_digest() is cache_module.code_digest()

    def test_covers_every_source_of_the_package(self, monkeypatch):
        """Appending one byte to any ``.py`` file of the package — the
        recorder's helpers, the runtime, the runner and the device
        included — moves the digest."""
        sources = sorted(PACKAGE.rglob("*.py"))
        names = {path.relative_to(PACKAGE).as_posix() for path in sources}
        assert {"utils.py", "txn/runtime.py", "harness/runner.py", "sim/nvram.py"} <= names
        digest = cache_module.code_digest.__wrapped__
        before = digest()
        read_bytes = Path.read_bytes
        for source in sources:
            monkeypatch.setattr(
                Path,
                "read_bytes",
                lambda path, edited=source: read_bytes(path) + (b"#" if path == edited else b""),
            )
            assert digest() != before, source


class TestSweepCacheStore:
    def test_get_put_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = "k" * 64
        assert cache.get(key) is None
        cache.put(key, sample_stats())
        assert cache.get(key) == sample_stats()
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path, capsys):
        cache = SweepCache(tmp_path)
        key = "k" * 64
        cache.put(key, sample_stats())
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.get(key) is None
        assert cache.misses == 1
        assert cache.corrupt == 1
        assert "corrupt sweep-cache entry" in capsys.readouterr().err
        # A fresh store overwrites the rotten entry and serves again.
        cache.put(key, sample_stats())
        assert cache.get(key) == sample_stats()
        assert cache.corrupt == 1
        assert "corrupt entr" in cache.summary()

    def test_truncated_entry_counts_corrupt(self, tmp_path, capsys):
        # Torn write: valid JSON but the stats payload is missing.
        cache = SweepCache(tmp_path)
        key = "t" * 64
        (tmp_path / f"{key}.json").write_text('{"salt": "sweep-v1"}')
        assert cache.get(key) is None
        assert (cache.corrupt, cache.misses) == (1, 1)
        assert "recomputing" in capsys.readouterr().err

    def test_plain_miss_is_not_corrupt(self, tmp_path, capsys):
        cache = SweepCache(tmp_path)
        assert cache.get("m" * 64) is None
        assert (cache.corrupt, cache.misses) == (0, 1)
        assert capsys.readouterr().err == ""
        assert "corrupt entr" not in cache.summary()


class TestSweepWithCache:
    def test_cold_then_warm(self, tmp_path):
        cache = SweepCache(tmp_path)
        cold = run_micro_sweep(**sweep_kwargs(), cache=cache)
        assert cache.hits == 0
        assert cache.misses == len(cold.cells)
        assert cache.stores == len(cold.cells)
        warm = run_micro_sweep(**sweep_kwargs(), cache=cache)
        assert cache.hits == len(cold.cells)
        assert warm.cells == cold.cells
        assert list(warm.cells) == list(cold.cells)  # canonical order kept

    def test_full_hit_skips_preparation(self, tmp_path, monkeypatch):
        cache = SweepCache(tmp_path)
        run_micro_sweep(**sweep_kwargs(), cache=cache)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("prepare_workload called on a fully cached sweep")

        monkeypatch.setattr("repro.harness.sweep.prepare_workload", boom)
        warm = run_micro_sweep(**sweep_kwargs(), cache=cache)
        assert len(warm.cells) == len(POLICIES)

    def test_cached_equals_uncached(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_micro_sweep(**sweep_kwargs(), cache=cache)
        cached = run_micro_sweep(**sweep_kwargs(), cache=cache)
        plain = run_micro_sweep(**sweep_kwargs())
        assert cached.cells == plain.cells

    def test_entry_of_other_code_is_not_served(self, tmp_path, monkeypatch):
        """An entry stored before the code changed is never read after it:
        the sweep recomputes every cell and stores it anew."""
        cache = SweepCache(tmp_path)
        cold = run_micro_sweep(**sweep_kwargs(), cache=cache)
        monkeypatch.setattr(cache_module, "code_digest", lambda: "e" * 64)
        cache.hits = cache.misses = cache.stores = 0
        edited = run_micro_sweep(**sweep_kwargs(), cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (0, len(POLICIES), len(POLICIES))
        assert edited.cells == cold.cells
        assert len(list(tmp_path.glob("*.json"))) == 2 * len(POLICIES)

    def test_parameter_change_misses(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_micro_sweep(**sweep_kwargs(), cache=cache)
        cache.hits = cache.misses = 0
        run_micro_sweep(**sweep_kwargs(txns_per_thread=21), cache=cache)
        assert cache.hits == 0
        assert cache.misses == len(POLICIES)

    def test_writeback_variants_miss_each_others_entries(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_micro_sweep(**sweep_kwargs(policies=("hw+undo+redo+clwb",)), cache=cache)
        assert cache.stores == 1
        cache.hits = cache.misses = 0
        run_micro_sweep(**sweep_kwargs(policies=("hw+undo+redo+fwb",)), cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)

    def test_canonical_name_hits_anonymous_entry(self, tmp_path):
        # "fwb" and "hw+undo+redo+fwb" are the same mechanisms; warming
        # the cache under either spelling serves the other.
        cache = SweepCache(tmp_path)
        run_micro_sweep(**sweep_kwargs(policies=("hw+undo+redo+fwb",)), cache=cache)
        cache.hits = cache.misses = 0
        run_micro_sweep(**sweep_kwargs(policies=(FWB,)), cache=cache)
        assert (cache.hits, cache.misses) == (1, 0)


class TestSweepResultMerge:
    def test_merge_combines_and_other_wins(self):
        first = run_micro_sweep(**sweep_kwargs(policies=(NON_PERS,)))
        second = run_micro_sweep(**sweep_kwargs(policies=(FWB,)))
        merged = first.merge(second)
        assert len(merged.cells) == 2
        assert merged.policies() == [NON_PERS, FWB]
        # Overlap: other's cells replace self's.
        cell = next(iter(second.cells))
        fake = dataclasses.replace(second.cells[cell], instructions=1)
        override = SweepResult({cell: fake})
        assert merged.merge(override).cells[cell].instructions == 1
        # Inputs are not mutated.
        assert len(first.cells) == 1 and len(second.cells) == 1


class TestCachePrune:
    """One rule for both caches: delete what other code wrote, or what no
    longer reads back; keep the rest."""

    def fill(self, tmp_path, monkeypatch):
        """A readable result entry and a decodable trace under another
        code digest and under this one, a current result entry that no
        longer reads back, a result entry of the old unprefixed layout
        and a file that is no entry at all.  Returns the caches and the
        current keys."""
        from repro.harness.runner import prepare_workload
        from repro.sim.replay import compile_trace

        system = tiny_system()
        prepared = prepare_workload(small_workload(), system)
        trace = compile_trace(prepared, 1, 4)
        sweep, traces = SweepCache(tmp_path), TraceCache(tmp_path, use_disk=True)
        current = {}
        for digest in (lambda: "0" * 64, cache_module.code_digest):
            monkeypatch.setattr(cache_module, "code_digest", digest)
            current["sweep"] = sweep.key(system, FWB, prepared.workload, 1, 4)
            current["trace"] = traces.key(system, prepared.workload, 1, 4)
            sweep.put(current["sweep"], sample_stats())
            traces.put(current["trace"], trace)
        rotten = sweep.key(system, NON_PERS, prepared.workload, 1, 4)
        (tmp_path / f"{rotten}.json").write_text("{not json")
        (tmp_path / f"{'a' * 64}.json").write_text('{"stats": {}}')
        (tmp_path / "unrelated.txt").write_text("ignore me")
        return sweep, traces, current

    @staticmethod
    def tally(counts):
        return counts["scanned"], counts["stale"], counts["removed"], counts["kept"]

    def test_prune_removes_only_foreign_salt_entries(self, tmp_path, monkeypatch):
        """Entries of another code digest go, readable or not, and so
        does a current entry that no longer reads back."""
        sweep, traces, current = self.fill(tmp_path, monkeypatch)
        assert self.tally(sweep.prune()) == (4, 3, 3, 1)
        assert self.tally(traces.prune()) == (2, 1, 1, 1)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [f"{current['sweep']}.json", f"{current['trace']}.ctrace", "unrelated.txt"]
        )

    def test_dry_run_counts_without_deleting(self, tmp_path, monkeypatch):
        sweep, traces, _current = self.fill(tmp_path, monkeypatch)
        files = sorted(tmp_path.iterdir())
        assert self.tally(sweep.prune(dry_run=True)) == (4, 3, 0, 1)
        assert self.tally(traces.prune(dry_run=True)) == (2, 1, 0, 1)
        assert sorted(tmp_path.iterdir()) == files

    def test_prune_on_missing_directory_is_a_noop(self, tmp_path):
        cache = SweepCache(directory=tmp_path / "never-created")
        assert cache.prune() == {
            "scanned": 0, "stale": 0, "removed": 0, "kept": 0, "bytes": 0,
        }

    def test_pruned_current_entry_still_hits(self, tmp_path, monkeypatch):
        sweep, traces, current = self.fill(tmp_path, monkeypatch)
        sweep.prune()
        traces.prune()
        assert SweepCache(tmp_path).get(current["sweep"]) == sample_stats()
        assert TraceCache(tmp_path, use_disk=True).get(current["trace"]) is not None
