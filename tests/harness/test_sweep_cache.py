"""Sweep result cache: keys, round-trips, invalidation, sweep wiring."""

import dataclasses
import json

import pytest

from repro.core.design import FWB, NON_PERS
from repro.harness.cache import (
    SweepCache,
    cache_enabled,
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

    def test_salt_bump_invalidates(self):
        other = SweepCache("unused", salt="sweep-v2-different")
        assert other.key(
            self.system, FWB, small_workload(), 1, 20
        ) != self.base_key()


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

    def test_clear_removes_entries(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("a" * 64, sample_stats())
        cache.put("b" * 64, sample_stats())
        assert cache.clear() == 2
        assert cache.get("a" * 64) is None

    def test_hit_rate(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.hit_rate == 0.0
        cache.put("a" * 64, sample_stats())
        cache.get("a" * 64)
        cache.get("b" * 64)
        assert cache.hit_rate == 0.5

    def test_env_off_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        assert cache_enabled()
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "0")
        assert not cache_enabled()
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
        assert not cache_enabled()
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "1")
        assert cache_enabled()


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
    def fill(self, tmp_path):
        cache = SweepCache(directory=tmp_path)
        cache.put("k-current", MachineStats())
        stale = SweepCache(directory=tmp_path, salt="sweep-v1")
        stale.put("k-old", MachineStats())
        (tmp_path / "garbage.json").write_text("{not json")
        (tmp_path / "unrelated.txt").write_text("ignore me")
        return cache

    def test_prune_removes_only_foreign_salt_entries(self, tmp_path):
        cache = self.fill(tmp_path)
        summary = cache.prune()
        assert summary == {"scanned": 3, "stale": 2, "removed": 2, "kept": 1}
        remaining = sorted(p.name for p in tmp_path.iterdir())
        assert len([n for n in remaining if n.endswith(".json")]) == 1
        assert "unrelated.txt" in remaining

    def test_dry_run_counts_without_deleting(self, tmp_path):
        cache = self.fill(tmp_path)
        summary = cache.prune(dry_run=True)
        assert summary["stale"] == 2
        assert summary["removed"] == 0
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_prune_on_missing_directory_is_a_noop(self, tmp_path):
        cache = SweepCache(directory=tmp_path / "never-created")
        assert cache.prune() == {
            "scanned": 0, "stale": 0, "removed": 0, "kept": 0,
        }

    def test_pruned_current_entry_still_hits(self, tmp_path):
        cache = self.fill(tmp_path)
        cache.prune()
        assert cache.get("k-current") is not None
