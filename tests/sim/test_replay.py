"""Execution-engine guarantees beyond raw stats equivalence.

* replay reproduces the **full tracer event stream**
  of an interpreted run (time, kind, core, detail — not just counters),
  so every tracer consumer (psan included) sees identical input;
* the persistency-ordering sanitizer reaches the same verdicts (and the
  same diagnostics) over the compiled path;
* the derived read-line column holds the line of every read that stays
  inside one cache line, and -1 for every other op;
* the trace codec and pickling round-trip without changing replay
  behaviour;
* the replay generators drive the shard's own thread APIs: one per
  thread, none built on the side.
"""

import dataclasses
import pickle

import pytest

from repro.core.design import CANONICAL_DESIGNS, FWB, HWL, UNSAFE_BASE
from repro.harness.runner import RunConfig, prepare_workload, run_workload
from repro.sanitizer.checker import PersistOrderChecker
from repro.sim.ctrace import K_READ, SYM_BASE, CompiledTrace
from repro.sim.replay import compile_trace, run_compiled
from repro.sim.trace import Tracer
from repro.txn.runtime import ThreadAPI
from repro.workloads.hashtable import HashTableWorkload
from tests.conftest import tiny_system

THREADS = 2
TXNS = 6


@pytest.fixture(scope="module")
def prepared():
    return prepare_workload(
        HashTableWorkload(seed=11, buckets_per_partition=16, keys_per_partition=64),
        tiny_system(),
    )


@pytest.fixture(scope="module")
def trace(prepared):
    return compile_trace(prepared, THREADS, TXNS)


def _config(design, system):
    return RunConfig(
        policy=design,
        threads=THREADS,
        txns_per_thread=TXNS,
        system=system,
        seed=11,
    )


def _event_tuples(tracer):
    return [
        (event.time, event.kind, event.core, tuple(sorted(event.detail.items())))
        for event in tracer.events()
    ]


class TestEventStreams:
    @pytest.mark.parametrize("design", CANONICAL_DESIGNS, ids=lambda d: d.name)
    def test_tracer_stream_identical(self, prepared, trace, design):
        streams = []
        for runner in ("interpret", "replay"):
            tracer = Tracer()

            def hook(machine):
                machine.tracer = tracer

            config = _config(design, prepared.system)
            if runner == "interpret":
                outcome = run_workload(
                    prepared.workload, config, prepared=prepared, machine_hook=hook
                )
            else:
                outcome = run_compiled(trace, config, machine_hook=hook)
            streams.append((_event_tuples(tracer), dataclasses.asdict(outcome.stats)))
        (events_a, stats_a), (events_b, stats_b) = streams
        assert len(events_a) > 0
        assert events_a == events_b
        assert stats_a == stats_b

    @pytest.mark.parametrize(
        "design", [HWL, FWB, UNSAFE_BASE], ids=lambda d: d.name
    )
    def test_psan_verdicts_identical(self, prepared, trace, design):
        reports = []
        for runner in ("interpret", "replay"):
            holder = {}

            def hook(machine):
                holder["checker"] = PersistOrderChecker.attach(machine)

            config = _config(design, prepared.system)
            if runner == "interpret":
                run_workload(
                    prepared.workload, config, prepared=prepared, machine_hook=hook
                )
            else:
                run_compiled(trace, config, machine_hook=hook)
            reports.append(holder["checker"].finish())
        first, second = reports
        assert first.events_processed == second.events_processed > 0
        assert first.txns_checked == second.txns_checked > 0
        assert first.clean == second.clean
        assert [d.to_dict() for d in first.diagnostics] == [
            d.to_dict() for d in second.diagnostics
        ]


class TestDerivedColumns:
    def test_single_line_reads_are_derived(self, trace):
        line_size = 64
        trace.derive(line_size)
        single = 0
        for col in trace.thread_cols:
            for index, kind, addr, size in col.iter_ops():
                first = addr // line_size * line_size
                last = (addr + size - 1) // line_size * line_size
                if kind == K_READ and 0 <= addr < SYM_BASE and first == last:
                    assert col.read_line[index] == first
                    single += 1
                else:
                    assert col.read_line[index] == -1
        assert single > 0


class TestCodec:
    def test_roundtrips_preserve_replay(self, prepared, trace):
        config = _config(HWL, prepared.system)
        want = dataclasses.asdict(run_compiled(trace, config).stats)
        decoded = CompiledTrace.from_bytes(trace.to_bytes())
        unpickled = pickle.loads(pickle.dumps(trace))
        for clone in (decoded, unpickled):
            assert dataclasses.asdict(run_compiled(clone, config).stats) == want

    def test_codec_structural_identity(self, trace):
        clone = CompiledTrace.from_bytes(trace.to_bytes())
        assert clone.workload_key == trace.workload_key
        assert clone.threads == trace.threads
        assert clone.txns_per_thread == trace.txns_per_thread
        assert clone.op_count() == trace.op_count()
        assert clone.piece_count() == trace.piece_count()
        assert clone.image_prefix == trace.image_prefix
        assert clone.heap_state == trace.heap_state
        for mine, theirs in zip(trace.thread_cols, clone.thread_cols):
            assert mine.column_blobs() == theirs.column_blobs()


class TestThreadAPIs:
    @pytest.mark.parametrize("design", [HWL, FWB, UNSAFE_BASE], ids=lambda d: d.name)
    def test_replay_builds_one_api_per_thread(self, prepared, trace, design, monkeypatch):
        config = _config(design, prepared.system)
        interpreted = run_workload(prepared.workload, config, prepared=prepared)
        built = []
        original = ThreadAPI.__init__

        def counting_init(api, *args, **kwargs):
            original(api, *args, **kwargs)
            built.append(api)

        monkeypatch.setattr(ThreadAPI, "__init__", counting_init)
        replayed = run_compiled(trace, config)
        assert len(built) == THREADS
        assert sorted(api.tid for api in built) == list(range(THREADS))
        assert dataclasses.asdict(replayed.stats) == dataclasses.asdict(interpreted.stats)
        assert replayed.machine.nvram.image == interpreted.machine.nvram.image
