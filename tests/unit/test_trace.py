"""Tests for the optional execution tracer."""

import pytest

from repro import Machine, PersistentMemory
from repro.core.design import FWB
from repro.sim.config import LoggingConfig
from repro.sim.trace import TraceEvent, Tracer
from tests.conftest import tiny_system, word


class TestTracer:
    def test_emit_and_filter(self):
        tracer = Tracer()
        tracer.emit(1.0, "a", 0)
        tracer.emit(2.0, "b", 1, extra=5)
        assert len(tracer) == 2
        assert [e.kind for e in tracer.events()] == ["a", "b"]
        assert tracer.events("b")[0].detail == {"extra": 5}
        assert tracer.counts["a"] == 1

    def test_capacity_bound(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            tracer.emit(float(i), "x", 0)
        assert len(tracer) == 3
        assert tracer.counts["x"] == 10  # counts keep the full tally

    def test_events_are_frozen(self):
        event = TraceEvent(1.0, "a", 0)
        with pytest.raises(AttributeError):
            event.kind = "b"

    def test_kind_strings_are_interned(self):
        tracer = Tracer()
        tracer.emit(1.0, "store" + "x"[:0], 0)  # defeat literal interning
        tracer.emit(2.0, "store", 1)
        first, second = tracer.events()
        assert first.kind is second.kind

    def test_detail_key_may_shadow_parameter_names(self):
        # emit's leading params are positional-only so log records can
        # carry their own `kind` (and `time`, `core`) in detail.
        tracer = Tracer()
        tracer.emit(1.0, "log_place", 0, kind="COMMIT", time=99)
        event = tracer.events()[0]
        assert event.kind == "log_place"
        assert event.detail == {"kind": "COMMIT", "time": 99}

    def test_dropped_counter_and_summary(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            tracer.emit(float(i), "x", 0)
        assert tracer.dropped == 7
        assert "dropped (capacity)" in tracer.summary()
        assert "7" in tracer.summary()

    def test_no_drop_no_summary_line(self):
        tracer = Tracer()
        tracer.emit(1.0, "x", 0)
        assert tracer.dropped == 0
        assert "dropped" not in tracer.summary()

    def test_subscribers_see_evicted_events(self):
        tracer = Tracer(capacity=2)
        seen = []
        tracer.subscribe(seen.append)
        for i in range(5):
            tracer.emit(float(i), "x", 0)
        assert len(seen) == 5  # ring kept 2, listener saw all
        tracer.unsubscribe(seen.append)
        tracer.emit(9.0, "x", 0)
        assert len(seen) == 5

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.emit(1.0, "tx_begin", 0, tid=0, txid=7)
        tracer.emit(2.5, "store", 1, addr=0x1234)
        path = str(tmp_path / "trace.jsonl")
        assert tracer.to_jsonl(path) == 2
        loaded = Tracer.from_jsonl(path)
        assert [
            (e.time, e.kind, e.core, e.detail) for e in loaded.events()
        ] == [
            (1.0, "tx_begin", 0, {"tid": 0, "txid": 7}),
            (2.5, "store", 1, {"addr": 0x1234}),
        ]
        assert loaded.dropped == 0


class TestMachineIntegration:
    def _run(self, logging=None):
        machine = Machine(
            tiny_system(logging=logging or LoggingConfig(log_entries=128)),
            FWB,
        )
        machine.tracer = Tracer()
        pm = PersistentMemory(machine)
        api = pm.api(0)
        addr = pm.heap.alloc(8)
        for value in range(12):
            with api.transaction():
                api.write(addr, word(value))
        return machine

    def test_transactions_traced(self):
        machine = self._run()
        tracer = machine.tracer
        assert tracer.counts["tx_begin"] == 12
        assert tracer.counts["tx_commit"] == 12

    def test_commit_lags_positive_under_fwb(self):
        """Steal-but-no-force: durability trails the instant commit."""
        machine = self._run()
        lags = machine.tracer.commit_lags()
        assert len(lags) == 12
        assert all(lag > 0 for lag in lags)

    def test_wrap_forces_traced_with_tiny_log(self):
        machine = self._run(logging=LoggingConfig(log_entries=8))
        assert machine.tracer.counts["log_wrap_force"] >= 1

    def test_crash_traced(self):
        machine = self._run()
        machine.crash()
        assert machine.tracer.counts["crash"] == 1

    def test_summary_renders(self):
        machine = self._run()
        summary = machine.tracer.summary()
        assert "tx_commit" in summary
        assert "commit durability lag" in summary

    def test_untraced_machine_records_nothing(self):
        machine = Machine(tiny_system(), FWB)
        assert machine.tracer is None  # default: zero overhead
