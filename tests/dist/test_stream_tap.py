"""Differential test: the log-stream tap against a tracer-event rebuild.

:class:`~repro.dist.ship.LogStreamCollector` hears of records from the
machine's log tap.  This suite attaches a :class:`~repro.sim.trace.Tracer`
to the same machine and rebuilds the stream independently from its
``log_place``, ``nvram_write`` and ``commit_reported`` events, with the
pairing rule psan uses: a record with a release time is durable then; a
software record (no release) becomes durable at the completion of the
first NVRAM write into a log region that covers its entry.  Both streams
must agree field for field — over every canonical design, one and two
threads, two benchmarks, and a run cut short by a deadline crash.
"""

from __future__ import annotations

import pytest

from repro.core.design import CANONICAL_DESIGNS, DESIGNS
from repro.core.logrecord import LogRecord
from repro.dist.ship import LogStreamCollector
from repro.errors import ConfigError, SimulatedCrash
from repro.faults.campaign import campaign_workload, default_campaign_system
from repro.faults.crashpoints import FaultMonitor
from repro.harness.runner import RunConfig, prepare_workload, run_workload
from repro.sim.trace import Tracer

TXNS = 12


class EventRebuild:
    """The durable stream rebuilt from a tracer's events."""

    def __init__(self, machine, tracer: Tracer) -> None:
        self.entry_size = machine.log.entry_size
        self.regions = [
            (log.base, log.num_entries * log.entry_size) for log in machine.logs
        ]
        self.placed = []  # [fields dict], in placement order
        self.pending = {}  # entry address -> fields dict
        self.reported = []
        tracer.subscribe(self.on_event)

    def on_event(self, event) -> None:
        detail = event.detail
        if event.kind == "log_place":
            fields = dict(
                kind=detail["kind"],
                txid=detail["txid"],
                tid=detail["tid"],
                addr=detail["addr"],
                undo=bytes.fromhex(detail["undo"]),
                redo=bytes.fromhex(detail["redo"]),
                place_time=event.time,
                durable=-1.0 if detail["release"] is None else detail["release"],
                torn=detail["torn"],
            )
            self.placed.append(fields)
            if detail["release"] is None:
                self.pending[detail["entry_addr"]] = fields
        elif event.kind == "nvram_write":
            addr = detail["addr"]
            if not any(base <= addr < base + size for base, size in self.regions):
                return
            entry = addr - addr % self.entry_size
            while entry < addr + detail["size"]:
                fields = self.pending.get(entry)
                if fields is not None and fields["durable"] < 0:
                    fields["durable"] = detail["completion"]
                entry += self.entry_size
        elif event.kind == "commit_reported":
            self.reported.append((detail["tid"], detail["durable"], event.time))

    def stream(self) -> tuple:
        """``(records, reported, undrained)``, records in durability order."""
        durable = [
            (fields["durable"], order, fields)
            for order, fields in enumerate(self.placed)
            if fields["durable"] >= 0
        ]
        durable.sort(key=lambda item: (item[0], item[1]))
        records = [dict(fields, seq=seq) for seq, (_d, _o, fields) in enumerate(durable)]
        undrained = sum(1 for fields in self.placed if fields["durable"] < 0)
        return records, self.reported, undrained


def _tapped_run(prepared, design, threads: int, deadline=None):
    holder = {}

    def hook(machine):
        tracer = Tracer(capacity=64)
        machine.tracer = tracer
        holder["rebuild"] = EventRebuild(machine, tracer)
        holder["collector"] = LogStreamCollector(machine)
        if deadline is not None:
            machine.fault_monitor = FaultMonitor(deadline=deadline)

    run = RunConfig(
        policy=design, threads=threads, txns_per_thread=TXNS, system=prepared.system
    )
    outcome = None
    try:
        outcome = run_workload(prepared.workload, run, prepared=prepared, machine_hook=hook)
    except SimulatedCrash:
        if deadline is None:
            raise
    stream = holder["collector"].finish()
    if outcome is not None:
        outcome.machine.nvram.recycle()
    return stream, holder["rebuild"].stream()


def _assert_same(stream, rebuilt) -> None:
    records, reported, undrained = rebuilt
    assert len(stream.records) == len(records)
    for rec, expected in zip(stream.records, records):
        actual = dict(
            seq=rec.seq,
            kind=rec.kind,
            txid=rec.txid,
            tid=rec.tid,
            addr=rec.addr,
            undo=rec.undo,
            redo=rec.redo,
            place_time=rec.place_time,
            durable=rec.durable,
            torn=rec.payload[0] & 1,
        )
        assert actual == expected
        # The shipped bytes are the primary's own encoding of the record.
        decoded = LogRecord.decode(rec.payload)
        assert decoded is not None and len(rec.payload) == stream.entry_size
        assert (decoded.kind.name, decoded.txid, decoded.tid) == (rec.kind, rec.txid, rec.tid)
        assert (decoded.undo, decoded.redo) == (rec.undo, rec.redo)
        assert decoded.addr == (rec.addr or 0)
    assert stream.reported == reported
    assert stream.undrained == undrained


@pytest.fixture(scope="module", params=["hash", "btree"])
def prepared(request):
    return prepare_workload(campaign_workload(request.param, 5), default_campaign_system())


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("design", CANONICAL_DESIGNS, ids=lambda d: d.name)
def test_tap_stream_equals_event_rebuild(prepared, design, threads):
    stream, rebuilt = _tapped_run(prepared, design, threads)
    _assert_same(stream, rebuilt)
    if design.uses_hw_logging or design.uses_sw_logging:
        assert stream.records and stream.reported


@pytest.mark.parametrize("name", ["hwl", "redo-clwb"])
def test_tap_stream_equals_event_rebuild_after_deadline_crash(name):
    prepared = prepare_workload(campaign_workload("hash", 5), default_campaign_system())
    full, _rebuilt = _tapped_run(prepared, DESIGNS.resolve(name), 2)
    deadline = full.records[(2 * len(full.records)) // 3].durable + 0.25
    crashed, rebuilt = _tapped_run(prepared, DESIGNS.resolve(name), 2, deadline=deadline)
    _assert_same(crashed, rebuilt)
    assert 0 < len(crashed.records) < len(full.records)


def test_one_tap_per_machine(traced_hash):
    prepared = traced_hash[0]
    holder = {}

    def hook(machine):
        holder["first"] = LogStreamCollector(machine)
        with pytest.raises(ConfigError, match="log-stream tap"):
            LogStreamCollector(machine)
        holder["machine"] = machine

    run = RunConfig(
        policy=DESIGNS.resolve("hwl"), threads=1, txns_per_thread=2, system=prepared.system
    )
    outcome = run_workload(prepared.workload, run, prepared=prepared, machine_hook=hook)
    holder["first"].finish()
    assert holder["machine"].log_tap is None
    outcome.machine.nvram.recycle()
