"""Replica ring compaction below the cluster-committed frontier.

Compaction folds the committed record prefix into the replica's
mirrored heap (redo in sequence order — recovery's own replay order)
and slides the suffix down, so an open-ended served stream fits a
bounded ring.  The correctness bar: a compacted replica must recover to
the *same committed heap image* as a replica that kept every record.
"""

import dataclasses

import pytest

from repro.core.logrecord import LogRecord, RecordKind
from repro.dist.node import ReplicaNode
from repro.errors import ConfigError


def _committed_frontier(records):
    """Longest prefix length with no transaction left open."""
    open_txids: set = set()
    frontier = 0
    for index, rec in enumerate(records):
        if rec.kind == "COMMIT":
            open_txids.discard(rec.txid)
        else:
            open_txids.add(rec.txid)
        if not open_txids:
            frontier = index + 1
    return frontier


def _node(traced_hash, capacity=None):
    prepared, stream, _golden = traced_hash
    return ReplicaNode(
        1, prepared.system, prepared.image_prefix,
        capacity or max(1, len(stream.records)),
    ), stream


def test_compaction_preserves_the_recovered_image(traced_hash):
    """Full-ring replica vs mid-stream-compacted replica: identical
    committed heap after recovery."""
    full, stream = _node(traced_hash)
    compacted, _ = _node(traced_hash)
    records = stream.records
    frontier = _committed_frontier(records[: len(records) // 2])
    assert frontier > 0  # the run commits transactions in its first half
    try:
        for rec in records:
            full.append(rec)
        for rec in records[: len(records) // 2]:
            compacted.append(rec)
        dropped = compacted.compact_below(frontier)
        assert dropped == frontier
        assert compacted.base_seq == frontier
        for rec in records[len(records) // 2 :]:
            compacted.append(rec)
        full.recover(reset_log=False)
        compacted.recover(reset_log=False)
        assert full.heap_snapshot() == compacted.heap_snapshot()
    finally:
        full.release()
        compacted.release()


def test_compaction_slides_slots_and_scan_agrees(traced_hash):
    node, stream = _node(traced_hash)
    records = stream.records
    frontier = _committed_frontier(records)
    try:
        for rec in records:
            node.append(rec)
        assert node.scan_frontier() == len(records)
        dropped = node.compact_below(frontier)
        assert dropped == frontier
        assert node.appended == len(records) - frontier
        # The NVRAM-read-back frontier counts compacted records as
        # durable by construction: base_seq + surviving slots.
        assert node.scan_frontier() == len(records)
    finally:
        node.release()


def test_duplicate_below_base_seq_is_ignored(traced_hash):
    node, stream = _node(traced_hash)
    records = stream.records
    frontier = _committed_frontier(records[:8])
    assert frontier > 0
    try:
        for rec in records[:8]:
            node.append(rec)
        node.compact_below(frontier)
        before = node.appended
        for rec in records[:frontier]:  # re-shipped compacted batch
            node.append(rec)
        assert node.appended == before  # nothing resurrected
    finally:
        node.release()


def test_truncate_is_absolute_after_compaction(traced_hash):
    node, stream = _node(traced_hash)
    records = stream.records
    # Compact only the first half's committed prefix so a real suffix
    # survives in the ring for the truncation to cut.
    frontier = _committed_frontier(records[: len(records) // 2])
    assert 0 < frontier < len(records)
    try:
        for rec in records:
            node.append(rec)
        node.compact_below(frontier)
        keep_to = frontier + (len(records) - frontier) // 2
        assert keep_to > frontier
        node.truncate_to(keep_to)
        assert node.appended == keep_to - frontier
        assert node.scan_frontier() == keep_to
    finally:
        node.release()


def test_full_ring_demands_compaction(traced_hash):
    prepared, stream, _golden = traced_hash
    node = ReplicaNode(1, prepared.system, prepared.image_prefix, 64)
    assert len(stream.records) > 64  # the traced run overfills the ring
    try:
        with pytest.raises(ConfigError, match="compact below"):
            for rec in stream.records:
                node.append(rec)
        # After compacting the committed prefix the stream fits again.
        frontier = _committed_frontier(stream.records[: node.appended])
        node.compact_below(frontier)
        resumed = node.base_seq + node.appended
        for rec in stream.records[resumed : resumed + 8]:
            node.append(rec)
    finally:
        node.release()


def test_undo_only_records_cannot_compact(traced_hash):
    node, stream = _node(traced_hash)
    records = stream.records
    data = next(rec for rec in records if rec.kind == "DATA")
    # Replicas write the shipped entry bytes, so the stripped record
    # carries the encoding of its undo-only form.
    undo_only = LogRecord(RecordKind.DATA, data.txid, data.tid, data.addr, undo=data.undo)
    stripped = dataclasses.replace(
        data, redo=b"", seq=0, payload=undo_only.encode(len(data.payload))
    )
    try:
        node.append(stripped)
        if stripped.kind != "COMMIT":
            with pytest.raises(ConfigError, match="undo-only"):
                node.compact_below(1)
    finally:
        node.release()


def test_compact_below_base_is_a_noop(traced_hash):
    node, stream = _node(traced_hash)
    try:
        for rec in stream.records[:4]:
            node.append(rec)
        assert node.compact_below(0) == 0
        assert node.base_seq == 0 and node.appended == 4
    finally:
        node.release()


def test_a_slot_overwritten_with_a_valid_entry_is_refused(traced_hash):
    """Compaction folds the record the replica was shipped, so a slot
    whose bytes changed since — even into another well-formed entry —
    is refused, and nothing is folded."""
    node, stream = _node(traced_hash)
    records = stream.records
    frontier = _committed_frontier(records)
    data = next(rec for rec in records[:frontier] if rec.kind == "DATA")
    forged = LogRecord(
        RecordKind.DATA, data.txid, data.tid, data.addr,
        undo=data.undo, redo=bytes(b ^ 0xFF for b in data.redo),
    )
    entry_size = node.ring.entry_size
    try:
        for rec in records:
            node.append(rec)
        slot_addr = node.ring.entry_addr(data.seq)
        node.nvram.poke(slot_addr, forged.encode(entry_size, 1))
        assert LogRecord.decode(node.nvram.read(slot_addr, entry_size)) == forged._replace(torn=1)
        heap = node.heap_snapshot()
        with pytest.raises(ConfigError, match=f"damaged slot {data.seq} "):
            node.compact_below(frontier)
        assert node.heap_snapshot() == heap
        assert node.base_seq == 0 and node.appended == len(records)
    finally:
        node.release()


def test_truncation_drops_the_kept_records_past_the_frontier(traced_hash):
    """A record re-shipped after a truncation is the one compaction
    folds: the slot's bytes and its kept record agree again."""
    full, stream = _node(traced_hash)
    cut, _ = _node(traced_hash)
    records = stream.records
    frontier = _committed_frontier(records)
    try:
        for rec in records:
            full.append(rec)
            cut.append(rec)
        cut.truncate_to(frontier // 2)
        for rec in records[frontier // 2 :]:
            cut.append(rec)
        assert full.compact_below(frontier) == cut.compact_below(frontier) == frontier
        assert full.snapshot() == cut.snapshot()
    finally:
        full.release()
        cut.release()
