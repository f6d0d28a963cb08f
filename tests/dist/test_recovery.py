"""Convergent cluster recovery: the tentpole's acceptance semantics.

Every test here follows the same shape as the campaign points, but with
hand-picked inputs so each failure mode (damaged source, interrupted
source, ineligible cluster) is pinned individually.
"""

from __future__ import annotations

from repro.dist import (
    ShipTimeline,
    build_replicas,
    expected_image,
    recover_cluster,
    required_frontier,
)


def _cluster(traced_hash, dist_config, **timeline_kwargs):
    prepared, stream, golden = traced_hash
    timeline = ShipTimeline(stream, dist_config, **timeline_kwargs)
    nodes = build_replicas(prepared, stream, timeline)
    return prepared, stream, golden, timeline, nodes


def _release(nodes):
    for node in nodes:
        node.release()


# ----------------------------------------------------------------------
# The happy path
# ----------------------------------------------------------------------
def test_survivors_converge_to_the_golden_image(traced_hash, dist_config):
    prepared, stream, golden, timeline, nodes = _cluster(traced_hash, dist_config)
    try:
        report = recover_cluster(
            nodes, stream, timeline.cluster_committed,
            prepared=prepared, golden=golden,
        )
        assert report.converged, report.render()
        assert report.source == 1
        assert not report.fallbacks and not report.damaged
        assert report.mismatched_words == 0
        assert report.recovered_commits >= report.acked_commits > 0
    finally:
        _release(nodes)


def test_any_single_survivor_holds_every_acked_commit(traced_hash, dist_config):
    """Quorum = all replicas: each one alone must cover the acked
    frontier (the single-surviving-replica guarantee)."""
    prepared, stream, golden, timeline, nodes = _cluster(traced_hash, dist_config)
    try:
        needed = required_frontier(stream, timeline.cluster_committed)
        for node in nodes:
            assert node.scan_frontier() >= needed
        for lone in nodes:
            report = recover_cluster(
                [lone], stream, timeline.cluster_committed,
                prepared=prepared, golden=golden,
            )
            assert report.converged, (lone.node_id, report.render())
            # Each lone recovery must also land on the same image as the
            # full-cluster run for its own frontier's expected image —
            # which mismatched_words == 0 already proves.
            lone.truncate_to(0)
    finally:
        _release(nodes)


def test_mid_txn_crash_recovers_without_the_in_flight_txn(
    traced_hash, dist_config
):
    full_stream = traced_hash[1]
    mid = full_stream.records[len(full_stream.records) // 2].durable + 0.1
    prepared, stream, golden, timeline, nodes = _cluster(
        traced_hash, dist_config, primary_crash=mid
    )
    try:
        report = recover_cluster(
            nodes, stream, timeline.cluster_committed,
            prepared=prepared, golden=golden,
        )
        assert report.converged, report.render()
        assert report.acked_commits < len(stream.commit_map())
    finally:
        _release(nodes)


# ----------------------------------------------------------------------
# Damaged-replica fallback
# ----------------------------------------------------------------------
def test_damaged_preferred_replica_falls_back(traced_hash, dist_config):
    prepared, stream, golden, timeline, nodes = _cluster(traced_hash, dist_config)
    try:
        needed = required_frontier(stream, timeline.cluster_committed)
        nodes[0].corrupt_slot(needed - 2)
        report = recover_cluster(
            nodes, stream, timeline.cluster_committed,
            prepared=prepared, golden=golden,
        )
        assert report.converged, report.render()
        assert report.damaged == [1]
        assert report.source == 2
    finally:
        _release(nodes)


def test_every_replica_damaged_reports_failure(traced_hash, dist_config):
    prepared, stream, golden, timeline, nodes = _cluster(traced_hash, dist_config)
    try:
        needed = required_frontier(stream, timeline.cluster_committed)
        for node in nodes:
            node.corrupt_slot(needed - 2)
        report = recover_cluster(
            nodes, stream, timeline.cluster_committed,
            prepared=prepared, golden=golden,
        )
        assert not report.converged
        assert report.failure is not None
        assert "no survivor covers" in report.failure
    finally:
        _release(nodes)


# ----------------------------------------------------------------------
# Mid-recovery interruption
# ----------------------------------------------------------------------
def test_interrupted_source_restarts_idempotently(traced_hash, dist_config):
    prepared, stream, golden, timeline, nodes = _cluster(traced_hash, dist_config)
    try:
        report = recover_cluster(
            nodes, stream, timeline.cluster_committed,
            prepared=prepared, golden=golden,
            interrupt_source_at=5, fallback_on_interrupt=False,
        )
        assert report.converged, report.render()
        assert report.source == 1
        (first, _second) = report.per_replica
        assert first.interrupted and first.recovered and not first.abandoned
    finally:
        _release(nodes)


def test_interrupted_source_can_fall_back(traced_hash, dist_config):
    prepared, stream, golden, timeline, nodes = _cluster(traced_hash, dist_config)
    try:
        report = recover_cluster(
            nodes, stream, timeline.cluster_committed,
            prepared=prepared, golden=golden,
            interrupt_source_at=5, fallback_on_interrupt=True,
        )
        assert report.converged, report.render()
        assert report.fallbacks == [1]
        assert report.source == 2
        (first, second) = report.per_replica
        assert first.abandoned and not first.recovered
        assert second.recovered
    finally:
        _release(nodes)


# ----------------------------------------------------------------------
# expected_image is the ground truth it claims to be
# ----------------------------------------------------------------------
def test_expected_image_full_frontier_equals_golden_heap(traced_hash, dist_config):
    prepared, stream, golden, timeline, nodes = _cluster(traced_hash, dist_config)
    try:
        frontier = len(stream.records)
        image = expected_image(prepared, stream, golden, frontier)
        assert len(image) == prepared.image_size
        # Recover one replica and compare directly.
        node = nodes[0]
        node.recover(reset_log=False)
        assert node.heap_snapshot() == image
    finally:
        _release(nodes)


def test_expected_image_is_monotone_in_the_frontier(traced_hash):
    prepared, stream, golden = traced_hash
    commit_seqs = sorted(s for s, *_ in stream.commit_map().values())
    prev = None
    for cut in (0, commit_seqs[len(commit_seqs) // 2] + 1, len(stream.records)):
        image = expected_image(prepared, stream, golden, cut)
        if prev is not None:
            assert image != prev or cut == 0
        prev = image
