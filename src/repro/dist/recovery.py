"""Convergent cluster recovery with damaged-replica fallback.

After losing the primary, the surviving replicas must agree on one
committed-state image.  The protocol:

1. Every survivor scans its own ring from NVRAM
   (:meth:`~repro.dist.node.ReplicaNode.scan_frontier`) — volatile
   bookkeeping is gone, so damage (torn landings, bit rot) is discovered
   exactly as a restarting node would discover it.
2. A survivor is *eligible* to serve recovery only if its frontier
   covers every cluster-acked commit (the ack quorum guarantees at least
   one such survivor exists for any single-node loss).  Survivors that
   fall short — a torn primary-replica log, say — are reported as
   damaged and recovery degrades gracefully to the next replica in
   preference order instead of failing.
3. Eligible survivors reconcile to the *common frontier* (the longest
   record prefix all of them hold), truncate their rings to it, and each
   runs the ordinary single-node :class:`~repro.core.recovery
   .RecoveryManager` independently.
4. Convergence is then proven, not assumed: every eligible survivor's
   full NVRAM image must be bit-identical, and must equal the golden
   model's expected image for exactly the commits whose COMMIT record
   lies inside the common frontier.

A crash *during* step 3 on the chosen source is the mid-recovery fault:
the caller either re-runs recovery on the same node (idempotence — replay
writes absolute values) or abandons it and falls back to the next
eligible survivor; both paths are exercised by the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import RecoveryInterrupted
from ..sim.nvram import ImageSnapshot


@dataclass
class ReplicaOutcome:
    """What one survivor contributed to cluster recovery."""

    node_id: int
    frontier: int
    eligible: bool
    recovered: bool = False
    interrupted: bool = False
    abandoned: bool = False
    report: Optional[object] = None


@dataclass
class ClusterRecoveryReport:
    """Outcome of one cluster recovery attempt."""

    required_frontier: int
    common_frontier: int = 0
    source: Optional[int] = None
    fallbacks: list = field(default_factory=list)
    damaged: list = field(default_factory=list)
    per_replica: list = field(default_factory=list)
    images_identical: bool = False
    mismatched_words: int = -1
    acked_commits: int = 0
    recovered_commits: int = 0
    failure: Optional[str] = None

    @property
    def converged(self) -> bool:
        """Every eligible survivor reached the same, golden-true image."""
        return (
            self.failure is None
            and self.source is not None
            and self.images_identical
            and self.mismatched_words == 0
        )

    def render(self) -> str:
        if self.failure is not None:
            return f"cluster recovery FAILED: {self.failure}"
        parts = [
            f"source=replica{self.source}",
            f"frontier={self.common_frontier}/{self.required_frontier} required",
            f"commits={self.recovered_commits} ({self.acked_commits} acked)",
            "images=identical" if self.images_identical else "images=DIVERGED",
            f"golden-mismatches={self.mismatched_words}",
        ]
        if self.fallbacks:
            parts.append(f"fallbacks={self.fallbacks}")
        if self.damaged:
            parts.append(f"damaged={self.damaged}")
        return "cluster recovery: " + " ".join(parts)


def required_frontier(stream, cluster_committed: dict) -> int:
    """Records that must survive: through the last cluster-acked COMMIT."""
    commit_map = stream.commit_map()
    seqs = [
        commit_map[key][0] for key in cluster_committed if key in commit_map
    ]
    return max(seqs) + 1 if seqs else 0


def expected_image(prepared, stream, golden, frontier: int) -> ImageSnapshot:
    """Golden NVRAM image for commits inside ``frontier``.

    The setup checkpoint plus the write-sets of every transaction whose
    COMMIT record seq lies below the frontier, applied in COMMIT-record
    (= replay) order.  Replicas never receive data write-backs, so this
    is the *whole* truth of what their recovery must reconstruct.
    """
    image = bytearray(prepared.image_prefix)
    entries = sorted(stream.commit_map().items(), key=lambda item: item[1][0])
    for _key, (seq, _txid, golden_index, _reported) in entries:
        if seq >= frontier:
            continue
        _durable, writes = golden.commits[golden_index]
        for addr, piece in writes.items():
            end = addr + len(piece)
            if end > len(image):
                image.extend(bytes(end - len(image)))
            image[addr:end] = piece
    size = prepared.image_size
    return ImageSnapshot(size, bytes(image), size, b"")


def _count_word_mismatches(actual: ImageSnapshot, expected: ImageSnapshot) -> int:
    if actual == expected:
        return 0
    count = 0
    for mine, theirs in zip(*actual.spans(expected)):
        for offset in range(0, len(mine), 8):
            if mine[offset:offset + 8] != theirs[offset:offset + 8]:
                count += 1
    return count


def recover_cluster(
    survivors: list,
    stream,
    cluster_committed: dict,
    *,
    prepared=None,
    golden=None,
    interrupt_source_at: Optional[int] = None,
    fallback_on_interrupt: bool = False,
) -> ClusterRecoveryReport:
    """Recover the cluster from ``survivors``; prove convergence.

    ``interrupt_source_at`` injects a crash after that many recovery
    writes on the first eligible survivor; ``fallback_on_interrupt``
    chooses between abandoning it (fall back to the next replica) and
    restarting recovery on the same node (idempotence).  With
    ``prepared``/``golden`` given, the recovered image is also verified
    bit-for-bit against the golden expected image.
    """
    from ..faults.crashpoints import CrashPoint, EventKind, FaultMonitor

    report = ClusterRecoveryReport(
        required_frontier=required_frontier(stream, cluster_committed),
        acked_commits=len(cluster_committed),
    )
    outcomes = []
    for node in sorted(survivors, key=lambda n: n.node_id):
        frontier = node.scan_frontier()
        outcomes.append(
            ReplicaOutcome(
                node_id=node.node_id,
                frontier=frontier,
                eligible=frontier >= report.required_frontier,
            )
        )
    report.per_replica = outcomes
    by_id = {node.node_id: node for node in survivors}
    eligible = [out for out in outcomes if out.eligible]
    report.damaged = [out.node_id for out in outcomes if not out.eligible]
    if not eligible:
        report.failure = (
            f"no survivor covers the acked frontier "
            f"{report.required_frontier} "
            f"(frontiers: {[(o.node_id, o.frontier) for o in outcomes]})"
        )
        return report
    report.common_frontier = min(out.frontier for out in eligible)
    report.recovered_commits = sum(
        1
        for _key, (seq, _txid, _gi, _rep) in stream.commit_map().items()
        if seq < report.common_frontier
    )

    # Reconcile: every eligible survivor truncates to the common frontier
    # so all of them scan the identical window.
    for out in eligible:
        by_id[out.node_id].truncate_to(report.common_frontier)

    # Source recovery, with the optional mid-recovery kill.  The kill is
    # a single-node fault: it fires once, on the first source attempt —
    # a fallback replica (a different node) recovers unmolested.
    interrupt_pending = interrupt_source_at is not None
    queue = list(eligible)
    while queue:
        out = queue[0]
        node = by_id[out.node_id]
        if interrupt_pending and not out.interrupted:
            monitor = FaultMonitor(
                CrashPoint(EventKind.RECOVERY, interrupt_source_at)
            )
            try:
                node.recover(crash_injector=monitor)
            except RecoveryInterrupted:
                out.interrupted = True
                interrupt_pending = False
                if fallback_on_interrupt:
                    # The node is gone mid-recovery: degrade to the next
                    # eligible survivor.
                    out.abandoned = True
                    report.fallbacks.append(out.node_id)
                    queue.pop(0)
                    continue
                # Restart the same node: the second pass must converge.
        out.report = node.recover()
        out.recovered = True
        report.source = out.node_id
        break
    if report.source is None:
        report.failure = "every eligible survivor was lost mid-recovery"
        return report

    # The remaining eligible survivors recover independently.
    for out in eligible:
        if out.recovered or out.abandoned:
            continue
        out.report = by_id[out.node_id].recover()
        out.recovered = True

    # Convergence proof: bit-identical full images across every survivor
    # that recovered, and golden truth when the caller supplied it.
    recovered = [out for out in eligible if out.recovered]
    images = [by_id[out.node_id].snapshot() for out in recovered]
    report.images_identical = all(image == images[0] for image in images[1:])
    if prepared is not None and golden is not None:
        expected = expected_image(
            prepared, stream, golden, report.common_frontier
        )
        source_node = by_id[report.source]
        report.mismatched_words = _count_word_mismatches(
            source_node.heap_snapshot(), expected
        )
    else:
        report.mismatched_words = 0
    return report
