"""Mid-run log shipping from stepped shards to replica rings.

The fault-campaign shipping path collects a *finished* run's durable
records and replays them through a timeline.  A served shard never
finishes — traffic is open-ended — so replication has to happen while
the shard is still being stepped.  The safe-frontier argument that makes
this sound: once every thread of a shard has been stepped to cycle
``t``, any record not yet durable will become durable at or after ``t``
(durability times only move forward from the current core clocks), so
the set of records durable *strictly before* ``t`` is final and its
durability order can never change.  The scheduler's per-arrival
checkpoint hands exactly that horizon to the replicator, which harvests
the ripe prefix from its :class:`~repro.dist.ship.LogStreamCollector`
(the shard machine's log tap — no tracer is involved) and appends it
synchronously to every replica ring, as the entry bytes the primary
encoded.

Because serve traffic is unbounded, replica rings compact instead of
growing: the replicator tracks the **cluster-committed frontier** — the
longest record prefix with no transaction still open — and once a ring's
occupancy crosses the headroom threshold, every replica folds the
prefix below that frontier into its mirrored heap
(:meth:`~repro.dist.node.ReplicaNode.compact_below`) and frees the
slots.  Only closed transactions compact, so a crash mid-run still
recovers exactly: checkpointed heap + remaining ring replay.  Each
replica folds the records it was shipped and kept, so no ring entry is
decoded again on the way.  ``compact_headroom`` is checked by
:meth:`~repro.sched.serve.ServeConfig.validate`, before any preparation.
"""

from __future__ import annotations

from ..dist.node import ReplicaNode
from ..dist.ship import LogStreamCollector
from ..errors import ConfigError


class ShardReplicator:
    """Ship one shard's durable records to R replicas while it runs."""

    def __init__(
        self,
        shard,
        image_prefix: bytes,
        system,
        *,
        replicas: int = 1,
        ring_records: int = 256,
        compact_headroom: float = 0.75,
    ) -> None:
        if replicas <= 0:
            raise ConfigError("replicas must be positive")
        self.shard = shard
        self.collector = LogStreamCollector(shard.machine)
        self.nodes = [
            ReplicaNode(
                node_id=node_id,
                system=system,
                image_prefix=image_prefix,
                capacity_records=ring_records,
            )
            for node_id in range(replicas)
        ]
        self._compact_at = max(
            1, int(self.nodes[0].ring.num_entries * compact_headroom)
        )
        self._open: set = set()  # txids with records shipped but no COMMIT
        self._next_seq = 0
        self.committed_frontier = 0
        self.shipped = 0
        self.compactions = 0
        self.records_compacted = 0

    # ------------------------------------------------------------------
    def on_horizon(self, horizon) -> int:
        """Ship everything durable strictly before ``horizon``.

        ``None`` is the end-of-run flush (every thread drained; all
        durability times final).  Returns the number of records shipped.
        """
        before = float("inf") if horizon is None else horizon
        records = self.collector.harvest(before)
        for rec in records:
            for node in self.nodes:
                # Compact before the append that would cross the
                # headroom line: a single harvest can carry more records
                # than the ring's free space, so the check is
                # per-record, not per-batch.  When the frontier hasn't
                # advanced (one transaction spanning the whole ring)
                # compaction is a no-op and a truly full ring still
                # raises — correctly.
                if rec.seq - node.base_seq >= self._compact_at:
                    dropped = node.compact_below(self.committed_frontier)
                    if dropped:
                        self.compactions += 1
                        self.records_compacted += dropped
                node.append(rec)
            if rec.kind == "COMMIT":
                self._open.discard(rec.txid)
            else:
                self._open.add(rec.txid)
            self._next_seq = rec.seq + 1
            if not self._open:
                self.committed_frontier = self._next_seq
        self.shipped += len(records)
        return len(records)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-shard replication counters for the serve report."""
        return {
            "replicas": len(self.nodes),
            "shipped": self.shipped,
            "committed_frontier": self.committed_frontier,
            "compactions": self.compactions,
            "records_compacted": self.records_compacted,
            "base_seqs": [node.base_seq for node in self.nodes],
            "ring_occupancy": [
                self._next_seq - node.base_seq for node in self.nodes
            ],
        }

    def release(self) -> None:
        """Return every replica's NVRAM buffer to the pool."""
        for node in self.nodes:
            node.release()


def make_checkpoint(replicators: list):
    """Scheduler ``checkpoint`` callback shipping all shards' streams."""

    def checkpoint(horizon) -> None:
        for replicator in replicators:
            replicator.on_horizon(horizon)

    return checkpoint
