"""Distributed persistence: replicated HWL logs across simulated nodes.

The paper makes one machine's log provably durable before its data; this
package asks what survives the loss of the whole machine.  A *primary*
node runs a workload on the ordinary simulator stack
(:mod:`repro.sim.machine`) while a :class:`~repro.dist.ship.LogStreamCollector`,
installed as the machine's log tap, collects its durable log records
where they are placed.  A
deterministic :class:`~repro.dist.ship.ShipTimeline` then models an
interconnect with latency/bandwidth links shipping those records, in
batches with a bounded in-flight window and per-link ack tracking, to R
:class:`~repro.dist.node.ReplicaNode` standbys — each a full NVRAM +
circular-log stack of its own.

Because the simulator is deterministic, a primary crash at cycle ``T``
is exactly a truncation of the durable record stream at ``T``
(verified against a really-crashed run in ``tests/dist``), so the
distributed fault campaign (:mod:`repro.dist.campaign`) can evaluate a
whole grid of node-crash x link-fault points from **one** tapped primary
run per workload: each point re-derives the shipping timeline, damages
it (dropped / duplicated / delayed / torn batches, per-node kills),
replays the surviving deliveries into fresh replica rings, and proves
convergent recovery (:mod:`repro.dist.recovery`): every eligible
survivor reconstructs a bit-identical committed-state image that
contains every cluster-acked commit, with graceful fallback past a
damaged replica.

The replication-ordering invariants (a batch is never acked before its
records are durable on the replica; a commit is never reported
cluster-committed before its ack quorum; replicas append in global
sequence order) are checked by
:class:`repro.sanitizer.replication.ReplicationOrderChecker` over the
timeline's event stream (``ship`` / ``repl_deliver`` / ``repl_append`` /
``repl_ack`` / ``dist_commit``).
"""

from __future__ import annotations

from .config import DistConfig, LinkConfig
from .ship import LinkFault, LogStream, LogStreamCollector, ShippedRecord, ShipTimeline
from .node import ReplicaNode
from .recovery import (
    ClusterRecoveryReport,
    expected_image,
    recover_cluster,
    required_frontier,
)
from .campaign import (
    DistCampaignResult,
    build_replicas,
    enumerate_dist_points,
    evaluate_point,
    run_dist_campaign,
    traced_primary_run,
)

__all__ = [
    "ClusterRecoveryReport",
    "DistCampaignResult",
    "DistConfig",
    "LinkConfig",
    "LinkFault",
    "LogStream",
    "LogStreamCollector",
    "ReplicaNode",
    "ShipTimeline",
    "ShippedRecord",
    "build_replicas",
    "enumerate_dist_points",
    "evaluate_point",
    "expected_image",
    "recover_cluster",
    "required_frontier",
    "run_dist_campaign",
    "traced_primary_run",
]
