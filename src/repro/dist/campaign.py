"""The distributed fault campaign: node crashes x link faults, converged.

One primary run per (benchmark, design), tapped by the log-stream
collector, produces the durable record stream and the golden model;
every campaign point then reshapes the *shipping timeline*
deterministically — kill the primary mid-transaction or mid-log-ship,
kill a replica, drop / duplicate / delay / tear shipment batches,
corrupt a replica's ring after the fact, interrupt the recovery source
mid-replay — and proves that cluster recovery still converges: every
eligible survivor reconstructs the same bit-identical image, that image
equals the golden expectation for the common committed frontier, and
the replication-ordering sanitizer stays clean over the point's event
stream.

This composes the three existing gates the single-node campaign already
provides (crash points, fault injection, psan) with the node/link axis —
the same grid philosophy as :mod:`repro.faults.campaign`, one level up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..core.design import HWL, DesignSpec
from ..faults.campaign import (
    campaign_design,
    campaign_workload,
    check_campaign_size,
    default_campaign_system,
)
from ..harness.runner import RunConfig, prepare_workload, run_workload
from ..sanitizer.replication import check_replication
from .config import DistConfig
from .node import ReplicaNode
from .recovery import recover_cluster, required_frontier
from .ship import LinkFault, LogStream, LogStreamCollector, ShipTimeline

DIST_BENCHMARKS = ("hash", "rbtree", "sps", "btree", "ssca2")


@dataclass(frozen=True)
class DistPoint:
    """One cell of the node-crash x link-fault grid."""

    label: str
    primary_crash: Optional[float] = None
    replica_crashes: tuple = ()  # ((replica, time), ...)
    dead_replicas: tuple = ()  # replicas whose NVRAM is lost outright
    faults: tuple = ()  # LinkFaults
    corrupt: Optional[tuple] = None  # (replica, slot): post-hoc ring damage
    interrupt_recovery: Optional[int] = None
    fallback_on_interrupt: bool = False
    expect_fallback: bool = False


@dataclass
class DistPointResult:
    point: DistPoint
    converged: bool
    psan_clean: bool
    fallback_seen: bool
    note: str = ""

    @property
    def ok(self) -> bool:
        if not (self.converged and self.psan_clean):
            return False
        if self.point.expect_fallback and not self.fallback_seen:
            return False
        return True


@dataclass
class DistBenchReport:
    benchmark: str
    policy: str
    records: int
    batches: int
    commits: int
    points: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.ok for result in self.points)


@dataclass
class DistCampaignResult:
    config: DistConfig
    reports: list = field(default_factory=list)
    probe_tripped: Optional[bool] = None

    @property
    def passed(self) -> bool:
        probe_ok = self.probe_tripped is not False
        ran = any(report.points for report in self.reports)
        return ran and probe_ok and all(report.passed for report in self.reports)

    def render(self) -> str:
        width = max(
            [len("point")]
            + [
                len(result.point.label)
                for report in self.reports
                for result in report.points
            ]
        )
        lines = []
        for report in self.reports:
            lines.append(
                f"{report.benchmark} [{report.policy}] — "
                f"{report.records} records, {report.batches} batches, "
                f"{report.commits} commits, "
                f"{len(report.points)} points: "
                + ("PASS" if report.passed else "FAIL")
            )
            for result in report.points:
                verdict = "ok" if result.ok else "FAIL"
                note = f"  ({result.note})" if result.note else ""
                lines.append(
                    f"  {result.point.label:{width}s} "
                    f"converged={'yes' if result.converged else 'NO'} "
                    f"psan={'clean' if result.psan_clean else 'VIOLATION'} "
                    f"{verdict}{note}"
                )
        if self.probe_tripped is not None:
            lines.append(
                "ack-before-durable probe: "
                + ("tripped (expected)" if self.probe_tripped else "NOT TRIPPED")
            )
        lines.append(
            "dist campaign "
            + ("PASSED" if self.passed else "FAILED")
            + f" ({self.config.nodes} nodes, {self.config.replicas} replicas)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Primary run tracing
# ----------------------------------------------------------------------
def traced_primary_run(
    prepared, policy: DesignSpec, threads: int, txns_per_thread: int
) -> tuple:
    """Run the workload once with the log-stream collector tapping it.

    Returns ``(stream, golden, outcome)``; the stream is the primary's
    durable record history, the golden model its committed truth.
    """
    holder: dict = {}

    def hook(machine) -> None:
        holder["collector"] = LogStreamCollector(machine)

    outcome = run_workload(
        prepared.workload,
        RunConfig(
            policy=policy,
            threads=threads,
            txns_per_thread=txns_per_thread,
            system=prepared.system,
        ),
        prepared=prepared,
        machine_hook=hook,
    )
    stream = holder["collector"].finish()
    return stream, outcome.pm.golden, outcome


# ----------------------------------------------------------------------
# Point grid
# ----------------------------------------------------------------------
def enumerate_dist_points(
    stream: LogStream, config: DistConfig, budget: int = 16
) -> list:
    """The node-crash x link-fault grid for one traced run."""
    baseline = ShipTimeline(stream, config)
    batches = len(baseline.batches)
    records = stream.records
    if not records or not batches:
        return []
    first_link = baseline.links[config.replica_ids[0]]
    last_ack = max(
        (ack[1] for link in baseline.links.values() for ack in link.acks.values()),
        default=records[-1].durable,
    )
    end_time = last_ack + 1.0
    commit_seqs = sorted(
        seq for seq, *_rest in stream.commit_map().values()
    )
    points: list = []

    def mid_txn_point(which: str, seq: int) -> None:
        # Die between the commit's preceding record and the COMMIT record
        # itself: the transaction is mid-flight, replicas must undo it.
        if seq <= 0:
            return
        t_prev = records[seq - 1].durable
        t_commit = records[seq].durable
        when = (t_prev + t_commit) / 2.0
        if when <= t_prev:
            when = t_prev
        points.append(
            DistPoint(label=f"primary-mid-txn[{which}]", primary_crash=when)
        )

    if commit_seqs:
        mid_txn_point("early", commit_seqs[len(commit_seqs) // 4])
        mid_txn_point("late", commit_seqs[(3 * len(commit_seqs)) // 4])
        # Just after the COMMIT record is durable but (typically) before
        # any quorum ack: locally committed, cluster in-doubt.
        seq = commit_seqs[len(commit_seqs) // 2]
        points.append(
            DistPoint(
                label="primary-post-commit-record",
                primary_crash=records[seq].durable + 0.5,
            )
        )

    def ship_window(batch_index: int) -> Optional[Tuple[float, float]]:
        batch_index = min(batch_index, batches - 1)
        ack = first_link.acks.get(batch_index)
        if ack is None:
            return None
        send = baseline.batches[batch_index].ready
        return send, ack[1]

    for which, batch_index in (("mid", batches // 2), ("last", batches - 1)):
        window = ship_window(batch_index)
        if window is None:
            continue
        points.append(
            DistPoint(
                label=f"primary-mid-ship[{which}]",
                primary_crash=(window[0] + window[1]) / 2.0,
            )
        )

    points.append(DistPoint(label="primary-after-quorum", primary_crash=end_time))

    drop_batch = max(0, batches // 3)
    points.append(
        DistPoint(
            label="link-drop+retransmit",
            faults=(LinkFault("drop", config.replica_ids[0], drop_batch),),
        )
    )
    window = ship_window(drop_batch)
    if window is not None:
        points.append(
            DistPoint(
                label="link-drop+primary-crash",
                primary_crash=window[0] + config.link.retransmit_timeout / 2.0,
                faults=(LinkFault("drop", config.replica_ids[0], drop_batch),),
            )
        )
    points.append(
        DistPoint(
            label="link-dup",
            faults=(LinkFault("dup", config.replica_ids[0], batches // 2),),
        )
    )
    points.append(
        DistPoint(
            label="link-delay-reorder",
            primary_crash=end_time,
            faults=(
                LinkFault(
                    "delay",
                    config.replica_ids[0],
                    batches // 2,
                    delay=3.0 * config.link.latency,
                ),
            ),
        )
    )
    points.append(
        DistPoint(
            label="link-torn-mid-ship",
            faults=(
                LinkFault(
                    "torn",
                    config.replica_ids[0],
                    (2 * batches) // 3,
                    keep_records=1,
                    keep_bytes=20,
                ),
            ),
        )
    )
    if len(config.replica_ids) > 1:
        mid = records[len(records) // 2].durable
        points.append(
            DistPoint(
                label="replica-crash-mid-run",
                replica_crashes=((config.replica_ids[0], mid),),
                dead_replicas=(config.replica_ids[0],),
            )
        )
        # The flagship damaged-replica case: the preferred replica's ring
        # is torn *below* the acked frontier, so recovery must degrade to
        # the next replica instead of failing.
        required = required_frontier(stream, baseline.cluster_committed)
        if required >= 2:
            points.append(
                DistPoint(
                    label="torn-replica-fallback",
                    primary_crash=end_time,
                    corrupt=(config.replica_ids[0], required - 2),
                    expect_fallback=True,
                )
            )
    points.append(
        DistPoint(
            label="mid-recovery-restart",
            primary_crash=end_time,
            interrupt_recovery=5,
            fallback_on_interrupt=False,
        )
    )
    if len(config.replica_ids) > 1:
        points.append(
            DistPoint(
                label="mid-recovery-fallback",
                primary_crash=end_time,
                interrupt_recovery=5,
                fallback_on_interrupt=True,
                expect_fallback=True,
            )
        )
    if budget and budget > 0 and len(points) > budget:
        # Keep the grid's spread: evenly sample down to the budget.
        step = len(points) / budget
        points = [points[min(len(points) - 1, int(i * step))] for i in range(budget)]
    return points


# ----------------------------------------------------------------------
# Point evaluation
# ----------------------------------------------------------------------
def build_replicas(
    prepared, stream: LogStream, timeline: ShipTimeline, skip: tuple = ()
) -> list:
    """Materialise the surviving replica nodes a timeline implies.

    Replays each link's append schedule (including a trailing torn
    landing) into a fresh :class:`ReplicaNode`; replicas in ``skip``
    are lost outright (their NVRAM is gone with the node).  The caller
    owns the nodes and must :meth:`~ReplicaNode.release` them.
    """
    capacity = max(1, len(stream.records))
    nodes = []
    for replica in timeline.config.replica_ids:
        if replica in skip:
            continue
        node = ReplicaNode(
            replica, prepared.system, prepared.image_prefix, capacity
        )
        link = timeline.links[replica]
        for seq, _durable in link.appends:
            node.append(stream.records[seq])
        if link.torn is not None:
            seq, keep_bytes, _when = link.torn
            node.append_torn(stream.records[seq], keep_bytes)
        nodes.append(node)
    return nodes


def evaluate_point(
    prepared,
    stream: LogStream,
    golden,
    config: DistConfig,
    point: DistPoint,
) -> DistPointResult:
    """Run one campaign point end to end and judge it."""
    timeline = ShipTimeline(
        stream,
        config,
        primary_crash=point.primary_crash,
        replica_crashes=dict(point.replica_crashes),
        faults=point.faults,
    )
    psan = check_replication(timeline)
    nodes = build_replicas(prepared, stream, timeline, skip=point.dead_replicas)
    try:
        if point.corrupt is not None:
            replica, slot = point.corrupt
            for node in nodes:
                if node.node_id == replica and slot < node.appended:
                    node.corrupt_slot(slot)
        cluster = recover_cluster(
            nodes,
            stream,
            timeline.cluster_committed,
            prepared=prepared,
            golden=golden,
            interrupt_source_at=point.interrupt_recovery,
            fallback_on_interrupt=point.fallback_on_interrupt,
        )
        fallback_seen = bool(cluster.fallbacks or cluster.damaged)
        note = "" if cluster.converged else (cluster.failure or cluster.render())
        if not psan.clean:
            fired = ",".join(sorted(psan.rules_fired()))
            note = (note + "; " if note else "") + f"psan: {fired}"
        return DistPointResult(
            point=point,
            converged=cluster.converged,
            psan_clean=psan.clean,
            fallback_seen=fallback_seen,
            note=note,
        )
    finally:
        for node in nodes:
            node.release()


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------
def run_dist_campaign(
    benchmarks: tuple = DIST_BENCHMARKS,
    policies: tuple = None,
    config: Optional[DistConfig] = None,
    threads: int = 2,
    txns_per_thread: int = 30,
    points_budget: int = 16,
    seed: int = 42,
    probe: bool = True,
    verbose_sink=None,
) -> DistCampaignResult:
    """The full distributed campaign over the microbenchmark grid.

    A campaign with no work or no point budget, or an unknown benchmark
    or design name, raises :class:`~repro.errors.ConfigError` before any
    run.
    """
    if config is None:
        config = DistConfig()
    config.validate()
    check_campaign_size(default_campaign_system(), threads, txns_per_thread, points_budget)
    if policies is None:
        policies = (HWL,)  # the paper's design
    workloads = [(benchmark, campaign_workload(benchmark, seed)) for benchmark in benchmarks]
    policies = tuple(campaign_design(policy) for policy in policies)
    result = DistCampaignResult(config=config)
    probe_tripped: Optional[bool] = None
    for benchmark, workload in workloads:
        prepared = prepare_workload(workload, default_campaign_system())
        for policy in policies:
            stream, golden, outcome = traced_primary_run(
                prepared, policy, threads, txns_per_thread
            )
            timeline = ShipTimeline(stream, config)
            report = DistBenchReport(
                benchmark=benchmark,
                policy=policy.name,
                records=len(stream.records),
                batches=len(timeline.batches),
                commits=len(stream.commit_map()),
            )
            for point in enumerate_dist_points(stream, config, points_budget):
                point_result = evaluate_point(
                    prepared, stream, golden, config, point
                )
                report.points.append(point_result)
                if verbose_sink is not None:
                    verdict = "ok" if point_result.ok else "FAIL"
                    verbose_sink(
                        f"  {benchmark}/{policy.name} {point.label}: {verdict}"
                    )
            result.reports.append(report)
            if probe and probe_tripped is None:
                probe_report = check_replication(
                    ShipTimeline(stream, config, unsafe_early_ack=True)
                )
                probe_tripped = "repl-ack-durable" in probe_report.rules_fired()
            outcome.machine.nvram.recycle()
    result.probe_tripped = probe_tripped if probe else None
    return result
