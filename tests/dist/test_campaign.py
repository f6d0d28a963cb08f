"""Campaign grid, replication sanitizer, probe, and CLI plumbing."""

from __future__ import annotations

from repro.__main__ import build_parser
from repro.dist import (
    DistConfig,
    ShipTimeline,
    enumerate_dist_points,
    evaluate_point,
    run_dist_campaign,
)
from repro.sanitizer.replication import check_replication
from repro.sanitizer.rules import REPLICATION_RULES


# ----------------------------------------------------------------------
# Grid enumeration
# ----------------------------------------------------------------------
def test_grid_covers_every_fault_family(traced_hash, dist_config):
    _prepared, stream, _golden = traced_hash
    points = enumerate_dist_points(stream, dist_config)
    labels = [point.label for point in points]
    assert len(labels) == len(set(labels)), "duplicate grid labels"
    families = {
        "primary-mid-txn[early]",
        "primary-mid-txn[late]",
        "primary-post-commit-record",
        "primary-mid-ship[mid]",
        "primary-after-quorum",
        "link-drop+retransmit",
        "link-dup",
        "link-delay-reorder",
        "link-torn-mid-ship",
        "replica-crash-mid-run",
        "torn-replica-fallback",
        "mid-recovery-restart",
        "mid-recovery-fallback",
    }
    assert families <= set(labels)


def test_grid_budget_subsamples_evenly(traced_hash, dist_config):
    _prepared, stream, _golden = traced_hash
    full = enumerate_dist_points(stream, dist_config)
    small = enumerate_dist_points(stream, dist_config, budget=5)
    assert len(small) == 5
    assert set(p.label for p in small) <= set(p.label for p in full)


def test_every_grid_point_converges(traced_hash, dist_config):
    """The acceptance loop on one benchmark: each point of the grid must
    converge with a clean sanitizer (fallback points must actually fall
    back)."""
    prepared, stream, golden = traced_hash
    for point in enumerate_dist_points(stream, dist_config):
        result = evaluate_point(prepared, stream, golden, dist_config, point)
        assert result.ok, f"{point.label}: {result.note}"


# ----------------------------------------------------------------------
# Replication sanitizer
# ----------------------------------------------------------------------
def test_guaranteed_timeline_is_psan_clean(traced_hash, dist_config):
    _prepared, stream, _golden = traced_hash
    report = check_replication(ShipTimeline(stream, dist_config))
    assert report.clean, [d.message for d in report.diagnostics]
    assert report.rules_checked == REPLICATION_RULES
    assert report.txns_checked == len(stream.commit_map())
    assert report.events_processed > 0


def test_ack_before_durable_probe_trips(traced_hash, dist_config):
    """The deliberate violation: acks sent at batch arrival, before the
    per-record append latency has elapsed.  The first rule must fire."""
    _prepared, stream, _golden = traced_hash
    timeline = ShipTimeline(stream, dist_config, unsafe_early_ack=True)
    report = check_replication(timeline)
    assert not report.clean
    assert "repl-ack-durable" in report.rules_fired()


def test_faulty_but_guaranteed_timelines_stay_clean(traced_hash, dist_config):
    """Link faults change the schedule, not the ordering contract: the
    sanitizer must stay quiet across the whole fault family."""
    from repro.dist import LinkFault

    _prepared, stream, _golden = traced_hash
    timeline = ShipTimeline(stream, dist_config)
    batches = len(timeline.batches)
    for fault in (
        LinkFault("drop", 1, batches // 3),
        LinkFault("dup", 1, batches // 2),
        LinkFault("delay", 1, batches // 2, delay=1500.0),
        LinkFault("torn", 1, (2 * batches) // 3, keep_records=1, keep_bytes=20),
    ):
        report = check_replication(
            ShipTimeline(stream, dist_config, faults=(fault,))
        )
        assert report.clean, (
            fault.kind,
            [d.message for d in report.diagnostics],
        )


# ----------------------------------------------------------------------
# End-to-end campaign driver
# ----------------------------------------------------------------------
def test_campaign_smoke_single_benchmark():
    result = run_dist_campaign(
        benchmarks=("hash",),
        config=DistConfig(nodes=3, replicas=2),
        threads=2,
        txns_per_thread=10,
        seed=7,
    )
    assert result.passed, result.render()
    assert result.probe_tripped is True
    (report,) = result.reports
    assert report.benchmark == "hash" and report.policy == "hwl"
    assert report.records > 0 and report.commits == 2 * 10
    rendered = result.render()
    assert "dist campaign PASSED" in rendered
    assert "tripped (expected)" in rendered


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def test_cli_dist_subcommand_parses():
    parser = build_parser()
    args = parser.parse_args(
        [
            "dist",
            "--nodes", "3",
            "--replicas", "2",
            "--benchmarks", "hash,sps",
            "--txns", "12",
            "--points", "6",
            "--no-probe",
        ]
    )
    assert args.nodes == 3 and args.replicas == 2
    assert args.benchmarks == "hash,sps"
    assert args.txns == 12 and args.points == 6
    assert args.no_probe is True
    assert args.command == "dist" and callable(args.fn)
