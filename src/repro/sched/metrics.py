"""Service-level metrics: latency percentiles and the serve report.

Latency is **enqueue → commit-durable**: from the request's open-loop
arrival instant to the durability time its transaction's commit
reported (the same value the golden model records), so queueing delay,
batching delay, execution, and persist-ordering stalls all count — the
client-visible number.  Percentiles use the nearest-rank definition on
the full sorted sample (no interpolation): deterministic, and exact for
the sample sizes a simulated scenario produces.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending sample (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(pct / 100.0 * len(sorted_values))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


@dataclass
class ShardServeStats:
    """One shard's share of a serve scenario."""

    shard_id: int
    offered: int
    admitted: int
    rejected: int
    completed: int
    transactions: int
    cycles: float
    instructions: int
    nvram_writes: int
    log_records: int
    p50: float
    p99: float
    p999: float


@dataclass
class ServeReport:
    """Everything one finished open-loop serve scenario reports."""

    workload: str
    design: str
    shards: int
    threads: int
    batch_requests: int
    arrival: str
    rate: float
    seed: int
    offered: int
    admitted: int
    rejected: int
    completed: int
    makespan_cycles: float
    throughput_rpmc: float
    """Completed requests per million simulated cycles."""
    p50: float
    p99: float
    p999: float
    per_shard: list = field(default_factory=list)
    replication: dict = field(default_factory=dict)
    adaptation: dict = field(default_factory=dict)
    """Adaptive mode: the controller's decision log (``switches``,
    ``decisions``, ``start_design``, ``final_designs``)."""

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form (determinism checks)."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable report (also the CI artifact body)."""
        lines = [
            f"serve: {self.workload} under {self.design} — "
            f"{self.shards} shard(s) x {self.threads} thread(s), "
            f"batch {self.batch_requests}",
            f"traffic: {self.arrival} arrivals, rate {self.rate:g} req/cycle, "
            f"seed {self.seed}",
            "",
            f"  offered    {self.offered:>10}",
            f"  admitted   {self.admitted:>10}",
            f"  rejected   {self.rejected:>10}",
            f"  completed  {self.completed:>10}",
            f"  makespan   {self.makespan_cycles:>14.1f} cycles",
            f"  throughput {self.throughput_rpmc:>14.2f} req/Mcycle",
            "",
            "  latency (enqueue -> commit-durable, cycles)",
            f"    p50  {self.p50:>12.1f}",
            f"    p99  {self.p99:>12.1f}",
            f"    p999 {self.p999:>12.1f}",
        ]
        if self.per_shard:
            lines.append("")
            lines.append(
                "  shard  admitted  rejected  completed        cycles"
                "          p50          p99"
            )
            for shard in self.per_shard:
                lines.append(
                    f"  {shard.shard_id:>5}  {shard.admitted:>8}  "
                    f"{shard.rejected:>8}  {shard.completed:>9}  "
                    f"{shard.cycles:>12.1f}  {shard.p50:>11.1f}  "
                    f"{shard.p99:>11.1f}"
                )
        if self.replication:
            rep = self.replication
            lines.append("")
            lines.append(
                f"  replication: {rep.get('replicas', 0)} replica(s)/shard, "
                f"{rep.get('shipped', 0)} records shipped, "
                f"{rep.get('compactions', 0)} ring compaction(s), "
                f"{rep.get('records_compacted', 0)} records folded into "
                "checkpoints"
            )
        if self.adaptation:
            adapt = self.adaptation
            finals = ",".join(adapt.get("final_designs", ()))
            lines.append("")
            lines.append(
                f"  adaptive: {adapt.get('switches', 0)} switch(es), "
                f"window {adapt.get('window_txns', 0)} txns, "
                f"start {adapt.get('start_design', '?')} -> final {finals}"
            )
            for decision in adapt.get("decisions", ()):
                lines.append(
                    f"    cycle {decision.get('cycle', 0.0):.0f} shard "
                    f"{decision.get('shard', 0)}: {decision.get('from')} -> "
                    f"{decision.get('to')} ({decision.get('outcome')})"
                )
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """Markdown summary (CI uploads it as an artifact)."""
        lines = [
            f"### `repro serve` — {self.workload} / {self.design}",
            "",
            f"{self.shards} shard(s) x {self.threads} thread(s), "
            f"{self.arrival} arrivals at {self.rate:g} req/cycle "
            f"(seed {self.seed})",
            "",
            "| metric | value |",
            "| --- | ---: |",
            f"| offered | {self.offered} |",
            f"| admitted | {self.admitted} |",
            f"| rejected | {self.rejected} |",
            f"| completed | {self.completed} |",
            f"| throughput (req/Mcycle) | {self.throughput_rpmc:.2f} |",
            f"| p50 latency (cycles) | {self.p50:.1f} |",
            f"| p99 latency (cycles) | {self.p99:.1f} |",
            f"| p999 latency (cycles) | {self.p999:.1f} |",
        ]
        if self.replication:
            rep = self.replication
            lines.append(
                f"| replica compactions | {rep.get('compactions', 0)} |"
            )
        if self.adaptation:
            adapt = self.adaptation
            lines.append(
                f"| design switches | {adapt.get('switches', 0)} |"
            )
            lines.append(
                f"| final design(s) | "
                f"{', '.join(adapt.get('final_designs', ()))} |"
            )
        return "\n".join(lines) + "\n"
