"""The runtime controller: decisions at scheduler checkpoints.

The event-loop scheduler (:mod:`repro.sched.loop`) already exposes the
one safe instant for cross-shard work: the ``checkpoint(horizon)`` hook,
called with every shard stepped up to the horizon and no thread mid-step
— the same hook the replication layer ships log records from.  The
controller rides it: every call it probes each shard's stats, and once a
shard has committed ``window_txns`` new transactions it computes the
window's feature vector, consults the policy table, and (when the target
differs and the transition is legal) runs the shard's safe-switch
protocol right there.

Determinism: probes are counter snapshots, features are pure functions
of probes, the table is ordered, and the switch itself is the
deterministic epoch barrier — two runs of the same scenario produce the
same decision log, which tests/sched/test_serve_golden.py pins.
"""

from __future__ import annotations

from typing import Optional

from ..core.design import switch_legal
from .features import feature_probe, window_features
from .table import PolicyTable


class AdaptiveController:
    """Feature→spec control loop over one scenario's shards."""

    def __init__(
        self,
        table: PolicyTable,
        window_txns: int = 32,
        cooldown_txns: int = 0,
    ) -> None:
        if window_txns <= 0:
            raise ValueError("window_txns must be positive")
        self.table = table
        self.window_txns = window_txns
        self.cooldown_txns = cooldown_txns
        self.decisions: list = []
        """One dict per decision window, in decision order (JSON-ready)."""
        self.switches = 0
        self._probes: dict = {}
        self._cooldown: dict = {}

    # ------------------------------------------------------------------
    def observe(self, shard, horizon: Optional[float]) -> None:
        """Probe one shard at a checkpoint; maybe switch its design."""
        now = horizon
        if now is None:
            now = max(
                (core.time for core in shard.machine.cores), default=0.0
            )
        probe = feature_probe(shard.machine.stats, now=now)
        prev = self._probes.get(shard.shard_id)
        if prev is None:
            self._probes[shard.shard_id] = probe
            return
        window = probe["transactions_committed"] - prev["transactions_committed"]
        if window < self.window_txns:
            return
        self._probes[shard.shard_id] = probe
        cooldown = self._cooldown.get(shard.shard_id, 0)
        if cooldown > 0:
            self._cooldown[shard.shard_id] = max(0, cooldown - window)
            return
        features = window_features(prev, probe)
        current = shard.machine.policy
        target = self.table.decide(features, current)
        decision = {
            "shard": shard.shard_id,
            "cycle": now,
            "window_txns": features.transactions,
            "features": features.as_dict(),
            "from": current.mechanism_string(),
            "to": target.mechanism_string(),
        }
        if target == current:
            return
        if not switch_legal(current, target):
            decision["outcome"] = "illegal"
            self.decisions.append(decision)
            return
        barrier = shard.switch_design(target)
        decision["outcome"] = "switched"
        decision["barrier_cycle"] = barrier
        self.decisions.append(decision)
        self.switches += 1
        if self.cooldown_txns:
            self._cooldown[shard.shard_id] = self.cooldown_txns
        # The barrier consumed the window; re-probe from the switched state.
        self._probes[shard.shard_id] = feature_probe(
            shard.machine.stats, now=barrier
        )

    def checkpoint_for(self, shards, inner=None):
        """A scheduler ``checkpoint`` callable over ``shards``.

        ``inner`` (e.g. the replication layer's checkpoint) runs first so
        log shipping observes the pre-switch frontier of the same horizon.
        """

        def _checkpoint(horizon: Optional[float]) -> None:
            if inner is not None:
                inner(horizon)
            for shard in shards:
                self.observe(shard, horizon)

        return _checkpoint

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready decision log for reports."""
        return {
            "window_txns": self.window_txns,
            "switches": self.switches,
            "decisions": self.decisions,
        }
