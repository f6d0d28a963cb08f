"""Deterministic event-loop scheduler over N steppable shards.

The loop walks an open-loop arrival schedule in arrival order.  Before
each request is (maybe) admitted, **every** shard is stepped up to the
arrival instant — simulated time advances globally, so a shard's state
at admission time is exactly what it would have been had the shards run
on real parallel hardware with a shared clock.  Admission then looks at
the target shard only: a bounded request queue models a finite accept
backlog, and a log-buffer occupancy bound models persist-bandwidth
backpressure (the HWL engine's buffer is the first thing to saturate
when a design's drain path is slow — rejecting there is how a real
front-end would shed load instead of growing an unbounded queue).

Everything is a pure function of (shard construction order, schedule),
so two runs with the same seed produce identical interleavings, stats,
and reports — the determinism property tests replay exactly this loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import ConfigError


@dataclass(frozen=True)
class AdmissionConfig:
    """Backpressure policy applied per-shard at each arrival."""

    max_queue_depth: int = 64
    """Reject when the shard already holds this many undispatched
    requests."""
    log_buffer_limit: Optional[int] = None
    """Reject when the shard's deepest hardware log buffer holds at
    least this many undrained records; ``None`` disables the check
    (software logging has no hardware buffer to saturate)."""

    def validate(self) -> None:
        if self.max_queue_depth <= 0:
            raise ConfigError("max_queue_depth must be positive")
        if self.log_buffer_limit is not None and self.log_buffer_limit <= 0:
            raise ConfigError("log_buffer_limit must be positive or None")


class EventLoopScheduler:
    """Multiplex shards against time and an arrival schedule."""

    def __init__(
        self,
        shards: list,
        admission: Optional[AdmissionConfig] = None,
        checkpoint: Optional[Callable[[Optional[float]], None]] = None,
        drain_checkpoint_cycles: Optional[float] = None,
    ) -> None:
        if not shards:
            raise ConfigError("scheduler needs at least one shard")
        self.shards = list(shards)
        self.admission = admission or AdmissionConfig()
        self.admission.validate()
        #: Called after the loop steps all shards to each arrival horizon
        #: (and once with ``None`` after the final drain).  Replication
        #: hooks in here: everything durable strictly before the horizon
        #: is safe to ship.
        self.checkpoint = checkpoint
        if drain_checkpoint_cycles is not None and drain_checkpoint_cycles <= 0:
            raise ConfigError("drain_checkpoint_cycles must be positive or None")
        #: When set, the post-schedule drain advances in bounded windows
        #: of this many cycles, calling ``checkpoint`` after each — so
        #: checkpoint consumers (the adaptive controller above all) keep
        #: observing while queued backlog is served.  ``None`` keeps the
        #: classic single uncheckpointed drain.
        self.drain_checkpoint_cycles = drain_checkpoint_cycles
        self.admitted: list = []
        self.rejected: list = []

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Run every shard to completion once the schedule is played.

        With ``drain_checkpoint_cycles`` set (and a checkpoint hook),
        queues are closed first and the shards advance horizon window by
        horizon window, checkpointing between windows, until no thread
        can move; a final unbounded drain settles any residue either
        way.
        """
        if self.drain_checkpoint_cycles is not None and self.checkpoint is not None:
            for shard in self.shards:
                shard.close()
            horizon = max(shard.clock() for shard in self.shards)
            while any(shard.active for shard in self.shards):
                horizon += self.drain_checkpoint_cycles
                self.step_all(horizon)
                self.checkpoint(horizon)
        for shard in self.shards:
            shard.drain()

    # ------------------------------------------------------------------
    def step_all(self, until_cycle: Optional[float]) -> int:
        """Advance every shard to the horizon; returns total advances."""
        steps = 0
        for shard in self.shards:
            steps += shard.step(until_cycle)
        return steps

    def run_open_loop(self, schedule: list) -> None:
        """Play an arrival schedule through the shards to completion.

        For each request in arrival order: step all shards to the
        arrival instant, then admit to (or reject from) the request's
        target shard.  After the last arrival, queues close and every
        shard drains.
        """
        admission = self.admission
        for request in schedule:
            self.step_all(request.arrival)
            if self.checkpoint is not None:
                self.checkpoint(request.arrival)
            shard = self.shards[request.shard]
            if shard.queue_depth() >= admission.max_queue_depth or (
                admission.log_buffer_limit is not None
                and shard.log_occupancy() >= admission.log_buffer_limit
            ):
                self.rejected.append(request)
                continue
            shard.inject(request)
            self.admitted.append(request)
        self.drain()
        if self.checkpoint is not None:
            self.checkpoint(None)
