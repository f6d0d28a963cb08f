"""Seeded open-loop traffic generation.

An *open-loop* generator emits requests on its own schedule regardless
of service progress (the standard way to measure tail latency: a slow
server cannot slow its own offered load down).  The schedule is a pure
function of :class:`TrafficConfig` — every draw comes from one
:func:`repro.workloads.rng.thread_rng` stream — so a scenario replays
bit-identically across reruns and hosts.

Requests are workload-agnostic: each carries two uniform draws that the
serving workload maps through its own distributions (``key_u`` through
its zipfian key-popularity table — the hot-key skew — and ``op_u``
through its operation mix).  Clients are drawn from a configurable id
space (millions by default); a client is pinned to a shard, so shard
routing is stable per client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..errors import ConfigError
from ..workloads.rng import thread_rng

#: Stream id for the traffic RNG (decorrelated from workload threads).
_TRAFFIC_STREAM = 0x7A4F1C


class Request(NamedTuple):
    """One client request travelling through the service layer."""

    seq: int
    arrival: float  # enqueue instant, in simulated cycles
    client: int
    shard: int
    key_u: float  # uniform draw -> workload key distribution (hot-key skew)
    op_u: float  # uniform draw -> workload operation mix


@dataclass(frozen=True)
class TrafficConfig:
    """Open-loop arrival schedule parameters."""

    requests: int = 512
    rate: float = 0.002
    """Aggregate offered load, requests per simulated cycle."""
    arrival: str = "poisson"
    """Inter-arrival process: ``poisson`` (exponential gaps), ``uniform``
    (fixed gaps at exactly ``rate``), or ``burst`` (back-to-back groups
    of ``burst_size`` arriving at one instant, gaps between groups
    preserving the mean rate)."""
    burst_size: int = 16
    clients: int = 1_000_000
    """Simulated client id space; each request draws a client, and a
    client is pinned to one shard."""
    seed: int = 42

    def validate(self) -> None:
        if self.requests < 0:
            raise ConfigError("requests must be non-negative")
        if self.rate <= 0:
            raise ConfigError("rate must be positive (requests per cycle)")
        if self.arrival not in ("poisson", "uniform", "burst"):
            raise ConfigError(
                f"unknown arrival process {self.arrival!r}; "
                "choose poisson, uniform, or burst"
            )
        if self.burst_size <= 0:
            raise ConfigError("burst_size must be positive")
        if self.clients <= 0:
            raise ConfigError("clients must be positive")


def open_loop_schedule(config: TrafficConfig, num_shards: int) -> list:
    """The full arrival schedule, in arrival order.

    Pure function of ``(config, num_shards)``: one seeded RNG drives
    inter-arrival gaps, client choice, and the per-request uniform
    draws, in a fixed order.
    """
    config.validate()
    if num_shards <= 0:
        raise ConfigError("num_shards must be positive")
    rng = thread_rng(config.seed, _TRAFFIC_STREAM)
    mean_gap = 1.0 / config.rate
    clock = 0.0
    schedule = []
    for seq in range(config.requests):
        if config.arrival == "poisson":
            clock += rng.expovariate(config.rate)
        elif config.arrival == "uniform":
            clock += mean_gap
        else:  # burst: whole groups arrive at one instant
            if seq % config.burst_size == 0 and seq > 0:
                clock += mean_gap * config.burst_size
        client = rng.randrange(config.clients)
        # Arguments evaluate left to right: key_u takes the first draw.
        schedule.append(
            Request(seq, clock, client, client % num_shards, rng.random(), rng.random())
        )
    return schedule
