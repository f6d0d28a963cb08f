"""Fault injection: torn/corrupt log damage, event-indexed crash points,
and structured crash-consistency campaigns.

Three layers:

* :mod:`~repro.faults.plan` — fault specifications (torn in-flight
  writes, ghost log records) and the :class:`FaultInjector` that
  applies them at the crash.
* :mod:`~repro.faults.crashpoints` — deterministic crash points keyed to
  simulator events (micro-op retires, log-buffer drains, FWB scans,
  log-wrap forces, recovery writes) via a :class:`FaultMonitor`.
* :mod:`~repro.faults.campaign` — the campaign driver sweeping crash
  points × fault types × policies and reporting consistency verdicts
  against the golden transaction model (``repro faults`` on the CLI).
"""

from .campaign import (
    FAULT_GHOST,
    FAULT_NONE,
    FAULT_TORN,
    GUARANTEED_POLICIES,
    UNGUARANTEED_POLICIES,
    CampaignResult,
    FaultPoint,
    PointResult,
    PolicyReport,
    campaign_workload,
    default_campaign_system,
    enumerate_points,
    instant_variants,
    resolve_policies,
    run_fault_campaign,
)
from .crashpoints import (
    EXECUTION_KINDS,
    CrashPoint,
    EventKind,
    FaultMonitor,
    sample_indices,
)
from .plan import FaultInjector, GhostRecord, TornWrite

__all__ = [
    "CampaignResult",
    "CrashPoint",
    "EXECUTION_KINDS",
    "EventKind",
    "FAULT_GHOST",
    "FAULT_NONE",
    "FAULT_TORN",
    "FaultInjector",
    "FaultMonitor",
    "FaultPoint",
    "GhostRecord",
    "GUARANTEED_POLICIES",
    "PointResult",
    "PolicyReport",
    "TornWrite",
    "UNGUARANTEED_POLICIES",
    "campaign_workload",
    "default_campaign_system",
    "enumerate_points",
    "instant_variants",
    "resolve_policies",
    "run_fault_campaign",
    "sample_indices",
]
