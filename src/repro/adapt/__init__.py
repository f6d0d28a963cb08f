"""Adaptive logging-policy control: the design space as a *learnable function*.

The paper's mechanism axes (undo/redo content, clwb/fwb/nowb write-back)
have no single winner across workload phases — which is why software PM
transaction systems expose the choice as a tunable and why ROADMAP open
item 1 calls for a controller that treats the logging policy as a
function of observed workload features.  This package supplies the three
pieces:

* **safe-switch protocol** — the epoch barrier lives on
  :meth:`repro.sim.machine.Machine.switch_design` (drain +
  force-writeback + atomic spec swap, legality gated by
  :func:`repro.core.design.check_switch_transition`) and its shard-level
  wrapper :meth:`repro.sched.shard.ShardMachine.switch_design`;
* **runtime controller** (:mod:`repro.adapt.controller`) — observes
  per-window features (:mod:`repro.adapt.features`) at scheduler
  checkpoints and consults a feature→spec decision table
  (:mod:`repro.adapt.table`);
* **offline optimizer** (:mod:`repro.adapt.train`) — grids the ablate
  mechanism space per workload phase through the cached parallel sweep
  engine and writes the versioned JSON policy table that
  ``repro serve --adaptive`` and ``repro adapt run`` consume.

:mod:`repro.adapt.drift` builds the drift-style scenarios (write-mix /
key-churn shifts mid-run) where the adaptive controller beats every
static design, and :mod:`repro.adapt.faults` proves recovery convergent
for crashes injected exactly at the switch barrier.
"""

from .controller import AdaptiveController
from .drift import DriftConfig, DriftPhase, compare_drift, run_drift
from .faults import SwitchCampaignResult, default_switch_transitions, run_switch_campaign
from .features import FEATURE_NAMES, WindowFeatures, feature_probe, window_features
from .table import PolicyTable, PolicyRule, default_policy_table
from .train import train_policy_table

__all__ = [
    "AdaptiveController",
    "DriftConfig",
    "DriftPhase",
    "FEATURE_NAMES",
    "PolicyRule",
    "PolicyTable",
    "SwitchCampaignResult",
    "WindowFeatures",
    "compare_drift",
    "default_policy_table",
    "default_switch_transitions",
    "feature_probe",
    "run_drift",
    "run_switch_campaign",
    "train_policy_table",
    "window_features",
]
