"""``repro adapt train``: the offline policy optimizer.

The trainer treats the existing sweep engine as an *evaluation oracle*:
training units are gridded against the candidate design family through
:func:`~repro.harness.sweep.run_micro_sweep` — cached, parallel, trace-
compiled — and the cheapest design per unit wins.  Units come in two
shapes:

* **drift phases** — each phase is evaluated *in context* via the
  cumulative-prefix trick (:class:`~repro.adapt.drift.DriftSequenceWorkload`):
  the cell for phases ``0..k`` and the cell for ``0..k-1`` share a
  byte-identical stream up to the boundary, so differencing their
  finalized stats isolates phase *k*'s cost and feature vector with the
  log-ring fill and cache state earlier phases left behind;
* **benchmarks** — each microbenchmark is one unit, evaluated whole
  (the CI smoke grid trains this way).

Winners are then placed on a one-dimensional feature staircase: the
trainer picks the feature that best separates them (fewest bands,
widest relative margins), puts a ``<feature>_min`` threshold at each
band midpoint, and emits the versioned ``repro-adapt/v1`` table the
runtime controller consumes.

Everything is deterministic — cells are bit-identical to serial runs,
ties break on canonical design order — so training twice writes
byte-identical tables (tests/adapt/test_controller.py checks it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from ..core.design import DesignSpec, resolve_design
from ..errors import ConfigError
from ..sim.config import SystemConfig
from .drift import DriftPhase, DriftSequenceWorkload, WRITEBACK_FAMILY, drift_system
from .features import WindowFeatures, feature_probe, run_features, window_features
from .table import PolicyRule, PolicyTable, make_rule


@dataclass(frozen=True)
class TrainingUnit:
    """One evaluated training unit: its features and its winner."""

    label: str
    features: WindowFeatures
    best: DesignSpec
    cycles: Tuple[Tuple[str, float], ...]
    """Per-candidate cost in cycles (phase units: in-context delta)."""

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "features": self.features.as_dict(),
            "best": self.best.mechanism_string(),
            "cycles": dict(self.cycles),
        }


#: Feature preference when several separate the winners equally well
#: (with two units *every* differing feature separates them).  Wrap
#: pressure leads: it is exactly zero in any steady state and strictly
#: positive under ring churn, so a threshold on it cannot flip-flop the
#: live controller the way an always-nonzero rate feature can.
_RULE_PREFERENCE = ("wrap_pressure", "txn_size", "miss_rate", "write_intensity")


def _band_rules(
    units: Sequence[TrainingUnit],
) -> Tuple[Tuple[PolicyRule, ...], Optional[DesignSpec], DesignSpec]:
    """Threshold rules separating the units' winners on one feature.

    Scans features (in :data:`_RULE_PREFERENCE` order) for the one that
    sorts the units into the fewest contiguous same-winner bands (margin
    between bands breaks ties), then emits a descending staircase of
    ``<feature>_min`` rules — one per band boundary.  Returns
    ``(rules, default, start)``: the default is *hold* (None) so the
    live controller escalates on signal without oscillating back, and
    ``start`` — the lowest band's winner — is the recommended initial
    design.
    """
    winners = []
    for unit in units:
        if unit.best not in winners:
            winners.append(unit.best)
    if len(winners) == 1:
        # One winner everywhere: no thresholds, just start (and default
        # to it, so an adaptive run seeded elsewhere converges to it).
        return (), winners[0], winners[0]

    best_choice = None
    for name in _RULE_PREFERENCE:
        ordered = sorted(
            units, key=lambda unit: (getattr(unit.features, name), unit.label)
        )
        values = [getattr(unit.features, name) for unit in ordered]
        span = values[-1] - values[0]
        if span <= 0.0:
            continue
        bands = 1
        margin = None
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.best != prev.best:
                bands += 1
                gap = (
                    getattr(cur.features, name) - getattr(prev.features, name)
                ) / span
                margin = gap if margin is None else min(margin, gap)
        if margin is None:
            continue
        score = (bands, -margin)
        if best_choice is None or score < best_choice[0]:
            best_choice = (score, name, ordered)
    if best_choice is None:
        raise ConfigError(
            "training units are not separable: winners differ but every "
            "feature is constant across units"
        )

    _score, feature, ordered = best_choice
    rules = []
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.best == prev.best:
            continue
        low = getattr(prev.features, feature)
        high = getattr(cur.features, feature)
        threshold = (low + high) / 2.0
        rules.append(make_rule({f"{feature}_min": threshold}, cur.best))
    # First match wins: highest threshold first.
    rules.reverse()
    return tuple(rules), None, ordered[0].best


def train_policy_table(
    phases: Optional[Sequence[DriftPhase]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    specs: Iterable = WRITEBACK_FAMILY,
    threads: int = 2,
    txns_per_thread: int = 160,
    system: Optional[SystemConfig] = None,
    seed: int = 42,
    value_kind: str = "int",
    keys_per_partition: int = 2048,
    probe_spec=None,
    cache=None,
    jobs: int = 1,
) -> PolicyTable:
    """Grid the candidate designs per training unit; emit a policy table.

    Exactly one of ``phases`` or ``benchmarks`` selects the training
    set; ``jobs`` and ``cache`` go to its sweep
    (:func:`~repro.harness.sweep.run_micro_sweep`).  ``probe_spec``
    (default: the first candidate) is the design
    whose runs supply each unit's feature vector — the features a rule
    thresholds on must come from one consistent observation design,
    since the live controller observes under whatever design is
    currently active.
    """
    from ..harness.sweep import run_micro_sweep

    if (phases is None) == (benchmarks is None):
        raise ConfigError("train on exactly one of phases= or benchmarks=")
    candidates = [resolve_design(spec) for spec in specs]
    if len(candidates) < 2:
        raise ConfigError("training needs at least two candidate designs")
    probe = resolve_design(probe_spec) if probe_spec is not None else candidates[0]
    if probe not in candidates:
        candidates = [probe] + candidates
    if system is None:
        system = drift_system(threads)

    if phases is not None:
        phases = tuple(phases)
        for phase in phases:
            phase.validate()
        names = tuple(f"prefix{i}" for i in range(len(phases)))

        def factory(name: str):
            return DriftSequenceWorkload(
                phases,
                upto=int(name[len("prefix"):]),
                seed=seed,
                value_kind=value_kind,
                keys_per_partition=keys_per_partition,
            )

        workload_factory = factory
        workload_name = "ycsb-drift"
    else:
        names = tuple(benchmarks)
        if not names:
            raise ConfigError("benchmarks= must name at least one benchmark")
        workload_factory = None
        workload_name = "micro:" + ",".join(names)

    result = run_micro_sweep(
        benchmarks=names,
        threads=(threads,),
        policies=candidates,
        txns_per_thread=txns_per_thread,
        system=system,
        seed=seed,
        value_kind=value_kind,
        workload_factory=workload_factory,
        jobs=jobs,
        cache=cache,
    )

    units = []
    for index, name in enumerate(names):
        if phases is not None and index > 0:
            # In-context phase cost/features: prefix_k minus prefix_{k-1}.
            previous = names[index - 1]
            cycles = tuple(
                (
                    spec.mechanism_string(),
                    result.stats(name, threads, spec).cycles
                    - result.stats(previous, threads, spec).cycles,
                )
                for spec in candidates
            )
            features = window_features(
                feature_probe(result.stats(previous, threads, probe)),
                feature_probe(result.stats(name, threads, probe)),
            )
        else:
            cycles = tuple(
                (spec.mechanism_string(), result.stats(name, threads, spec).cycles)
                for spec in candidates
            )
            features = run_features(result.stats(name, threads, probe))
        by_spec = dict(cycles)
        best = min(
            candidates,
            key=lambda spec: (by_spec[spec.mechanism_string()], spec.mechanism_string()),
        )
        units.append(
            TrainingUnit(
                label=name if phases is None else f"phase{index}",
                features=features,
                best=best,
                cycles=cycles,
            )
        )

    rules, default, start = _band_rules(units)
    provenance = {
        "mode": "phases" if phases is not None else "benchmarks",
        "threads": threads,
        "txns_per_thread": txns_per_thread,
        "seed": seed,
        "probe_spec": probe.mechanism_string(),
        "candidates": [spec.mechanism_string() for spec in candidates],
        "units": [unit.to_dict() for unit in units],
    }
    if phases is not None:
        provenance["phases"] = [
            {
                "requests": phase.requests,
                "update_ratio": phase.update_ratio,
                "key_lo": phase.key_lo,
                "key_hi": phase.key_hi,
            }
            for phase in phases
        ]
    return PolicyTable(
        rules=rules,
        default=default,
        start=start,
        workload=workload_name,
        trained_on=provenance,
    )
