"""Per-source slowdown predictors and the combined linear model.

The combined form is ``S = k1*M_dram + k2*M_cache + k3*M_store + k4`` where
all three metrics are counter ratios taken from a run on local memory:

* ``M_dram``   - LLC-miss stall fraction, corrected for overlap via the
  amortized offcore latency ``lam``: ``(P4/P1) * 1/(p/lam + q)``.
* ``M_cache``  - product of the L2-or-beyond cache-stall fraction, the
  LFB-hit share of demand loads, the L1-prefetch L3-miss ratio, and the
  DRAM-sourced share of L2 prefetches.
* ``M_store``  - store-buffer-full stall fraction ``P7/P1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Sequence

from .breakdown import AccuracyCdf
from .counters import CounterSnapshot, amortized_offcore_latency, cycle_share
from .errors import EmptyInput, JsonConfig, write_table

Sensitivity = Literal["latency_bound", "bandwidth_bound"]

# Amortized latency must exceed the no-overlap anchor latency by this
# margin before a run counts as bandwidth bound; shared by the calibration
# fit and the reference-parameter builder.
SENSITIVITY_MARGIN = 1.25


@dataclass(frozen=True)
class ModelParams(JsonConfig):
    """Fitted model constants plus the latency/bandwidth sensitivity cutoff."""

    k1: float
    k2: float
    k3: float
    k4: float
    p: float
    q: float                   # > 0 keeps the MLP correction's denominator positive
    offcore_threshold: float

    _BOUNDS = {"k1": ((">", 0),), "p": ((">=", 0),), "q": ((">", 0),), "offcore_threshold": ((">", 0),)}


@dataclass(frozen=True)
class Prediction:
    label: str
    m_dram: float
    m_cache: float
    m_store: float
    s_pred: float
    sensitivity: Sensitivity


def mlp_correction(amortized_latency: float, params: ModelParams) -> float:
    """Overlap correction factor ``1/(p/lam + q)``.

    Low amortized latency (deep overlap) shrinks the factor; it rises
    monotonically with amortized latency toward ``1/q``.
    """
    return 1.0 / (params.p / amortized_latency + params.q)


def metric_dram(s: CounterSnapshot, params: ModelParams) -> float:
    """LLC-miss stall fraction with the overlap correction applied."""
    base = cycle_share(s, s.llc_miss_demand_stall_cycles)
    if s.offcore_demand_requests == 0:
        # No demand reads: no overlap signal, correction collapses to 1/q.
        return base / params.q
    return base * mlp_correction(amortized_offcore_latency(s), params)


def metric_cache(s: CounterSnapshot) -> float:
    """Prefetch-efficiency-loss predictor for cache slowdown.

    Any denominator with no traffic (no demand loads, no L1 prefetches, no
    L2 prefetches) zeroes the metric: without prefetch traffic there is no
    cache slowdown to predict.
    """
    cache_stall_frac = cycle_share(s, s.mem_stall_cycles - s.llc_miss_demand_stall_cycles)
    loads = s.l1_demand_hits + s.lfb_hits
    l2pf = s.l2_prefetch_l3_miss + s.l2_prefetch_l3_hit
    if loads == 0 or s.l1_prefetch_total == 0 or l2pf == 0:
        return 0.0
    lfb_share = s.lfb_hits / loads
    l1pf_miss_ratio = s.l1_prefetch_l3_miss / s.l1_prefetch_total
    l2pf_dram_share = s.l2_prefetch_l3_miss / l2pf
    return cache_stall_frac * lfb_share * l1pf_miss_ratio * l2pf_dram_share


def metric_store(s: CounterSnapshot) -> float:
    """Store-buffer-full stall fraction."""
    return cycle_share(s, s.store_buffer_full_stall_cycles)


def classify_sensitivity(s: CounterSnapshot, params: ModelParams) -> Sensitivity:
    """Bandwidth-bound iff there are demand reads and their amortized offcore
    latency strictly exceeds the cutoff."""
    if s.offcore_demand_requests and amortized_offcore_latency(s) > params.offcore_threshold:
        return "bandwidth_bound"
    return "latency_bound"


def predict(s: CounterSnapshot, params: ModelParams, label: str = "") -> Prediction:
    m_d, m_c, m_s = metric_dram(s, params), metric_cache(s), metric_store(s)
    s_pred = params.k1 * m_d + params.k2 * m_c + params.k3 * m_s + params.k4
    return Prediction(label, m_d, m_c, m_s, s_pred, classify_sensitivity(s, params))


ACCURACY_THRESHOLDS = (0.02, 0.05, 0.10)


@dataclass(frozen=True)
class AccuracyStats:
    pearson: float
    within: dict[float, float]


def evaluate_accuracy(points: Sequence[tuple[float, float]]) -> AccuracyStats:
    """Pearson r and the fraction of |pred - meas| within fixed thresholds."""
    if len(points) < 2:
        raise EmptyInput("need at least 2 (predicted, measured) points")
    n = len(points)
    preds, meas = zip(*points)
    cdf = AccuracyCdf([p - m for p, m in points])
    within = {t: cdf.fraction_within(t) for t in ACCURACY_THRESHOLDS}
    mp = sum(preds) / n
    mm = sum(meas) / n
    vp = sum((p - mp) ** 2 for p in preds)
    vm = sum((m - mm) ** 2 for m in meas)
    if vp == 0 or vm == 0:
        return AccuracyStats(pearson=math.nan, within=within)
    cov = sum((p - mp) * (m - mm) for p, m in points)
    return AccuracyStats(pearson=cov / math.sqrt(vp * vm), within=within)


def write_predictions_csv(preds: Sequence[Prediction], path: str | Path) -> None:
    header = ["label", "m_dram", "m_cache", "m_store", "s_pred", "sensitivity"]
    write_table(path, header, [[getattr(p, a) for p in preds] for a in header])
