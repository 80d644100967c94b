"""Reference per-snapshot kernels: the amortized latency, stall fractions, the
three model metrics, the sensitivity class, ``predict``, ``r_components`` and
``forecast`` as one call per snapshot with Python branches, before
``suplab.counters``, ``suplab.model`` and ``suplab.interleave`` wrote each once
for a snapshot's numbers and a ``CounterLog``'s columns; and the per-row CLI
pipeline that read a counter log as snapshots and called them row by row.

Kept unchanged as the oracle the kernels are checked against
(``test_model_oracle.py``): for any checked log and parameters, each column
the live kernels return must equal, bit for bit, these functions called on
each row's snapshot, or the live call must raise the error the first failing
row raises here.  ``writers_oracle.write_derived_json`` reads its values from
here too.  The dataclasses are suplab's own, except that :class:`Forecast`
keeps the ``best_ratio`` object the forecast was built with.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from suplab.counters import STALL_COUNTERS, CounterSnapshot
from suplab.errors import MissingFit, NoDemandReads, ZeroDenominator
from suplab.interleave import InterleaveFit, InterleaveRatio
from suplab.model import ModelParams, Prediction, mlp_correction


def amortized_offcore_latency(s: CounterSnapshot) -> float:
    if s.offcore_demand_requests == 0:
        raise NoDemandReads("no offcore demand reads in window")
    return s.offcore_demand_occupancy / s.offcore_demand_requests


def cycle_share(s: CounterSnapshot, cycles: float) -> float:
    if s.total_cycles == 0:
        raise ZeroDenominator("total_cycles is zero")
    return cycles / s.total_cycles


def stall_fractions(s: CounterSnapshot) -> dict[str, float]:
    return {src: cycle_share(s, getattr(s, f)) for src, f in STALL_COUNTERS.items()}


def metric_dram(s: CounterSnapshot, params: ModelParams) -> float:
    base = cycle_share(s, s.llc_miss_demand_stall_cycles)
    if s.offcore_demand_requests == 0:
        return base / params.q
    return base * mlp_correction(amortized_offcore_latency(s), params)


def metric_cache(s: CounterSnapshot) -> float:
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
    return cycle_share(s, s.store_buffer_full_stall_cycles)


def classify_sensitivity(s: CounterSnapshot, params: ModelParams) -> str:
    if s.offcore_demand_requests and amortized_offcore_latency(s) > params.offcore_threshold:
        return "bandwidth_bound"
    return "latency_bound"


def predict(s: CounterSnapshot, params: ModelParams, label: str = "") -> Prediction:
    m_d, m_c, m_s = metric_dram(s, params), metric_cache(s), metric_store(s)
    s_pred = params.k1 * m_d + params.k2 * m_c + params.k3 * m_s + params.k4
    return Prediction(label, m_d, m_c, m_s, s_pred, classify_sensitivity(s, params))


@dataclass(frozen=True)
class Forecast:
    label: str
    r_dram: float
    r_cache: float
    r_store: float
    best_ratio: InterleaveRatio
    predicted_speedup: float
    beneficial: bool


def r_components(s: CounterSnapshot, params: ModelParams) -> tuple[float, float, float]:
    lam = amortized_offcore_latency(s)
    return metric_dram(s, params) * lam, metric_cache(s) * lam, metric_store(s) * lam


def forecast(s: CounterSnapshot, params: ModelParams, fit: InterleaveFit | None,
             label: str = "") -> Forecast:
    r_d, r_c, r_s = r_components(s, params)
    best, gain = 0.0, 0.0
    if classify_sensitivity(s, params) == "bandwidth_bound":
        if fit is None:
            raise MissingFit("bandwidth-bound forecast needs a per-platform InterleaveFit")
        r_total = r_d + r_c + r_s
        gain = fit.speedup_slope * r_total + fit.speedup_intercept
        if gain > 0.0:
            best = min(max(fit.ratio_slope * r_total + fit.ratio_intercept, 0.0), 1.0)
    return Forecast(label, r_d, r_c, r_s, InterleaveRatio(best), gain, gain > 0.0)


def _per_row(call, snapshots, source: str | Path) -> list:
    """``call(snapshot, label)`` row by row.  A row without demand reads or cycles
    raises naming the log and its row, as the column kernels' errors do."""
    out = []
    for i, s in enumerate(snapshots):
        try:
            out.append(call(s, f"row-{i}"))
        except (NoDemandReads, ZeroDenominator) as exc:
            raise type(exc)(f"{source}: row {i + 1}: {exc}") from None
    return out


def predictions(snapshots, params: ModelParams, source: str | Path) -> list[Prediction]:
    """``suplab predict``'s per-row loop."""
    return _per_row(lambda s, label: predict(s, params, label), snapshots, source)


def forecasts(snapshots, params: ModelParams, fit: InterleaveFit | None, source: str | Path) -> list[Forecast]:
    """``suplab interleave forecast``'s per-row loop."""
    return _per_row(lambda s, label: forecast(s, params, fit, label), snapshots, source)
