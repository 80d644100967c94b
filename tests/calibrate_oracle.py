"""Reference sequential fit: the per-kind step functions (``_step``, ``_k3``,
``_k2`` and the k4 expression) that ``suplab.calibrate.fit_sequential``
replaced with one step table.

Kept unchanged as the oracle ``test_calibrate_oracle.py`` checks against:
for any run set, ``suplab.calibrate.fit_sequential`` must return a
``ModelParams`` whose ``repr`` equals :func:`fit_sequential`'s here, or
raise the same error with the same message.
"""

from __future__ import annotations

from typing import Sequence

from suplab.breakdown import measure_slowdown
from suplab.calibrate import _METRIC_EPS, CalibrationRun, _by_kind
from suplab.counters import amortized_offcore_latency
from suplab.errors import DegenerateMetric, InsufficientMlpSpread, MissingKind
from suplab.model import SENSITIVITY_MARGIN, ModelParams, metric_cache, metric_dram, metric_store


def fit_sequential(runs: Sequence[CalibrationRun]) -> ModelParams:
    """Derive ModelParams step by step from the three microbenchmark kinds."""
    groups = _by_kind(runs)
    for kind in ("pointer_chase", "store_bound", "list_traversal"):
        if not groups[kind]:
            raise MissingKind(kind)

    lams, xs, ys = [], [], []
    for r in groups["pointer_chase"]:
        s = measure_slowdown(r.pair)
        b = r.pair.local.llc_miss_demand_stall_cycles / r.pair.local.total_cycles
        if abs(s) < _METRIC_EPS or b < _METRIC_EPS:
            raise DegenerateMetric(
                f"pointer_chase run {r.pair.label!r} has no usable DRAM signal"
            )
        lam = amortized_offcore_latency(r.pair.local)
        lams.append(lam)
        xs.append(1.0 / lam)
        ys.append(b / s)
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - x_mean) ** 2 for x in xs)
    if (max(lams) - min(lams)) / max(lams) < 1e-9 or sxx == 0:
        raise InsufficientMlpSpread(
            "need pointer_chase runs at >= 2 distinct amortized latencies to fit p, q"
        )
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sxx
    intercept = y_mean - slope * x_mean
    lam_anchor = max(lams)
    scale = slope / lam_anchor + intercept
    if scale <= 0 or intercept <= 0:
        raise DegenerateMetric("pointer_chase fit yields a non-positive correction")
    k1 = 1.0 / scale
    p = max(k1 * slope, 0.0)
    q = k1 * intercept
    threshold = SENSITIVITY_MARGIN * lam_anchor
    probe = ModelParams(k1=k1, k2=1.0, k3=1.0, k4=0.0, p=p, q=q, offcore_threshold=threshold)

    def _step(kind: str, residual) -> float:
        vals = []
        for r in groups[kind]:
            s = measure_slowdown(r.pair)
            m_d = metric_dram(r.pair.local, probe)
            vals.append(residual(r, s, m_d))
        return sum(vals) / len(vals)

    def _k3(r, s, m_d):
        m_s = metric_store(r.pair.local)
        if m_s < _METRIC_EPS:
            raise DegenerateMetric(f"store_bound run {r.pair.label!r} has zero store metric")
        return (s - k1 * m_d) / m_s

    k3 = _step("store_bound", _k3)

    def _k2(r, s, m_d):
        m_c = metric_cache(r.pair.local)
        if m_c < _METRIC_EPS:
            raise DegenerateMetric(f"list_traversal run {r.pair.label!r} has zero cache metric")
        return (s - k1 * m_d - k3 * metric_store(r.pair.local)) / m_c

    k2 = _step("list_traversal", _k2)

    k4 = 0.0
    if groups["mixed"]:
        k4 = _step(
            "mixed",
            lambda r, s, m_d: s
            - k1 * m_d
            - k2 * metric_cache(r.pair.local)
            - k3 * metric_store(r.pair.local),
        )

    return ModelParams(k1=k1, k2=k2, k3=k3, k4=k4, p=p, q=q, offcore_threshold=threshold)
