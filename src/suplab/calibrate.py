"""Model-parameter fitting from microbenchmark-style calibration runs.

The sequential recipe uses three run kinds:

* ``pointer_chase`` - zero cache/store slowdown; two or more runs at
  distinct MLP depths identify the overlap correction (p, q) and k1.
* ``store_bound``   - adds the store term; identifies k3.
* ``list_traversal`` - prefetch-fed; identifies k2.
* ``mixed``         - optional; identifies the intercept k4.

The triple (k1, p, q) carries a scale redundancy (scaling all three by a
common factor leaves every prediction unchanged), so the fit pins the
scale with a no-overlap anchor: the correction factor is defined to be
exactly 1 at the largest pointer-chase amortized latency (the MLP=1 run,
where nothing overlaps and the raw stall fraction needs no correction).
The sensitivity threshold is placed a fixed margin above that anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .breakdown import measure_slowdown
from .counters import RunPair, amortized_offcore_latency, read_run_pairs, write_run_pairs
from .errors import (
    DegenerateMetric,
    EmptyInput,
    InsufficientMlpSpread,
    InvariantViolation,
    MissingKind,
    RankDeficient,
)
from .model import (
    SENSITIVITY_MARGIN,
    ModelParams,
    metric_cache,
    metric_dram,
    metric_store,
)

RUN_KINDS = ("pointer_chase", "store_bound", "list_traversal", "mixed")

_PURE_DRAM_TOL = 1e-3
_METRIC_EPS = 1e-12

# Each model metric and its coefficient, in the order _signals gives them.
_METRICS = {"dram": "k1", "cache": "k2", "store": "k3"}
# The steps after the pointer chases, in fit order: (run kind, the parameter
# it fits, the metric it divides by).
_STEPS = (("store_bound", "k3", "store"), ("list_traversal", "k2", "cache"), ("mixed", "k4", None))


@dataclass(frozen=True)
class CalibrationRun:
    kind: str
    pair: RunPair

    def __post_init__(self):
        if self.kind not in RUN_KINDS:
            raise InvariantViolation(f"unknown calibration kind: {self.kind!r}")
        if self.kind == "pointer_chase":
            if metric_cache(self.pair.local) > _PURE_DRAM_TOL:
                raise InvariantViolation("pointer_chase run shows cache traffic")
            if metric_store(self.pair.local) > _PURE_DRAM_TOL:
                raise InvariantViolation("pointer_chase run shows store stalls")


def _by_kind(runs: Sequence[CalibrationRun]) -> dict[str, list[CalibrationRun]]:
    groups: dict[str, list[CalibrationRun]] = {k: [] for k in RUN_KINDS}
    for r in runs:
        groups[r.kind].append(r)
    # Deterministic processing order regardless of input permutation.  Only a pointer
    # chase needs demand reads; any other run without them sorts as at infinite latency.
    for k in groups:
        groups[k].sort(key=lambda r: (amortized_offcore_latency(r.pair.local)
                                      if k == "pointer_chase" or r.pair.local.offcore_demand_requests
                                      else math.inf, r.pair.label))
    return groups


def fit_sequential(runs: Sequence[CalibrationRun]) -> ModelParams:
    """Derive ModelParams step by step from the three microbenchmark kinds."""
    groups = _by_kind(runs)
    for kind in ("pointer_chase", "store_bound", "list_traversal"):
        if not groups[kind]:
            raise MissingKind(kind)

    # Overlap correction from pointer-chase runs.  With S = k1*b/(p/lam+q)
    # and no cache/store term, b/S is linear in 1/lam with slope p/k1 and
    # intercept q/k1; the anchor (correction factor 1 at the largest lam)
    # then fixes the absolute scale.
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
    sxx = sum((x - x_mean) ** 2 for x in xs)   # centred sums: no cancellation
    if (max(lams) - min(lams)) / max(lams) < 1e-9 or sxx == 0:
        raise InsufficientMlpSpread(
            "need pointer_chase runs at >= 2 distinct amortized latencies to fit p, q"
        )
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sxx   # p / k1
    intercept = y_mean - slope * x_mean          # q / k1
    lam_anchor = max(lams)
    scale = slope / lam_anchor + intercept       # = 1 / k1 under the anchor
    if scale <= 0 or intercept <= 0:
        raise DegenerateMetric("pointer_chase fit yields a non-positive correction")
    k1 = 1.0 / scale
    p = max(k1 * slope, 0.0)
    q = k1 * intercept
    threshold = SENSITIVITY_MARGIN * lam_anchor
    probe = ModelParams(k1=k1, k2=1.0, k3=1.0, k4=0.0, p=p, q=q, offcore_threshold=threshold)

    # Each later step averages, over its runs, the slowdown left after the
    # terms already fitted, divided by its own metric (k4 divides by none).
    fitted = {"k1": k1}
    for kind, param, metric in _STEPS:
        vals = []
        for r in groups[kind]:
            s, *values = _signals(r, probe)
            metrics = dict(zip(_METRICS, values))
            for name, m in metrics.items():
                if _METRICS[name] in fitted:   # not 0.0 * m, which can turn -0.0 into 0.0
                    s -= fitted[_METRICS[name]] * m
            if metric:
                if metrics[metric] < _METRIC_EPS:
                    raise DegenerateMetric(f"{kind} run {r.pair.label!r} has zero {metric} metric")
                s /= metrics[metric]
            vals.append(s)
        fitted[param] = sum(vals) / len(vals) if vals else 0.0   # mixed runs are optional

    return ModelParams(**fitted, p=p, q=q, offcore_threshold=threshold)


def _signals(r: CalibrationRun, params: ModelParams) -> tuple[float, float, float, float]:
    """A run's measured slowdown and its three model metrics under ``params``:
    ``(slowdown, m_dram, m_cache, m_store)``."""
    local = r.pair.local
    return (measure_slowdown(r.pair), metric_dram(local, params),
            metric_cache(local), metric_store(local))


def _design(runs: Sequence[CalibrationRun], params: ModelParams):
    ordered = sorted(runs, key=lambda r: (r.pair.label, r.kind))
    signals = np.asarray([_signals(r, params) for r in ordered], dtype=float).reshape(-1, 4)
    return np.column_stack((signals[:, 1:], np.ones(len(ordered)))), signals[:, 0]


_COLUMN_NAMES = ("m_dram", "m_cache", "m_store", "intercept")


def fit_least_squares(runs: Sequence[CalibrationRun], init: ModelParams) -> ModelParams:
    """Refit (k1..k4) by ordinary least squares, holding p, q from ``init``."""
    if len(runs) < 5:
        raise EmptyInput("least-squares refit needs at least 5 runs")
    if len({r.kind for r in runs}) < 2:
        raise InvariantViolation("least-squares refit needs runs spanning >= 2 kinds")
    X, y = _design(runs, init)
    with np.errstate(over="ignore"):   # a column past sqrt(FLOAT_MAX) norms to inf: not dead either
        norms = np.linalg.norm(X, axis=0)
    rank = np.linalg.matrix_rank(X)
    if rank < 4:
        dead = [name for name, nm in zip(_COLUMN_NAMES, norms) if nm < 1e-12]
        if dead:
            raise RankDeficient(dead[0])
        # All columns populated yet collinear: blame the weakest singular direction.
        _, _, vt = np.linalg.svd(X, full_matrices=False)
        raise RankDeficient(_COLUMN_NAMES[int(np.argmax(np.abs(vt[-1])))])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    k1, k2, k3, k4 = (float(v) for v in coef)
    return ModelParams(
        k1=k1, k2=k2, k3=k3, k4=k4,
        p=init.p, q=init.q, offcore_threshold=init.offcore_threshold,
    )


def residual_sse(runs: Sequence[CalibrationRun], params: ModelParams) -> float:
    """Sum of squared prediction errors of ``params`` over a run set."""
    X, y = _design(runs, params)
    coef = np.array([params.k1, params.k2, params.k3, params.k4])
    resid = X @ coef - y
    return float(resid @ resid)


def write_calibration_csv(runs: Sequence[CalibrationRun], path: str | Path) -> None:
    write_run_pairs([r.pair for r in runs], path, extra={"kind": [r.kind for r in runs]})


def read_calibration_csv(path: str | Path) -> list[CalibrationRun]:
    pairs, extras = read_run_pairs(path, extra_columns=("kind",))
    return [CalibrationRun(kind=k, pair=p) for k, p in zip(extras["kind"], pairs)]
