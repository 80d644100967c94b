"""Weighted-interleaving ratio prediction and brute-force ratio scanning.

Bandwidth-bound workloads can beat all-local placement by spreading
demand across both tiers; ``scan_ratios`` simulates the full ratio curve
(the oracle), while ``forecast`` predicts the best ratio and speedup from
a single local run via the latency-times-metric predictor and a fitted
per-platform linear map.  Latency-bound workloads get the simple linear
slowdown model ``slowdown_at`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .breakdown import SlowdownReport
from .counters import CounterLog, amortized_offcore_latency, cycle_share, select
from .devmodel import (
    CACHE_STALL_WEIGHT,
    CLOCK_GHZ,
    CPI_BASE,
    OTHER_BACKEND_FRAC,
    STORE_STALL_WEIGHT,
    DeviceProfile,
    WorkloadProfile,
    latency_cycles,
    local_snapshot,
    mean_latency_ns,
    utilization,
)
from .errors import (EmptyInput, InconsistentProfile, InvariantViolation, MissingFit,
                     NoDemandReads, Checked, JsonConfig, write_table)
from .model import ModelParams, classify_sensitivity, metric_cache, metric_dram, metric_store

# Cap on scan_ratios' grid.  At the cap `interleave scan` took 1.8-2.5 s and peaked at
# 92 MB RSS (2-CPU Xeon host, numpy 2.4): 0.1 s for the grid, the rest writing scan.csv.
MAX_GRID = 1_000_001


@dataclass(frozen=True)
class InterleaveRatio(Checked):
    """Remote-page fraction x = N/(M+N) of an M:N weighted-interleave setup."""

    remote_fraction: float

    _BOUNDS = {"remote_fraction": ((">=", 0), ("<=", 1))}


@dataclass(frozen=True)
class InterleaveFit(JsonConfig):
    """Per-platform linear maps from the R predictor to speedup and ratio."""

    platform: str
    ratio_slope: float
    ratio_intercept: float
    speedup_slope: float
    speedup_intercept: float


@dataclass(frozen=True)
class InterleaveForecast:
    """One forecast or, field by field, a column of them (one per row of a CounterLog)."""

    label: str
    r_dram: float
    r_cache: float
    r_store: float
    best_remote_fraction: float
    predicted_speedup: float
    beneficial: bool

    def __post_init__(self):
        if np.any(np.logical_and(self.beneficial, np.less_equal(self.predicted_speedup, 0))):
            raise InvariantViolation("beneficial forecasts must predict positive speedup")

    @property
    def best_ratio(self) -> InterleaveRatio:
        return InterleaveRatio(self.best_remote_fraction)


def slowdown_at(x: float, components: SlowdownReport) -> float:
    """Linear latency-bound model: slowdown at remote fraction x.

    Scales the full-remote per-source slowdown sum (DRAM + cache + store,
    residual excluded) by the fraction of pages placed remote.
    """
    total = sum(components.components.values())
    return x * total


@np.errstate(over="ignore", invalid="ignore")   # an infinite predictor is reported by the writer
def r_components(s, params: ModelParams) -> tuple[float, float, float]:
    """Latency-weighted per-source predictors (one shared offcore latency), for a
    snapshot or each row of a CounterLog."""
    lam = amortized_offcore_latency(s)
    return (
        metric_dram(s, params) * lam,
        metric_cache(s) * lam,
        metric_store(s) * lam,
    )


def scan_point_seed(seed: int, index: int) -> int:
    """Derived per-ratio seed: a point's jitter depends only on (seed, index)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def simulate_ratio_point(
    w: WorkloadProfile,
    local: DeviceProfile,
    remote: DeviceProfile,
    x: float,
    seed: int = 0,
    jitter_rel: float = 0.0,
) -> float:
    """Estimated runtime (seconds) with fraction ``x`` of pages on the remote tier:
    the scan's kernel at one point, its jitter drawn from ``seed``."""
    if not 0.0 <= x <= 1.0:
        raise InvariantViolation("ratio must be in [0, 1]")
    return _runtimes(w, local, remote, np.array([x], dtype=float), [seed], jitter_rel).item()


@np.errstate(over="ignore", invalid="ignore")   # a non-finite runtime is reported by the writers
def _runtimes(w, local, remote, x: np.ndarray, seeds, jitter_rel: float) -> np.ndarray:
    """Runtime (seconds) at each remote fraction of ``x``.

    Demand misses and bandwidth split proportionally to the page split;
    each tier serves its share at its own load-dependent latency.  x = 0
    is by construction the all-local run and x = 1 the all-remote run.
    With jitter, the runtime at ``x[j]`` is scaled by one normal draw
    seeded by the j-th of ``seeds``; without, no seed is read.
    """
    I = w.instructions
    n_miss = I * w.demand_miss_rate / 1000.0
    lc_l0 = latency_cycles(local, 0.0)
    rho_l = utilization((1.0 - x) * w.read_bandwidth_demand_gbs, local)
    rho_r = utilization(x * w.read_bandwidth_demand_gbs, remote)
    lc_l = mean_latency_ns(local, rho_l) * CLOCK_GHZ
    lc_r = mean_latency_ns(remote, rho_r) * CLOCK_GHZ
    mixed = (1.0 - x) * lc_l + x * lc_r
    cycles = (
        I * CPI_BASE
        + n_miss * mixed / w.mlp_depth
        + w.store_intensity * I * STORE_STALL_WEIGHT * (mixed / lc_l0)
        + w.prefetch_reliance * I * CACHE_STALL_WEIGHT * (mixed / lc_l0)
        + OTHER_BACKEND_FRAC * I
    )
    runtime = cycles / (CLOCK_GHZ * 1e9)
    if jitter_rel > 0.0:
        runtime *= 1.0 + np.array([np.random.default_rng(s).normal() for s in seeds]) * jitter_rel
    return runtime


def scan_ratios(
    w: WorkloadProfile,
    local: DeviceProfile,
    remote: DeviceProfile,
    grid: int = 101,
    seed: int = 0,
    jitter_rel: float = 0.0,
) -> np.ndarray:
    """Simulated runtime at each ratio on an evenly spaced grid, the whole grid
    evaluated at once: a ``(grid, 2)`` array of ``(remote_fraction, runtime_s)`` rows.

    Points are independent simulations.  With jitter, each point draws its
    noise from its own derived seed (``scan_point_seed``); without, the
    seed is unused and none is derived.
    """
    if not 2 <= grid <= MAX_GRID:
        raise InvariantViolation(f"grid must be in [2, {MAX_GRID}], got {grid}")
    if w.read_bandwidth_demand_gbs > local.bandwidth_cap_gbs + remote.bandwidth_cap_gbs:
        raise InconsistentProfile(
            "bandwidth demand exceeds combined tier capacity; no ratio is feasible"
        )
    x = np.arange(grid) / (grid - 1)
    seeds = (scan_point_seed(seed, j) for j in range(grid))
    return np.column_stack((x, _runtimes(w, local, remote, x, seeds, jitter_rel)))


def best_scan_point(curve: np.ndarray) -> tuple[float, float]:
    """(ratio, runtime) as floats at the minimum of a ``(grid, 2)`` scan curve, the first
    grid point winning ties.  NaN runtimes are out of scope: ``write_scan_csv`` rejects them."""
    if len(curve) == 0:
        raise EmptyInput("empty scan curve")
    return tuple(curve[np.argmin(curve[:, 1])].tolist())


def fit_interleave(
    workloads: Sequence[WorkloadProfile],
    local: DeviceProfile,
    remote: DeviceProfile,
    params: ModelParams,
    grid: int = 101,
    seed: int = 0,
) -> InterleaveFit:
    """Calibrate the R -> (best ratio, speedup) linear maps from scanned workloads."""
    if len(workloads) < 3:
        raise EmptyInput("interleave fit needs >= 3 scanned workloads")
    rs, xs, gains = [], [], []
    for w in workloads:
        snap = local_snapshot(w, local)
        rs.append(sum(r_components(snap, params)))
        curve = scan_ratios(w, local, remote, grid=grid, seed=seed)
        best_x, best_rt = best_scan_point(curve)
        xs.append(best_x)
        gains.append((curve[0, 1] - best_rt) / curve[0, 1])
    design = np.stack([np.asarray(rs), np.ones(len(rs))], axis=1)
    ratio_coef, *_ = np.linalg.lstsq(design, np.asarray(xs), rcond=None)
    gain_coef, *_ = np.linalg.lstsq(design, np.asarray(gains), rcond=None)
    return InterleaveFit(
        platform=f"{local.name}+{remote.name}",
        ratio_slope=float(ratio_coef[0]),
        ratio_intercept=float(ratio_coef[1]),
        speedup_slope=float(gain_coef[0]),
        speedup_intercept=float(gain_coef[1]),
    )


@np.errstate(over="ignore", invalid="ignore")
def forecast(
    s,
    local: DeviceProfile | None,
    remote: DeviceProfile | None,
    params: ModelParams,
    fit: InterleaveFit | None,
    label="",
) -> InterleaveForecast:
    """One-run interleaving forecast from a local-DRAM snapshot or, with one
    label per row, from each row of a CounterLog.

    Only bandwidth-bound snapshots are flagged beneficial; latency-bound
    workloads keep everything local (their curve is handled by
    ``slowdown_at``).  A log's rows fail in order, as a snapshot at a time
    would: the first row without demand reads or cycles raises once the rows
    before it pass, a row without reads naming the log and the row.
    ``local`` and ``remote`` are not read: the fit carries the platform.
    """
    if isinstance(s, CounterLog):
        stop = np.flatnonzero((s.offcore_demand_requests == 0) | (s.total_cycles == 0))
        if stop.size:
            i = int(stop[0])
            forecast(s[:i], local, remote, params, fit, label[:i])
            if s.offcore_demand_requests[i] == 0:
                raise NoDemandReads(f"{s.source}: row {i + 1}: no offcore demand reads in window")
            cycle_share(s[:i + 1], 0)   # raises ZeroDenominator, naming row i + 1
    r_d, r_c, r_s = r_components(s, params)
    r_total = r_d + r_c + r_s
    gain = select(classify_sensitivity(s, params) == "bandwidth_bound",
                  lambda: _mapped(fit, "speedup", r_total), lambda: 0.0)
    best = select(gain > 0.0, lambda: _clamped(_mapped(fit, "ratio", r_total)), lambda: 0.0)
    if np.isnan(best).any():
        InterleaveRatio(math.nan)   # raises the ratio's own error
    return InterleaveForecast(label, r_d, r_c, r_s, best, gain, gain > 0.0)


def _mapped(fit: InterleaveFit | None, name: str, r_total):
    """The fit's linear map ``name`` ("ratio" or "speedup") at ``r_total``."""
    if fit is None:
        raise MissingFit("bandwidth-bound forecast needs a per-platform InterleaveFit")
    return getattr(fit, f"{name}_slope") * r_total + getattr(fit, f"{name}_intercept")


def _clamped(x):
    """``min(max(x, 0.0), 1.0)``, bit for bit: a NaN stays NaN and -0.0 stays -0.0."""
    x = select(0.0 > x, lambda: 0.0, lambda: x)
    return select(1.0 < x, lambda: 1.0, lambda: x)


def write_scan_csv(curve: np.ndarray, path: str | Path) -> None:
    """Write a ``(grid, 2)`` scan curve, or a list of its rows, column by column."""
    write_table(path, ["remote_fraction", "runtime_s"], list(np.reshape(curve, (-1, 2)).T))


def write_forecast_csv(forecasts: InterleaveForecast, path: str | Path) -> None:
    """An InterleaveForecast of columns, one CSV row per row of its log."""
    header = ["label", "r_dram", "r_cache", "r_store", "best_remote_fraction",
              "predicted_speedup", "beneficial"]
    write_table(path, header, [*(getattr(forecasts, a) for a in header[:-1]),
                               np.where(forecasts.beneficial, "true", "false")])
