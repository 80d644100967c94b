"""Reference queueing curve and ratio scan: the branchy scalar
``queueing_delay_ns``, the per-point scan loop and the Python-key minimum
that ``suplab.devmodel`` and ``suplab.interleave`` replaced with one curve for
floats and arrays, one array kernel over the grid and an ``argmin``.

Kept unchanged as the oracle the live code is checked against
(``test_interleave_oracle.py``): for any workload, device profiles, grid and
jitter, ``suplab.interleave.scan_ratios`` must return the same curve as
:func:`scan_ratios` here, as a ``(grid, 2)`` array rather than a list of
pairs, or raise the same error; and ``best_scan_point`` the same point as
:func:`best_scan_point`.  ``devmodel_oracle`` and ``tiersim_oracle`` read
their latencies from here too, so a change to the live curve cannot hide in
them.
"""

from __future__ import annotations

import numpy as np

from suplab.devmodel import (
    CACHE_STALL_WEIGHT,
    CLOCK_GHZ,
    CPI_BASE,
    KAPPA,
    OTHER_BACKEND_FRAC,
    OVERLOAD_KNEE,
    STORE_STALL_WEIGHT,
    DeviceProfile,
    utilization,
)
from suplab.errors import EmptyInput, InconsistentProfile, InvariantViolation, LoadOutOfRange
from suplab.interleave import MAX_GRID, scan_point_seed


def queueing_delay_ns(dev: DeviceProfile, load: float) -> float:
    """Load-dependent extra latency.

    Follows rho/(1-rho) up to the overload knee, then continues linearly
    (slope matched at the knee) so oversubscribed demand keeps inflating
    latency instead of hitting a pole.
    """
    if load <= 0:
        return 0.0
    if load <= OVERLOAD_KNEE:
        shape = load / (1.0 - load)
    else:
        knee = OVERLOAD_KNEE / (1.0 - OVERLOAD_KNEE)
        slope = 1.0 / (1.0 - OVERLOAD_KNEE) ** 2
        shape = knee + slope * (load - OVERLOAD_KNEE)
    return dev.base_latency_ns * KAPPA * shape


def mean_latency_ns(dev: DeviceProfile, load: float = 0.0) -> float:
    """Expected request latency at the given utilization (body + tail mass)."""
    if load < 0:
        raise LoadOutOfRange(f"load must be >= 0, got {load}")
    return (
        dev.base_latency_ns
        + dev.numa_hop_extra_ns
        + queueing_delay_ns(dev, load)
        + dev.tail_prob * dev.tail_scale_ns
    )


def latency_cycles(dev: DeviceProfile, load: float = 0.0) -> float:
    return mean_latency_ns(dev, load) * CLOCK_GHZ


def _ratio_runtime(w, local, remote, x, lc_l0, seed, jitter_rel) -> float:
    """``simulate_ratio_point`` given the unloaded local latency ``lc_l0``
    (cycles), which is the same at every point of a scan."""
    I = w.instructions
    n_miss = I * w.demand_miss_rate / 1000.0
    rho_l = utilization((1.0 - x) * w.read_bandwidth_demand_gbs, local)
    rho_r = utilization(x * w.read_bandwidth_demand_gbs, remote)
    lc_l = latency_cycles(local, rho_l)
    lc_r = latency_cycles(remote, rho_r)
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
        rng = np.random.default_rng(seed)
        runtime *= 1.0 + rng.normal() * jitter_rel
    return runtime


def scan_ratios(w, local, remote, grid: int = 101, seed: int = 0,
                jitter_rel: float = 0.0) -> list[tuple[float, float]]:
    """Simulated runtime at each ratio on an evenly spaced grid, one point at a time."""
    if not 2 <= grid <= MAX_GRID:
        raise InvariantViolation(f"grid must be in [2, {MAX_GRID}], got {grid}")
    if w.read_bandwidth_demand_gbs > local.bandwidth_cap_gbs + remote.bandwidth_cap_gbs:
        raise InconsistentProfile(
            "bandwidth demand exceeds combined tier capacity; no ratio is feasible"
        )

    lc_l0 = latency_cycles(local, 0.0)
    curve = []
    for j in range(grid):
        x = j / (grid - 1)
        point_seed = scan_point_seed(seed, j) if jitter_rel > 0.0 else 0
        curve.append((x, _ratio_runtime(w, local, remote, x, lc_l0, point_seed, jitter_rel)))
    return curve


def best_scan_point(curve) -> tuple[float, float]:
    """(ratio, runtime) at the scan minimum; first grid point wins ties."""
    if not curve:
        raise EmptyInput("empty scan curve")
    return min(curve, key=lambda pt: (pt[1], pt[0]))
