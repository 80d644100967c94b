"""Slowdown measurement and per-source stall decomposition.

Given a local/remote :class:`~suplab.counters.RunPair`, the measured
slowdown is the relative runtime increase, and the stall-based estimate
splits it into store / L1 / L2 / L3 / DRAM components plus an
unattributed residual ("Other").  Components may be negative: a source
can improve on the remote tier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

from .counters import STALL_COUNTERS, STALL_SOURCES, RunPair
from .errors import EmptyInput, ZeroDenominator, require_finite_values, write_table


@dataclass(frozen=True)
class SlowdownReport:
    label: str
    total_measured: float
    total_stall_estimate: float
    total_backend_estimate: float
    components: dict[str, float]
    residual: float

    @cached_property
    def _long_cells(self) -> tuple[str, ...]:
        """The report's breakdown_long.csv values as text, the same as in
        breakdown.csv: write_report_csv stores here the text it formats."""
        return tuple(map(repr, (*map(self.components.__getitem__, STALL_SOURCES),
                                self.residual, self.total_measured)))


def measure_slowdown(rp: RunPair) -> float:
    """Relative runtime increase; negative means the remote tier was faster."""
    if rp.local_runtime == 0:
        raise ZeroDenominator("local_runtime is zero")
    return (rp.remote_runtime - rp.local_runtime) / rp.local_runtime


def decompose(rp: RunPair) -> SlowdownReport:
    """Split the stall-cycle delta into the five backend sources.

    Deltas are normalized by the local run's total cycles; the residual is
    whatever part of the backend-stall delta the five sources do not cover,
    so components + residual always reconstruct the backend estimate.
    """
    c = rp.local.total_cycles
    if c == 0:
        raise ZeroDenominator("local total_cycles is zero")
    components = {
        src: (getattr(rp.remote, f) - getattr(rp.local, f)) / c
        for src, f in STALL_COUNTERS.items()
    }
    stall_est = (rp.remote.stall_cycles_total - rp.local.stall_cycles_total) / c
    backend_est = (rp.remote.backend_stall_cycles - rp.local.backend_stall_cycles) / c
    residual = backend_est - sum(components.values())
    return SlowdownReport(
        label=rp.label,
        total_measured=measure_slowdown(rp),
        total_stall_estimate=stall_est,
        total_backend_estimate=backend_est,
        components=components,
        residual=residual,
    )


class AccuracyCdf:
    """Sorted |estimate - measured| distribution with quantile lookup."""

    def __init__(self, diffs: Sequence[float]):
        if len(diffs) == 0:
            raise EmptyInput("no difference samples")
        self.diffs = sorted(abs(d) for d in diffs)

    def quantile(self, q: float) -> float:
        if not 0 < q <= 1:
            raise ValueError("quantile must be in (0, 1]")
        idx = math.ceil(q * len(self.diffs)) - 1
        return self.diffs[idx]

    def fraction_within(self, tol: float) -> float:
        return sum(1 for d in self.diffs if d <= tol) / len(self.diffs)


def estimate_accuracy(reports: Sequence[SlowdownReport], which: str = "stall") -> AccuracyCdf:
    """CDF of |stall-based estimate - measured slowdown| over decomposed pairs."""
    if not reports:
        raise EmptyInput("no run pairs")
    if which not in ("stall", "backend"):
        raise ValueError("which must be 'stall' or 'backend'")
    return AccuracyCdf([getattr(r, f"total_{which}_estimate") - r.total_measured for r in reports])


def write_report_csv(reports: Sequence[SlowdownReport], path: str | Path) -> None:
    """One row per pair: measured, estimates, five components, residual."""
    attrs = ("total_measured", "total_stall_estimate", "total_backend_estimate")
    header = ["measured", "stall_estimate", "backend_estimate",
              *(f"comp_{src}" for src in STALL_SOURCES), "residual"]
    columns = ([[getattr(r, a) for r in reports] for a in attrs]
               + [[r.components[src] for r in reports] for src in STALL_SOURCES]
               + [[r.residual for r in reports]])
    for name, column in zip(header, columns):
        require_finite_values(path, name, column)
    text = [list(map(repr, column)) for column in columns]
    for r, cells in zip(reports, zip(*text[3:], text[0])):
        object.__setattr__(r, "_long_cells", cells)   # what reading r._long_cells would cache
    write_table(path, ["label", *header], [[r.label for r in reports], *text])


def write_report_long_csv(reports: Sequence[SlowdownReport], path: str | Path) -> None:
    """Stacked-bar-friendly long format: one (label, source, value) row each."""
    sources = (*STALL_SOURCES, "other", "measured")
    require_finite_values(path, "value", [v for r in reports for v in (
        *map(r.components.__getitem__, STALL_SOURCES), r.residual, r.total_measured)])
    write_table(
        path, ["label", "source", "value"],
        [[r.label for r in reports for _ in sources], sources * len(reports),
         [c for r in reports for c in r._long_cells]],
    )
