"""Reference breakdown: the per-pair ``decompose``, its ``SlowdownReport``
with the ``_long_cells`` text cache, and the report writers that read those
objects, which ``suplab.breakdown`` replaced with one column kernel
(``decompose_table``) whose rows the writers take directly.

Kept unchanged as the oracle ``test_breakdown_oracle.py`` checks against:
for any pairs table, ``decompose_table``'s rows must equal the reports of
:func:`decompose` here bit for bit, or both raise the same error, and the
report CSVs must be byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

from suplab.breakdown import measure_slowdown
from suplab.counters import STALL_COUNTERS, STALL_SOURCES, RunPair
from suplab.errors import ZeroDenominator, require_finite_values, write_table


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
