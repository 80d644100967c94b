"""Slowdown measurement and per-source stall decomposition.

Given a local/remote :class:`~suplab.counters.RunPair`, the measured
slowdown is the relative runtime increase, and the stall-based estimate
splits it into store / L1 / L2 / L3 / DRAM components plus an
unattributed residual ("Other").  Components may be negative: a source
can improve on the remote tier.

:func:`decompose_table` decomposes a whole pairs table in one array pass;
its result, one row per pair in the ``REPORT_COLUMNS`` order, is what the
writers and :func:`estimate_accuracy` read.  :func:`decompose` is that
kernel at one pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .counters import COUNTER_FIELDS, STALL_COUNTERS, STALL_SOURCES, RunPair, pairs_table
from .errors import EmptyInput, ZeroDenominator, require_finite_values, write_table

# A breakdown's columns, in breakdown.csv's order, and breakdown_long.csv's
# sources with the column each reads.
REPORT_COLUMNS = ("measured", "stall_estimate", "backend_estimate",
                  *(f"comp_{src}" for src in STALL_SOURCES), "residual")
_LONG_SOURCES = {**{src: f"comp_{src}" for src in STALL_SOURCES},
                 "other": "residual", "measured": "measured"}
_LONG_COLUMNS = [REPORT_COLUMNS.index(column) for column in _LONG_SOURCES.values()]
# The counters whose remote-minus-local delta over the local cycles gives the
# stall and backend estimates and the five components, in REPORT_COLUMNS order.
_DELTAS = [COUNTER_FIELDS.index(f)
           for f in ("stall_cycles_total", "backend_stall_cycles", *STALL_COUNTERS.values())]


@dataclass(frozen=True)
class SlowdownReport:
    label: str
    total_measured: float
    total_stall_estimate: float
    total_backend_estimate: float
    components: dict[str, float]
    residual: float


def measure_slowdown(rp: RunPair) -> float:
    """Relative runtime increase; negative means the remote tier was faster."""
    return (rp.remote_runtime - rp.local_runtime) / rp.local_runtime


@np.errstate(all="ignore")   # a subnormal cycle count overflows to inf, which the writers reject
def decompose_table(pairs: np.ndarray) -> np.ndarray:
    """Each pair of a pairs table (:func:`~suplab.counters.read_pairs_table`'s
    order) split into its stall-cycle deltas: one row per pair, in the
    ``REPORT_COLUMNS`` order.

    Deltas are normalized by the local run's total cycles; the residual is
    whatever part of the backend-stall delta the five sources do not cover,
    so components + residual always reconstruct the backend estimate.
    """
    n = len(COUNTER_FIELDS)
    c = pairs[:, COUNTER_FIELDS.index("total_cycles")]
    if (c == 0).any():
        raise ZeroDenominator("local total_cycles is zero")
    deltas = (pairs[:, n:2 * n][:, _DELTAS] - pairs[:, _DELTAS]) / c[:, None]
    _, backend, *components = deltas.T
    total = components[0] + 0.0   # sum()'s start: -0.0 + 0.0 is 0.0
    for component in components[1:]:
        total = total + component
    local_runtime, remote_runtime = pairs[:, -2], pairs[:, -1]
    return np.column_stack(((remote_runtime - local_runtime) / local_runtime, deltas,
                            backend - total))


def decompose(rp: RunPair) -> SlowdownReport:
    """:func:`decompose_table` at one pair, as Python floats."""
    row = decompose_table(pairs_table([rp]))[0].tolist()
    measured, stall, backend, *components, residual = row
    return SlowdownReport(rp.label, measured, stall, backend,
                          dict(zip(STALL_SOURCES, components)), residual)


class AccuracyCdf:
    """Sorted |estimate - measured| distribution with quantile lookup."""

    def __init__(self, diffs: Sequence[float] | np.ndarray):
        if len(diffs) == 0:
            raise EmptyInput("no difference samples")
        self.diffs = np.sort(np.abs(np.asarray(diffs, dtype=float)))

    def quantile(self, q: float) -> float:
        if not 0 < q <= 1:
            raise ValueError("quantile must be in (0, 1]")
        idx = math.ceil(q * len(self.diffs)) - 1
        return float(self.diffs[idx])

    def fraction_within(self, tol: float) -> float:
        return int(np.count_nonzero(self.diffs <= tol)) / len(self.diffs)


def estimate_accuracy(breakdown: np.ndarray | Sequence[SlowdownReport],
                      which: str = "stall") -> AccuracyCdf:
    """CDF of |stall-based estimate - measured slowdown| over decomposed pairs:
    a :func:`decompose_table` result, or one report per pair."""
    if len(breakdown) == 0:
        raise EmptyInput("no run pairs")
    if which not in ("stall", "backend"):
        raise ValueError("which must be 'stall' or 'backend'")
    if not isinstance(breakdown, np.ndarray):   # the first three REPORT_COLUMNS
        breakdown = np.array([(r.total_measured, r.total_stall_estimate, r.total_backend_estimate)
                              for r in breakdown])
    estimate = breakdown[:, REPORT_COLUMNS.index(f"{which}_estimate")]
    with np.errstate(over="ignore"):   # an infinite difference is reported by dump_json
        return AccuracyCdf(estimate - breakdown[:, 0])


def write_report_csv(labels: Sequence[str], breakdown: np.ndarray, path: str | Path) -> list[list[str]]:
    """One row per pair: label, measured, estimates, five components, residual.
    Returns the ten report columns as the text written, for :func:`write_report_long_csv`."""
    for name, column in zip(REPORT_COLUMNS, breakdown.T):
        require_finite_values(path, name, column)
    text = [list(map(repr, column)) for column in breakdown.T.tolist()]
    write_table(path, ["label", *REPORT_COLUMNS], [labels, *text])
    return text


def write_report_long_csv(labels: Sequence[str], text: Sequence[Sequence[str]], path: str | Path) -> None:
    """Stacked-bar-friendly long format: one (label, source, value) row each, from
    the report columns as :func:`write_report_csv` wrote them."""
    sources = tuple(_LONG_SOURCES)
    write_table(path, ["label", "source", "value"],
                [[label for label in labels for _ in sources], sources * len(labels),
                 [cell for row in zip(*(text[i] for i in _LONG_COLUMNS)) for cell in row]])
