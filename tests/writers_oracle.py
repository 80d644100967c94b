"""Reference output writers: the row-by-row ``csv.writer`` and ``repr`` loops,
the inline ``percentiles.csv`` writer, the ``json.dumps``-built
``derived.json`` and ``dump_json`` that suplab replaced with the one
column-wise ``errors.write_table`` and the shape-specific
``counters.write_derived_json``.

Kept unchanged as the oracle the writers are checked against
(``test_writers_oracle.py``): for any valid input, suplab's writers must
write the same bytes as the functions here.  Domain objects and field lists
are suplab's own; only the writing loops live here.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from suplab.breakdown import SlowdownReport
from suplab.calibrate import CalibrationRun
from suplab.counters import (COUNTER_FIELDS, PAIR_FIELDS, STALL_SOURCES, CounterSnapshot,
                             RunPair, amortized_offcore_latency, stall_fractions)
from suplab.devmodel import SAMPLES_CSV_CHUNK
from suplab.interleave import InterleaveForecast
from suplab.model import Prediction
from suplab.tiersim import _TRACE_COLUMNS, PolicyOutcome, TierTrace


def dump_json(path: str | Path, payload) -> None:
    """Write ``payload`` to ``path`` as JSON with sorted keys, two-space
    indents and a final newline: the one layout of every JSON file written."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_derived_json(snapshots: Sequence[CounterSnapshot], path: str | Path) -> None:
    """``derived.json`` as ``suplab ingest`` built and wrote it."""
    rows = [
        {
            "row": i,
            "amortized_offcore_latency": (
                amortized_offcore_latency(s) if s.offcore_demand_requests > 0 else None
            ),
            "stall_fractions": stall_fractions(s) if s.total_cycles > 0 else None,
        }
        for i, s in enumerate(snapshots)
    ]
    dump_json(path, rows)


def write_percentiles_csv(pcts: dict[float, float], qs: Sequence[float], path: str | Path) -> None:
    """``percentiles.csv`` as ``suplab latcdf`` wrote it."""
    Path(path).write_text("q,ns\n" + "".join(f"{q},{pcts[q]!r}\n" for q in qs))


def write_report_csv(reports: Sequence[SlowdownReport], path: str | Path) -> None:
    """One row per pair: measured, estimates, five components, residual."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["label", "measured", "stall_estimate", "backend_estimate"]
            + [f"comp_{src}" for src in STALL_SOURCES]
            + ["residual"]
        )
        for r in reports:
            writer.writerow(
                [r.label, repr(r.total_measured), repr(r.total_stall_estimate),
                 repr(r.total_backend_estimate)]
                + [repr(r.components[src]) for src in STALL_SOURCES]
                + [repr(r.residual)]
            )


def write_report_long_csv(reports: Sequence[SlowdownReport], path: str | Path) -> None:
    """Stacked-bar-friendly long format: one (label, source, value) row each."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "source", "value"])
        for r in reports:
            for src in STALL_SOURCES:
                writer.writerow([r.label, src, repr(r.components[src])])
            writer.writerow([r.label, "other", repr(r.residual)])
            writer.writerow([r.label, "measured", repr(r.total_measured)])


def write_predictions_csv(preds: Sequence[Prediction], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "m_dram", "m_cache", "m_store", "s_pred", "sensitivity"])
        for p in preds:
            writer.writerow(
                [p.label, repr(p.m_dram), repr(p.m_cache), repr(p.m_store),
                 repr(p.s_pred), p.sensitivity]
            )


def write_calibration_csv(runs: Sequence[CalibrationRun], path: str | Path) -> None:
    write_run_pairs([r.pair for r in runs], path, extra={"kind": [r.kind for r in runs]})


def write_scan_csv(curve: Sequence[tuple[float, float]], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["remote_fraction", "runtime_s"])
        for x, rt in curve:
            writer.writerow([repr(x), repr(rt)])


def write_forecast_csv(forecasts: Sequence[InterleaveForecast], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["label", "r_dram", "r_cache", "r_store",
             "best_remote_fraction", "predicted_speedup", "beneficial"]
        )
        for f in forecasts:
            writer.writerow(
                [f.label, repr(f.r_dram), repr(f.r_cache), repr(f.r_store),
                 repr(f.best_ratio.remote_fraction), repr(f.predicted_speedup),
                 str(f.beneficial).lower()]
            )


def write_counter_log(
    snapshots: Sequence[CounterSnapshot], path: str | Path, format: str = "csv"
) -> None:
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format: {format!r}")
    # The interchange schema carries unsigned integer counts.
    rows = [[int(round(getattr(s, f))) for f in COUNTER_FIELDS] for s in snapshots]
    path = Path(path)
    if format == "json":
        payload = [dict(zip(COUNTER_FIELDS, row)) for row in rows]
        dump_json(path, payload)
        return
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNTER_FIELDS)
        writer.writerows(rows)


def write_run_pairs(pairs: Sequence[RunPair], path: str | Path, extra: dict[str, Sequence[str]] | None = None) -> None:
    """Write pairs as CSV; ``extra`` adds leading columns (e.g. calibration kind)."""
    path = Path(path)
    extra = extra or {}
    header = list(extra.keys()) + PAIR_FIELDS
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, p in enumerate(pairs):
            row = [extra[k][i] for k in extra]
            row += [p.label, repr(float(p.local_runtime)), repr(float(p.remote_runtime))]
            row += [repr(float(getattr(p.local, f))) for f in COUNTER_FIELDS]
            row += [repr(float(getattr(p.remote, f))) for f in COUNTER_FIELDS]
            writer.writerow(row)


def epoch_report(outcome: PolicyOutcome) -> list[dict]:
    return [
        {
            "epoch": i,
            "amortized_latency": outcome.amortized_latency_series[i],
            "promo_rate": outcome.promo_rate_series[i],
            "slow_fraction": outcome.slow_tier_access_fraction_series[i],
            "est_slowdown": outcome.est_slowdown_series[i],
        }
        for i in range(len(outcome.promo_rate_series))
    ]


def write_epoch_report_csv(outcome: PolicyOutcome, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "amortized_latency", "promo_rate", "slow_fraction", "est_slowdown"])
        for row in epoch_report(outcome):
            writer.writerow(
                [row["epoch"], repr(row["amortized_latency"]), row["promo_rate"],
                 repr(row["slow_fraction"]), repr(row["est_slowdown"])]
            )


def write_trace(trace: TierTrace, csv_path: str | Path, header_path: str | Path) -> None:
    epochs = np.repeat(np.arange(len(trace.epochs)), np.diff(trace.epoch_offsets))
    rows = np.column_stack((epochs, trace.page_ids, trace.group_sizes))
    with Path(csv_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_COLUMNS)
        writer.writerows(rows.tolist())
    header = {
        "page_count": trace.page_count,
        "wss_pages": trace.wss_pages,
        "epoch_instructions": trace.epoch_instructions,
        "epochs": len(trace.epochs),
    }
    dump_json(header_path, header)


def write_latency_samples_csv(samples: Sequence[float] | np.ndarray, path: str | Path) -> None:
    """Single-column CSV of latency samples in ns, each the ``repr`` of its float;
    formatted and written a chunk at a time, so memory does not grow with the file."""
    arr = np.asarray(samples, dtype=float)
    with Path(path).open("w") as fh:
        fh.write("latency_ns\n")
        for i in range(0, arr.size, SAMPLES_CSV_CHUNK):
            fh.write("\n".join(map(repr, arr[i:i + SAMPLES_CSV_CHUNK].tolist())) + "\n")
