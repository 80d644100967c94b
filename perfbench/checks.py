"""Output checks for one CLI op, and the per-op output summary.

Each check reads what the op wrote and tests properties the repository's own
tests assert, with their tolerances.  It raises ``CheckFailed`` on the first
violation, or returns a summary: the figures that matter (counts exact,
floats as the program wrote them) plus a SHA-256 of every output file except
``manifest.json``, so two runs or two commits can be compared for identical
results.  Checks read files only and do not import suplab.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

CONSERVATION_TOL = 1e-12   # tests/test_acceptance.py criterion 1
CALIBRATION_TOL = 1e-9     # tests/test_calibrate.py noiseless round trips
PARAM_KEYS = ("k1", "k2", "k3", "k4", "p", "q", "offcore_threshold")


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rows(path: Path) -> list[dict]:
    _require(path.is_file(), f"missing output {path.name}")
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path):
    _require(path.is_file(), f"missing output {path.name}")
    return json.loads(path.read_text())


def _sha256(path: Path) -> str:
    with path.open("rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def file_digests(out: Path) -> dict[str, str]:
    _require((out / "manifest.json").is_file(), "missing manifest.json")
    return {
        p.name: _sha256(p)
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def check_tiersim(out: Path, epochs: int, policies: tuple[str, ...]) -> dict:
    rows = _json(out / "comparison.json")
    _require([r["policy"] for r in rows] == list(policies),
             f"comparison.json policies {[r['policy'] for r in rows]} != {list(policies)}")
    by = {r["policy"]: r for r in rows}
    epoch_rows = {}
    for pol in policies:
        series = _rows(out / f"epochs_{pol}.csv")
        _require(len(series) == epochs,
                 f"epochs_{pol}.csv has {len(series)} rows, trace has {epochs} epochs")
        promoted = sum(int(r["promo_rate"]) for r in series)
        _require(promoted == by[pol]["promotions"],
                 f"{pol}: promo_rate sums to {promoted}, "
                 f"comparison.json says {by[pol]['promotions']}")
        epoch_rows[pol] = len(series)
    if "first_touch" in by:
        _require(by["first_touch"]["promotions"] == 0, "first_touch promoted pages")
    if "alto" in by and "tpp" in by:
        _require(by["alto"]["promotions"] <= by["tpp"]["promotions"],
                 "alto promoted more pages than tpp")
    return {"comparison": rows, "epoch_rows": epoch_rows, "files": file_digests(out)}


def check_ingest(out: Path, expected: list[dict[str, int]]) -> dict:
    rows = _rows(out / "snapshots.csv")
    _require(len(rows) == len(expected),
             f"snapshots.csv has {len(rows)} rows, input has {len(expected)}")
    for i, (got, want) in enumerate(zip(rows, expected), start=1):
        _require({k: int(v) for k, v in got.items()} == want,
                 f"snapshots.csv row {i} does not round-trip the input counts")
    derived = _json(out / "derived.json")
    _require(len(derived) == len(expected), "derived.json row count differs from input")
    return {"rows": len(rows), "files": file_digests(out)}


def check_breakdown(out: Path, n_pairs: int) -> dict:
    rows = _rows(out / "breakdown.csv")
    _require(len(rows) == n_pairs, f"breakdown.csv has {len(rows)} rows, input has {n_pairs}")
    for r in rows:
        comps = sum(float(v) for k, v in r.items() if k.startswith("comp_"))
        gap = abs(comps + float(r["residual"]) - float(r["backend_estimate"]))
        _require(gap <= CONSERVATION_TOL, f"{r['label']}: conservation gap {gap!r}")
    long_rows = _rows(out / "breakdown_long.csv")
    _require(len(long_rows) == 7 * n_pairs, "breakdown_long.csv row count is not 7 per pair")
    acc = _json(out / "accuracy.json")
    _require(acc["pairs"] == n_pairs, "accuracy.json pair count differs from input")
    _require(0.0 <= acc["within_0.05"] <= 1.0, "accuracy.json fraction outside [0, 1]")
    return {"pairs": n_pairs, "accuracy": acc, "files": file_digests(out)}


def check_predict(out: Path, n_rows: int, params: dict) -> dict:
    rows = _rows(out / "predictions.csv")
    _require(len(rows) == n_rows, f"predictions.csv has {len(rows)} rows, input has {n_rows}")
    k1, k2, k3, k4 = (params[k] for k in ("k1", "k2", "k3", "k4"))
    for r in rows:
        s_pred = float(r["s_pred"])
        want = k1 * float(r["m_dram"]) + k2 * float(r["m_cache"]) + k3 * float(r["m_store"]) + k4
        _require(abs(s_pred - want) <= 1e-12 * max(1.0, abs(want)),
                 f"{r['label']}: s_pred {s_pred!r} is not the linear model {want!r}")
        _require(r["sensitivity"] in ("latency_bound", "bandwidth_bound"),
                 f"{r['label']}: unknown sensitivity {r['sensitivity']!r}")
    bandwidth = sum(r["sensitivity"] == "bandwidth_bound" for r in rows)
    return {"rows": n_rows, "bandwidth_bound": bandwidth, "files": file_digests(out)}


def check_calibrate(out: Path, truth: dict | None) -> dict:
    fit = _json(out / "params.json")
    _require(sorted(fit) == sorted(PARAM_KEYS), f"params.json keys {sorted(fit)}")
    _require(all(math.isfinite(v) for v in fit.values()), "params.json has a non-finite value")
    _require(fit["k1"] > 0 and fit["q"] > 0, "params.json violates k1 > 0, q > 0")
    if truth is not None:
        for k in PARAM_KEYS:
            err = abs(fit[k] - truth[k])
            _require(err <= CALIBRATION_TOL * max(abs(truth[k]), 1.0),
                     f"noiseless fit {k}={fit[k]!r} is {err:.3g} from {truth[k]!r}")
    return {"params": fit, "files": file_digests(out)}


def check_scan(out: Path, grid: int) -> dict:
    rows = _rows(out / "scan.csv")
    _require(len(rows) == grid, f"scan.csv has {len(rows)} rows, grid is {grid}")
    curve = [(float(r["remote_fraction"]), float(r["runtime_s"])) for r in rows]
    for j, (x, rt) in enumerate(curve):
        _require(x == j / (grid - 1), f"scan.csv row {j}: ratio {x!r} off the grid")
        _require(math.isfinite(rt) and rt > 0, f"scan.csv row {j}: runtime {rt!r}")
    best_x, best_rt = min(curve, key=lambda pt: (pt[1], pt[0]))
    best = _json(out / "scan_best.json")
    _require((best["remote_fraction"], best["runtime_s"]) == (best_x, best_rt),
             f"scan_best.json {best} is not the minimum row ({best_x!r}, {best_rt!r})")
    return {"grid": grid, "best": best, "files": file_digests(out)}


def check_forecast(out: Path, n_rows: int) -> dict:
    rows = _rows(out / "forecast.csv")
    _require(len(rows) == n_rows, f"forecast.csv has {len(rows)} rows, input has {n_rows}")
    beneficial = 0
    for r in rows:
        x = float(r["best_remote_fraction"])
        if r["beneficial"] == "true":
            beneficial += 1
            _require(float(r["predicted_speedup"]) > 0, f"{r['label']}: beneficial, no gain")
            _require(0.0 <= x <= 1.0, f"{r['label']}: ratio {x!r} outside [0, 1]")
        else:
            _require(r["beneficial"] == "false" and x == 0.0,
                     f"{r['label']}: non-beneficial forecast moves pages")
    return {"rows": n_rows, "beneficial": beneficial, "files": file_digests(out)}


def _nearest_rank(sorted_values, q: float) -> float:
    return float(sorted_values[math.ceil(q * len(sorted_values)) - 1])


def check_latcdf(out: Path, n: int, dumped: bool) -> dict:
    rows = _rows(out / "percentiles.csv")
    qs = [float(r["q"]) for r in rows]
    ns = [float(r["ns"]) for r in rows]
    _require(qs == sorted(qs) and len(set(qs)) == len(qs), "percentile levels not ascending")
    _require(all(a <= b for a, b in zip(ns, ns[1:])), f"percentiles not monotone: {ns}")
    pct = dict(zip(qs, ns))
    summary = _json(out / "summary.json")
    _require(summary["n"] == n, f"summary.json n={summary['n']}, asked for {n}")
    _require(summary["p50"] == pct[0.5] and summary["p99.9"] == pct[0.999],
             "summary.json disagrees with percentiles.csv")
    if dumped:
        path = out / "samples.csv"
        _require(path.is_file(), "missing output samples.csv")
        with path.open() as fh:
            _require(fh.readline() == "latency_ns\n", "samples.csv header is not latency_ns")
            # One float array, not a dict per row: this runs in the measured
            # process, whose peak memory is a metric.
            samples = np.sort(np.loadtxt(fh, dtype=float, ndmin=1))
        _require(len(samples) == n, f"samples.csv has {len(samples)} rows, asked for {n}")
        for q, v in pct.items():
            _require(_nearest_rank(samples, q) == v,
                     f"percentile {q} of samples.csv differs from percentiles.csv")
    return {"percentiles": [[r["q"], r["ns"]] for r in rows], "files": file_digests(out)}
