"""The kernels over a CounterLog's columns against ``model_oracle``'s per-row
calls, and the counter CLI's files against the per-row pipeline: bit-equal
values, byte-identical ``snapshots.csv``, ``derived.json``, ``predictions.csv``
and ``forecast.csv``, or the same error.  The logs hold counts near 2**53, sums
past it, counts past int64 up to FLOAT_MAX, zero total cycles, zero demand
reads and, in files, cells that are not plain integer text."""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import counters_oracle
import model_oracle as oracle
import writers_oracle
from suplab import cli
from suplab import counters as cnt
from suplab import devmodel as dm
from suplab import interleave as il
from suplab import model as mdl
from suplab.errors import FLOAT_MAX, SupLabError

TOP = int(FLOAT_MAX)
EXACT = cnt.EXACT_MAX
COUNTS = st.one_of(
    st.integers(0, 10**6), st.integers(0, 2**62), st.integers(EXACT - 3, EXACT + 3),
    st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 + 1, 10**30, 10**300, TOP]),
)
REALS = st.one_of(st.floats(1e-3, 1e3), st.integers(1, 2**70),
                  st.sampled_from([5e-324, 1e-300, 1e300, FLOAT_MAX, 2**53 + 1, 2**60 + 1]))


@st.composite
def count_rows(draw) -> dict:
    """One valid snapshot's counts: the nested stall counts in order, occupancy
    at least the request count; sometimes no cycles, no reads, or two
    counts below EXACT_MAX whose sum passes it."""
    total = draw(COUNTS)
    stall = draw(st.integers(0, total))
    backend = draw(st.integers(0, stall))
    mem = draw(st.integers(0, backend))
    row = {f: draw(COUNTS) for f in cnt.COUNTER_FIELDS}
    row.update(total_cycles=total, stall_cycles_total=stall, backend_stall_cycles=backend,
               mem_stall_cycles=mem, llc_miss_demand_stall_cycles=draw(st.integers(0, mem)))
    edit = draw(st.sampled_from(["none"] * 5 + ["idle", "no reads", "sums", "one read"]))
    if edit == "idle":
        row.update(dict.fromkeys(["total_cycles", "stall_cycles_total", "backend_stall_cycles",
                                  "mem_stall_cycles", "llc_miss_demand_stall_cycles"], 0))
    elif edit == "sums":   # each part exact in float64, the sum not
        for f in ("l1_demand_hits", "lfb_hits", "l2_prefetch_l3_miss", "l2_prefetch_l3_hit"):
            row[f] = draw(st.integers(2**52, EXACT))
    requests = 0 if edit == "no reads" else 1 if edit == "one read" else draw(COUNTS)
    row.update(offcore_demand_requests=requests,
               offcore_demand_occupancy=min(requests + draw(COUNTS), TOP))
    return row


@st.composite
def model_inputs(draw):
    """Rows, params and a fit.  The cutoff is sometimes a row's own latency,
    or an int that is not a float, with the row's occupancy on either side of it,
    or a small int that a row's latency meets only in float64."""
    rows = draw(st.lists(count_rows(), max_size=6))
    threshold = draw(REALS)
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row["offcore_demand_requests"] = 1
        threshold = draw(st.integers(EXACT, 2**60))
        row["offcore_demand_occupancy"] = draw(st.sampled_from([threshold, threshold + 1, threshold - 1,
                                                                int(float(threshold))]))
    elif rows and draw(st.booleans()):   # float64 rounds the requests, so the latency, onto the cutoff
        row = draw(st.sampled_from(rows))
        # each listed count rounds up by 1.5 of its float spacing, so 3 * rounded / count exceeds 3
        requests = draw(st.sampled_from([2**53 + 3, 2**54 + 6, 2**60 + 3 * 2**7]) | st.integers(EXACT, 2**60))
        threshold = draw(st.just(3) | st.integers(1, 1000))
        row["offcore_demand_requests"] = requests
        row["offcore_demand_occupancy"] = threshold * int(float(requests)) + draw(st.just(0) | st.integers(-2, 2))
        rows = draw(st.sampled_from([rows, [row]]))   # alone, no other row's label sizes the column
    params = mdl.ModelParams(k1=draw(REALS), k2=draw(REALS), k3=draw(REALS),
                             k4=draw(st.floats(-1, 1) | st.integers(-5, 5)), p=draw(REALS | st.just(0)),
                             q=draw(REALS), offcore_threshold=threshold)
    maps = st.floats(-2, 2) | st.sampled_from([0.0, -0.0, 1e300, -1e300])
    fit = il.InterleaveFit("p", *(draw(maps) for _ in range(4)))
    return rows, params, fit


def outcome(call):
    """``repr`` of what ``call()`` returns (-0.0, NaN and Python types show), or its
    error's type and message."""
    try:
        return repr(call())
    except SupLabError as exc:
        return type(exc).__name__, str(exc)


def prediction_rows(p: mdl.Prediction) -> list[tuple]:
    return list(zip(p.label, p.m_dram.tolist(), p.m_cache.tolist(), p.m_store.tolist(),
                    p.s_pred.tolist(), p.sensitivity.tolist()))


def forecast_rows(f: il.InterleaveForecast) -> list[tuple]:
    return list(zip(f.label, f.r_dram.tolist(), f.r_cache.tolist(), f.r_store.tolist(),
                    f.best_remote_fraction.tolist(), f.predicted_speedup.tolist(), f.beneficial.tolist()))


def oracle_forecast_rows(fcs) -> list[tuple]:
    return [(f.label, f.r_dram, f.r_cache, f.r_store, f.best_ratio.remote_fraction,
             f.predicted_speedup, f.beneficial) for f in fcs]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=120, deadline=None)
@given(inputs=model_inputs(), scale=st.sampled_from([None, 0.5, 1e-9, 0.37]))
def test_kernels_equal_per_row_calls(inputs, scale):
    """Each column equals the oracle row by row, on int counts or, scaled, on
    float counts as ``demo`` synthesizes them."""
    rows, params, fit = inputs
    snaps = [cnt.CounterSnapshot(**r) for r in rows]
    if scale is not None:
        snaps = [s.scaled(scale) for s in snaps]
    log = cnt.counter_log(snaps)
    labels = [f"row-{i}" for i in range(len(snaps))]
    assert (outcome(lambda: prediction_rows(mdl.predict(log, params, labels)))
            == outcome(lambda: [tuple(vars(p).values()) for p in oracle.predictions(snaps, params, "snapshots")]))
    assert (outcome(lambda: forecast_rows(il.forecast(log, dm.PRESETS["local-emr"], dm.PRESETS["cxl-a"],
                                                      params, fit, labels)))
            == outcome(lambda: oracle_forecast_rows(oracle.forecasts(snaps, params, fit, "snapshots"))))
    reads = [s for s in snaps if s.offcore_demand_requests > 0]
    windows = [s for s in snaps if s.total_cycles > 0]
    assert (repr(cnt.amortized_offcore_latency(log[log.offcore_demand_requests > 0]).tolist())
            == repr([oracle.amortized_offcore_latency(s) for s in reads]))
    fracs = cnt.stall_fractions(log[log.total_cycles > 0])
    assert (repr({k: v.tolist() for k, v in fracs.items()})
            == repr({k: [oracle.stall_fractions(s)[k] for s in windows] for k in cnt.STALL_COUNTERS}))


def test_fitless_forecast_of_latency_bound_rows():
    """Without a fit, latency-bound rows forecast nothing and a bandwidth-bound row
    raises MissingFit, for a log as for its rows one by one."""
    w = dm.make_latency_bound_suite(3, seed=1)
    snaps = [dm.local_snapshot(x, dm.PRESETS["local-emr"]) for x in w]
    params = dm.make_reference_params(dm.PRESETS["local-emr"], dm.PRESETS["cxl-a"])
    fc = il.forecast(cnt.counter_log(snaps), None, None, params, None, ["a", "b", "c"])
    assert fc.best_remote_fraction.tolist() == [0.0] * 3 and not fc.beneficial.any()
    strict = mdl.ModelParams(**{**vars(params), "offcore_threshold": 1e-300})
    got = outcome(lambda: il.forecast(cnt.counter_log(snaps), None, None, strict, None, list("abc")))
    assert got == outcome(lambda: oracle.forecasts(snaps, strict, None, "snapshots"))
    assert got[0] == "MissingFit"


# --- the CLI's files against the per-row pipeline ------------------------------

def _spellings(v: int) -> list[str]:
    """Ways a CSV cell can hold ``v``: plain, padded, signed, quoted, with an
    underscore, and as a float's text (which float() may round)."""
    text = str(v)
    return [text, text, text, f" {v} ", f"+{v}", f'"{v}"', f"{text[0]}_{text[1:]}" if v > 9 else text,
            f"{v}e0" if v < 10**300 else text]


def _expected_writer_error(name: str, header: list[str], columns: list[list]) -> str | None:
    """write_table's error for the first float column holding a NaN or an infinity."""
    for column, values in zip(header, columns):
        if values and isinstance(values[0], float) and not all(map(math.isfinite, values)):
            return f"{name}: {column} holds a NaN or an infinity"
    return None


def _reference(command: str, log: Path, fmt: str, params, fit, out: Path):
    """What the per-row pipeline writes for ``command``, or its error's message."""
    try:
        snaps = counters_oracle.ingest_counter_log(log, fmt)
        out.mkdir()
        if command == "ingest":
            writers_oracle.write_counter_log(snaps, out / "snapshots.csv")
            writers_oracle.write_derived_json(snaps, out / "derived.json")
            return None
        if command == "predict":
            preds = oracle.predictions(snaps, params, log)
            header = ["label", "m_dram", "m_cache", "m_store", "s_pred", "sensitivity"]
            columns = [[getattr(p, a) for p in preds] for a in header]
            error = _expected_writer_error("predictions.csv", header, columns)
            return error or writers_oracle.write_predictions_csv(preds, out / "predictions.csv")
        fcs = oracle.forecasts(snaps, params, fit, log)
        rows = oracle_forecast_rows(fcs)
        header = ["label", "r_dram", "r_cache", "r_store", "best_remote_fraction", "predicted_speedup"]
        error = _expected_writer_error("forecast.csv", header, [list(c) for c in zip(*rows)] if rows else [])
        return error or writers_oracle.write_forecast_csv(fcs, out / "forecast.csv")
    except SupLabError as exc:
        return str(exc)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(inputs=model_inputs(), data=st.data(), fmt=st.sampled_from(["csv", "json"]),
       command=st.sampled_from(["ingest", "predict", "forecast"]))
def test_cli_files_equal_per_row_pipeline(inputs, data, fmt, command):
    rows, params, fit = inputs
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        log = d / f"log.{fmt}"
        if fmt == "json":
            log.write_text(json.dumps(rows))
        else:
            log.write_text("".join(",".join(cells) + "\n" for cells in [cnt.COUNTER_FIELDS, *(
                [data.draw(st.sampled_from(_spellings(v))) for v in row.values()] for row in rows)]))
        params.to_json(d / "params.json")
        fit.to_json(d / "fit.json")
        argv = {"ingest": ["ingest"],
                "predict": ["predict", "--params", str(d / "params.json")],
                "forecast": ["interleave", "forecast", "--params", str(d / "params.json"),
                             "--fit", str(d / "fit.json")]}[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run([*argv, "--format", fmt, "--input", str(log), "--out", str(d / "new")])
        expected = _reference(command, log, fmt, params, fit, d / "old")
        if expected is not None:
            assert (rc, err.getvalue()) == (2, f"error: {expected}\n")
            return
        assert rc == 0
        for f in (d / "old").iterdir():
            assert (d / "new" / f.name).read_bytes() == f.read_bytes(), f.name


def test_forecast_raises_for_the_first_row_to_fail():
    """A log's forecast raises the error of its first failing row, as the rows
    one by one do: a NaN best ratio in row 1 before row 3's missing reads, and
    a row without cycles before a later row without reads."""
    snaps = [dm.local_snapshot(w, dm.PRESETS["local-emr"]) for w in dm.make_workload_suite(4, seed=2)]
    params = dm.make_reference_params(dm.PRESETS["local-emr"], dm.PRESETS["cxl-a"])
    fit = il.InterleaveFit("p", ratio_slope=0.0, ratio_intercept=0.0, speedup_slope=1.0, speedup_intercept=0.0)
    no_reads = cnt.CounterSnapshot(**{**vars(snaps[2]), "offcore_demand_requests": 0,
                                      "offcore_demand_occupancy": 0})
    idle = cnt.CounterSnapshot(**{**vars(snaps[1]), **dict.fromkeys(
        ["total_cycles", "stall_cycles_total", "backend_stall_cycles", "mem_stall_cycles",
         "llc_miss_demand_stall_cycles"], 0)})
    # q below the float range's reciprocal: M_dram, R and the gain are infinite, the ratio NaN
    overflow = mdl.ModelParams(**{**vars(params), "q": 1e-320, "p": 0.0, "offcore_threshold": 1e-300})
    for rows, p, error in (([snaps[0], snaps[1], no_reads, snaps[3]], params, "NoDemandReads"),
                           ([snaps[0], snaps[1], no_reads, snaps[3]], overflow, "InvariantViolation"),
                           ([snaps[0], idle, no_reads, snaps[3]], params, "ZeroDenominator")):
        labels = [f"row-{i}" for i in range(len(rows))]
        got = outcome(lambda: forecast_rows(il.forecast(cnt.counter_log(rows), None, None,
                                                        p, fit, labels)))
        assert got == outcome(lambda: oracle_forecast_rows(oracle.forecasts(rows, p, fit, "snapshots")))
        assert got[0] == error
    assert got[1] == "snapshots: row 2: total_cycles is zero"


def test_edges_a_column_meets_as_a_number():
    """A float row whose latency is exactly the float an int cutoff rounds up to
    is above the cutoff, and a ratio map of -0.0 clamps to -0.0: as row by row."""
    snap = dm.local_snapshot(dm.make_bandwidth_bound_suite(1, seed=1)[0], dm.PRESETS["local-emr"])
    snap = cnt.CounterSnapshot(**{**vars(snap), "offcore_demand_requests": 2.0**-10,
                                  "offcore_demand_occupancy": 2.0**52})   # latency 2**62
    params = dm.make_reference_params(dm.PRESETS["local-emr"], dm.PRESETS["cxl-a"])
    params = mdl.ModelParams(**{**vars(params), "offcore_threshold": 2**62 - 1})
    fit = il.InterleaveFit("p", ratio_slope=-0.0, ratio_intercept=-0.0,
                           speedup_slope=1.0, speedup_intercept=1.0)
    log = cnt.counter_log([snap, snap])
    assert mdl.classify_sensitivity(log, params).tolist() == [oracle.classify_sensitivity(snap, params)] * 2
    assert oracle.classify_sensitivity(snap, params) == "bandwidth_bound"
    fc = il.forecast(log, None, None, params, fit, ["a", "b"])
    best = oracle.forecast(snap, params, fit).best_ratio.remote_fraction
    assert repr(fc.best_remote_fraction.tolist()) == repr([best] * 2) == "[-0.0, -0.0]"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["predict", "forecast"])
def test_row_past_exact_max_crossing_the_cutoff(tmp_path, command, fmt):
    """A row whose latency is the cutoff exactly in float64 but above it in exact
    arithmetic, alone in its log: bandwidth bound in the files, as row by row.
    2**53 + 3 requests round to 2**53 + 4, three times which is the occupancy."""
    row = dict.fromkeys(cnt.COUNTER_FIELDS, 0)
    row.update(total_cycles=10**6, instructions=10**6,
               offcore_demand_requests=2**53 + 3, offcore_demand_occupancy=3 * 2**53 + 12)
    rows = [row]
    params = mdl.ModelParams(k1=1.0, k2=1.0, k3=1.0, k4=0.0, p=1.0, q=1.0, offcore_threshold=3)
    fit = il.InterleaveFit("p", ratio_slope=0.0, ratio_intercept=0.25, speedup_slope=0.0, speedup_intercept=0.1)
    log = tmp_path / f"log.{fmt}"
    if fmt == "json":
        log.write_text(json.dumps(rows))
    else:
        log.write_text(",".join(cnt.COUNTER_FIELDS) + "\n" + ",".join(map(str, row.values())) + "\n")
    params.to_json(tmp_path / "params.json")
    fit.to_json(tmp_path / "fit.json")
    argv = {"predict": ["predict", "--params", str(tmp_path / "params.json")],
            "forecast": ["interleave", "forecast", "--params", str(tmp_path / "params.json"),
                         "--fit", str(tmp_path / "fit.json")]}[command]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run([*argv, "--format", fmt, "--input", str(log), "--out", str(tmp_path / "new")])
    assert rc == 0
    assert _reference(command, log, fmt, params, fit, tmp_path / "old") is None
    name = {"predict": "predictions.csv", "forecast": "forecast.csv"}[command]
    assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
    snap = counters_oracle.ingest_counter_log(log, fmt)[0]
    assert oracle.classify_sensitivity(snap, params) == "bandwidth_bound"
    assert mdl.classify_sensitivity(cnt.ingest_counter_log(log, fmt), params).tolist() == ["bandwidth_bound"]
