"""suplab's output writers against their row-by-row forms in ``writers_oracle``:
byte-identical files for generated labels (commas, quotes, CR, LF, non-ASCII),
empty inputs, awkward floats (-0.0, subnormals, 1e308), integer counts past
2**53, halves that ``write_counter_log`` rounds, and ``derived.json`` rows with
``null`` cells.  Non-finite values are data errors naming the file."""

from __future__ import annotations

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

import writers_oracle as oracle
from suplab import breakdown as bd
from suplab import calibrate as cal
from suplab import cli
from suplab import counters as cnt
from suplab import devmodel as dm
from suplab import interleave as il
from suplab import model as mdl
from suplab import tiersim as ts
from suplab.errors import (FLOAT_MAX, TABLE_CHUNK, InvariantViolation, dump_json,
                           require_finite_values, write_table)

EXAMPLES = settings(max_examples=15, deadline=None)
SIZES = {"max_size": 6}

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-310, 0.1, 1e308, -1e308, 1.7976931348623157e308]),
)
LABELS = st.text(st.one_of(st.sampled_from(',"\r\n é漢'), st.characters(blacklist_categories=("Cs",))),
                 max_size=8)
# Counts of 0 or at least 1, so every derived ratio is finite, as for an ingested log.
COUNTS = st.one_of(
    st.just(0),
    st.integers(0, 2**70),                                   # past 2**53
    st.integers(0, 10**6).map(lambda k: k + 0.5),            # halves round to even
    st.floats(1.0, 1e300),
)


def assert_same_bytes(new, old, *args, files=("out",)):
    """``new`` and ``old`` called with ``args`` then one path per name in ``files``
    write byte-identical files."""
    with tempfile.TemporaryDirectory() as d:
        Path(d, "new").mkdir()
        Path(d, "old").mkdir()
        new(*args, *(Path(d, "new", f) for f in files))
        old(*args, *(Path(d, "old", f) for f in files))
        for f in files:
            assert Path(d, "new", f).read_bytes() == Path(d, "old", f).read_bytes(), f


@st.composite
def snapshots(draw):
    """A valid CounterSnapshot: the nested stall counts in order, occupancy at
    least the request count, and zeros often enough for ``null`` cells."""
    llc, mem, backend, stall, total = sorted(draw(st.lists(COUNTS, min_size=5, max_size=5)))
    if draw(st.booleans()):
        llc = mem = backend = stall = total = 0               # no stall fractions
    requests = draw(st.one_of(st.just(0), COUNTS))            # 0: no amortized latency
    kw = {f: draw(COUNTS) for f in cnt.COUNTER_FIELDS}
    kw.update(total_cycles=total, stall_cycles_total=stall, backend_stall_cycles=backend,
              mem_stall_cycles=mem, llc_miss_demand_stall_cycles=llc,
              offcore_demand_requests=requests,
              offcore_demand_occupancy=requests + kw["offcore_demand_occupancy"])
    return cnt.CounterSnapshot(**kw)


@st.composite
def run_pairs(draw):
    local, remote = draw(snapshots()), draw(snapshots())
    runtimes = st.floats(5e-324, 1e308)
    return cnt.RunPair(draw(LABELS), local,
                       dataclasses.replace(remote, instructions=local.instructions),
                       draw(runtimes), draw(runtimes))


REPORT_ROWS = st.tuples(LABELS, st.tuples(*[FLOATS] * len(bd.REPORT_COLUMNS)))
PREDICTIONS = st.builds(mdl.Prediction, label=LABELS, m_dram=FLOATS, m_cache=FLOATS,
                        m_store=FLOATS, s_pred=FLOATS,
                        sensitivity=st.sampled_from(["latency_bound", "bandwidth_bound"]))


@st.composite
def forecasts(draw):
    speedup = draw(FLOATS)
    return il.InterleaveForecast(
        label=draw(LABELS), r_dram=draw(FLOATS), r_cache=draw(FLOATS), r_store=draw(FLOATS),
        best_remote_fraction=draw(st.floats(0.0, 1.0)),
        predicted_speedup=speedup, beneficial=speedup > 0 and draw(st.booleans()),
    )


def as_columns(cls, objects):
    """Objects of the dataclass ``cls`` as one object of ``cls`` whose fields are
    columns, the form the live writers take."""
    return cls(*([getattr(o, f.name) for o in objects] for f in dataclasses.fields(cls)))


@st.composite
def outcomes(draw):
    n = draw(st.integers(0, 6))
    series = st.lists(FLOATS, min_size=n, max_size=n)
    return ts.PolicyOutcome(
        policy="alto", simulated_runtime=1.0, allfast_runtime=1.0, promotions=0, demotions=0,
        promo_rate_series=draw(st.lists(st.integers(0, 2**70), min_size=n, max_size=n)),
        amortized_latency_series=draw(series), slow_tier_access_fraction_series=draw(series),
        est_slowdown_series=draw(series),
    )


@st.composite
def traces(draw):
    page_count = draw(st.integers(1, 2**40))
    miss = st.tuples(st.integers(0, page_count - 1), st.integers(1, 2**62))
    epochs = draw(st.lists(st.lists(miss, max_size=4), min_size=1, max_size=4)
                  .filter(lambda es: any(es)))
    return ts.TierTrace(epochs=[ts.TraceEpoch(demand_misses=e) for e in epochs],
                        page_count=page_count, wss_pages=draw(st.integers(0, 2**40)),
                        epoch_instructions=draw(st.floats(1.0, 1e308)))


@EXAMPLES
@given(st.lists(REPORT_ROWS, **SIZES))
def test_breakdown_writers(rows):
    labels = [label for label, _ in rows]
    breakdown = np.array([values for _, values in rows]).reshape(-1, len(bd.REPORT_COLUMNS))
    reports = [bd.SlowdownReport(label, measured, stall, backend,
                                 dict(zip(cnt.STALL_SOURCES, components)), residual)
               for label, (measured, stall, backend, *components, residual) in rows]

    def new(_, path, long_path):   # breakdown_long.csv, from the text of breakdown.csv
        bd.write_report_long_csv(labels, bd.write_report_csv(labels, breakdown, path), long_path)

    def old(reports, path, long_path):
        oracle.write_report_csv(reports, path)
        oracle.write_report_long_csv(reports, long_path)

    assert_same_bytes(new, old, reports, files=("out", "long"))


@EXAMPLES
@given(st.lists(PREDICTIONS, **SIZES))
def test_predictions(preds):
    assert_same_bytes(lambda p: mdl.write_predictions_csv(as_columns(mdl.Prediction, preds), p),
                      lambda p: oracle.write_predictions_csv(preds, p))


@EXAMPLES
@given(st.lists(st.tuples(FLOATS, FLOATS), **SIZES), st.lists(forecasts(), **SIZES))
def test_interleave_writers(curve, fcs):
    assert_same_bytes(il.write_scan_csv, oracle.write_scan_csv, curve)
    assert_same_bytes(lambda p: il.write_forecast_csv(as_columns(il.InterleaveForecast, fcs), p),
                      lambda p: oracle.write_forecast_csv(fcs, p))


@EXAMPLES
@given(st.lists(snapshots(), **SIZES))
def test_counter_log_and_derived_json(snaps):
    for fmt in ("csv", "json"):
        assert_same_bytes(lambda p: cnt.write_counter_log(snaps, p, fmt),
                          lambda p: oracle.write_counter_log(snaps, p, fmt))
    assert_same_bytes(lambda p: cnt.write_derived_json(cnt.counter_log(snaps), p),
                      lambda p: oracle.write_derived_json(snaps, p))


@EXAMPLES
@given(st.lists(run_pairs(), max_size=4), st.data())
def test_run_pairs(pairs, data):
    assert_same_bytes(cnt.write_run_pairs, oracle.write_run_pairs, pairs)
    extra = {"kind": data.draw(st.lists(LABELS, min_size=len(pairs), max_size=len(pairs)))}
    assert_same_bytes(lambda p: cnt.write_run_pairs(pairs, p, extra),
                      lambda p: oracle.write_run_pairs(pairs, p, extra))
    runs = [cal.CalibrationRun(kind=data.draw(st.sampled_from(cal.RUN_KINDS[1:])), pair=p)
            for p in pairs]
    assert_same_bytes(cal.write_calibration_csv, oracle.write_calibration_csv, runs)


@EXAMPLES
@given(outcomes())
def test_epoch_report(outcome):
    assert_same_bytes(ts.write_epoch_report_csv, oracle.write_epoch_report_csv, outcome)


@EXAMPLES
@given(traces())
def test_trace(trace):
    assert_same_bytes(ts.write_trace, oracle.write_trace, trace, files=("t.csv", "t.json"))


@EXAMPLES
@given(st.lists(FLOATS, **SIZES), st.lists(FLOATS, min_size=1, **SIZES))
def test_samples_and_percentiles(samples, values):
    assert_same_bytes(dm.write_latency_samples_csv, oracle.write_latency_samples_csv,
                      np.array(samples, dtype=float))
    qs = [abs(v) for v in values]
    pcts = dict(zip(qs, values))
    # the call suplab latcdf makes
    assert_same_bytes(lambda p: write_table(p, ["q", "ns"], [qs, [pcts[q] for q in qs]], "\n"),
                      lambda p: oracle.write_percentiles_csv(pcts, qs, p))


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | FLOATS | LABELS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(LABELS, inner, max_size=4),
    max_leaves=12,
)


@EXAMPLES
@given(JSON)
def test_dump_json(payload):
    assert_same_bytes(lambda p: dump_json(p, payload), lambda p: oracle.dump_json(p, payload))


def test_chunk_boundaries():
    for n in (TABLE_CHUNK - 1, TABLE_CHUNK, TABLE_CHUNK + 1):
        assert_same_bytes(il.write_scan_csv, oracle.write_scan_csv,
                          [(i / 7, float(i)) for i in range(n)])


def test_latcdf_percentiles_as_before(tmp_path):
    out = tmp_path / "lat"
    assert cli.run(["latcdf", "--profile", "cxl-b", "--n", "5000", "--seed", "3",
                    "--out", str(out)]) == 0
    qs = (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999)
    pcts = dm.latency_percentiles(dm.sample_latencies(dm.PRESETS["cxl-b"], n=5000, seed=3), qs)
    oracle.write_percentiles_csv(pcts, qs, tmp_path / "old.csv")
    assert (out / "percentiles.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_is_a_data_error_naming_file_and_column(tmp_path, bad):
    with pytest.raises(InvariantViolation, match=r"scan\.csv: runtime_s"):
        write_table(tmp_path / "scan.csv", ["remote_fraction", "runtime_s"],
                    [[0.0, 0.5], [1.0, bad]])
    with pytest.raises(InvariantViolation, match=r"x\.json"):
        dump_json(tmp_path / "x.json", {"a": [1.0, bad]})
    assert not (tmp_path / "x.json").exists()


AWKWARD = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-310, 1.0,
                           FLOAT_MAX, -FLOAT_MAX])


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
                  elements=AWKWARD))
@example(np.empty(0))
@example(np.empty((0, 3)))
@example(np.empty((3, 0)))
def test_finiteness_check_matches_full_mask(values):
    # min and max stand in for the mask on arrays; lists keep math.isfinite
    finite = bool(np.isfinite(values).all())
    for column in (values, values.ravel().tolist()):
        try:
            require_finite_values("x.csv", "c", column)
            assert finite
        except InvariantViolation:
            assert not finite


def test_dump_json_names_the_first_non_finite_value(tmp_path):
    rows = [{"runtime_s": 1.0}, {"z": math.nan, "runtime_s": math.inf, "policy": "alto"}]
    with pytest.raises(InvariantViolation, match=r"^comparison\.json: \[1\]\.runtime_s is inf$"):
        dump_json(tmp_path / "comparison.json", rows)
    with pytest.raises(InvariantViolation, match=r"^x\.json: a\.b\[1\] is nan$"):
        dump_json(tmp_path / "x.json", {"c": -math.inf, "a": {"b": (0.0, math.nan)}})
    with pytest.raises(InvariantViolation, match=r"^x\.json: the value is -inf$"):
        dump_json(tmp_path / "x.json", -math.inf)
