"""The int64-table CounterLog against the row-list log it replaced
(``counters_oracle.RowLog`` and its reader and writer).

For any log, ingested from a file or made from snapshots, both must give the
same float64 table (bit for bit), exact mask and rows (values and types), the
same selections by mask and by slice, and the same written bytes.  The logs
mix plain rows with rows past 2**53 (int64 holds them, float64 does not),
rows past int64 (read on the ``_csv_table`` path), JSON counts such as
``4.0``, text counts such as ``1e3``, and real-valued synthesized snapshots.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from suplab import counters as cnt
from suplab import devmodel as dm
from suplab.errors import SupLabError

import counters_oracle as oracle
from test_counters import _count_snapshots


def _real_snapshots() -> list[cnt.CounterSnapshot]:
    local, remote = dm.PRESETS["local-emr"], dm.PRESETS["cxl-b"]
    params = dm.make_reference_params(local, remote)
    pairs = [dm.synthesize_runpair(w, local, remote, params, seed=i, consistency_noise=0.03)
             for i, w in enumerate(dm.make_workload_suite(4, seed=7))]
    return [s for p in pairs for s in (p.local, p.remote)]


REAL_SNAPSHOTS = _real_snapshots()
# Plain rows, rows past 2**53 within int64, and rows past int64.
INT_SNAPSHOTS = st.one_of(_count_snapshots(10**12), _count_snapshots(2**62), _count_snapshots(2**70))
# How a count is spelled in a file: plain, then the spellings the plain readers refuse.
CSV_SPELLINGS = (str, str, str, lambda v: repr(float(v)), lambda v: f"{v}e0")
JSON_SPELLINGS = (int, int, int, float, lambda v: f"{v}e0")


def _outcome(build):
    try:
        return build()
    except SupLabError as exc:
        return type(exc).__name__, str(exc)


def assert_same_log(got, want) -> None:
    assert isinstance(got, cnt.CounterLog) and len(got) == len(want)
    assert got.table.tobytes() == want.table.tobytes() and got.table.shape == want.table.shape
    assert np.array_equal(got.exact, want.exact) and got.source == want.source
    assert np.array_equal(got.exact, cnt._exact(got.table))
    assert got.counts.dtype in (np.int64, object) and got.counts.shape == want.table.shape
    for i in range(len(want)):   # repr tells 4 from 4.0
        assert repr(got.row(i)) == repr(want.row(i))


def assert_int64_if_it_holds(got, want) -> None:
    """A made log's counts are int64 exactly when every exact value is an int below 2**63."""
    fits = all(type(v) is int and v < 2**63 for row in want.rows for v in row)
    assert (got.counts.dtype == np.int64) == fits


def assert_same_selections(got, want, data) -> None:
    n = len(want)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    bounds = st.none() | st.integers(-n - 1, n + 1)
    cut = slice(data.draw(bounds), data.draw(bounds), data.draw(st.none() | st.sampled_from([1, 2, -1, -3])))
    for rows in (mask, cut, np.ones(n, dtype=bool)):
        assert_same_log(got[rows], want[rows])
    assert_same_log(got[mask][::-1], want[mask][::-1])


def assert_same_bytes(got, want, chunk: int) -> None:
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cnt, "TABLE_CHUNK", chunk):
        for fmt in ("csv", "json"):
            a, b = Path(tmp) / f"a.{fmt}", Path(tmp) / f"b.{fmt}"
            cnt.write_counter_log(got, a, fmt)
            oracle.write_row_log(want, b, fmt)
            assert a.read_bytes() == b.read_bytes()


@st.composite
def log_files(draw):
    """(format, file text) of a counter log of INT_SNAPSHOTS rows, some counts
    in a spelling the plain readers refuse; a few logs break a rule."""
    snaps = draw(st.lists(INT_SNAPSHOTS, min_size=0, max_size=8))
    rows = [s.as_dict() for s in snaps]
    if rows and draw(st.integers(0, 9)) == 0:   # stall cycles past the window's
        rows[-1]["stall_cycles_total"] = rows[-1]["total_cycles"] * 2 + 1
    fmt = draw(st.sampled_from(["csv", "json"]))
    odd = draw(st.sets(st.integers(0, len(cnt.COUNTER_FIELDS) * len(rows)), max_size=3))
    spell = (lambda at, v: draw(st.sampled_from(CSV_SPELLINGS if fmt == "csv" else JSON_SPELLINGS))(v)
             if at in odd else v)
    grid = [[spell(r * len(cnt.COUNTER_FIELDS) + c, row[f]) for c, f in enumerate(cnt.COUNTER_FIELDS)]
            for r, row in enumerate(rows)]
    if fmt == "json":
        return fmt, json.dumps([dict(zip(cnt.COUNTER_FIELDS, cells)) for cells in grid])
    return fmt, "".join(",".join(map(str, cells)) + "\n" for cells in [cnt.COUNTER_FIELDS, *grid])


@settings(max_examples=150, deadline=None)
@given(file=log_files(), chunk=st.sampled_from([1, 2, 3, 4096]), data=st.data())
def test_ingested_logs_match_row_lists(file, chunk, data):
    fmt, text = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"log.{fmt}"
        path.write_text(text)
        got = _outcome(lambda: cnt.ingest_counter_log(path, fmt))
        want = _outcome(lambda: oracle.ingest_row_log(path, fmt))
    if isinstance(want, tuple):
        assert got == want
        return
    assert_same_log(got, want)
    assert_int64_if_it_holds(got, want)
    assert_same_selections(got, want, data)
    assert_same_bytes(got, want, chunk)


@settings(max_examples=100, deadline=None)
@given(snaps=st.lists(st.one_of(INT_SNAPSHOTS, st.sampled_from(REAL_SNAPSHOTS)), max_size=8),
       chunk=st.sampled_from([1, 2, 3, 4096]), data=st.data())
def test_snapshot_logs_match_row_lists(snaps, chunk, data):
    got, want = cnt.counter_log(snaps), oracle.row_log(snaps)
    assert_same_log(got, want)
    assert_int64_if_it_holds(got, want)
    assert_same_selections(got, want, data)
    assert_same_bytes(got, want, chunk)
    assert_same_bytes(snaps, snaps, chunk)   # the writers given the snapshots themselves
