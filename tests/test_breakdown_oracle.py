"""The breakdown kernel against the per-pair ``decompose`` in
``breakdown_oracle``: for every generated pairs table, ``decompose_table``'s
rows equal the oracle's reports bit for bit, or both raise the same error;
``decompose`` gives the same Python floats; and the report CSVs written from
the kernel's columns are byte-identical to those written from the reports,
or both writers raise the same error.  Tables hold zeros of both signs,
subnormals, values up to the largest float, huge runtime ratios and local
``total_cycles`` of 0."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import breakdown_oracle as oracle
from suplab import breakdown as bd
from suplab import counters as cnt
from suplab import devmodel as dm
from suplab.errors import FLOAT_MAX, SupLabError

N = len(cnt.COUNTER_FIELDS)
CYCLES = cnt.COUNTER_FIELDS.index("total_cycles")
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1.0, 3.0,
                     2.0**53 + 2, 1e308, FLOAT_MAX]),
    st.floats(0.0, 1e6),
    st.floats(0.0, 1e308),
)
RUNTIMES = st.one_of(st.sampled_from([5e-324, 1e-310, 1.0, 1e308]), st.floats(5e-324, 1e308))
LABELS = st.text(st.one_of(st.sampled_from(',"\r\n é'), st.characters(blacklist_categories=("Cs",))),
                 max_size=6)
FIXTURE = cnt.pairs_table(dm.make_consistency_fixture(40, seed=4))


@st.composite
def tables(draw) -> np.ndarray:
    """An ``(n, 38)`` pairs table: generated rows, or fixture rows with a few
    cells replaced; some local ``total_cycles`` are zero."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        table = np.array([[draw(VALUES) for _ in range(2 * N)] + [draw(RUNTIMES), draw(RUNTIMES)]
                          for _ in range(n)], dtype=float).reshape(n, 2 * N + 2)
    else:
        table = FIXTURE[draw(st.lists(st.integers(0, len(FIXTURE) - 1), min_size=n, max_size=n))]
        for _ in range(draw(st.integers(0, 3)) if n else 0):
            table[draw(st.integers(0, n - 1)), draw(st.integers(0, 2 * N - 1))] = draw(VALUES)
    if n and draw(st.integers(0, 3)) == 0:
        table[draw(st.integers(0, n - 1)), CYCLES] = draw(st.sampled_from([0.0, -0.0]))
    return table


def _pairs(labels, table) -> list[cnt.RunPair]:
    """Unchecked pairs holding the table's Python floats, as read_run_pairs builds them."""
    return [cnt._built(cnt.RunPair, cnt._RUN_PAIR_FIELDS,
                       (label, cnt._built(cnt.CounterSnapshot, cnt.COUNTER_FIELDS, v[:N]),
                        cnt._built(cnt.CounterSnapshot, cnt.COUNTER_FIELDS, v[N:2 * N]), *v[2 * N:]))
            for label, v in zip(labels, table.tolist())]


def _row(r) -> tuple:
    return (r.total_measured, r.total_stall_estimate, r.total_backend_estimate,
            *map(r.components.__getitem__, cnt.STALL_SOURCES), r.residual)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SupLabError as exc:
        return type(exc), str(exc)


def _written(write, *args) -> bytes | tuple:
    """The bytes ``write(*args, path)`` writes, or its error."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "out.csv")
        got = _outcome(write, *args, path)
        return got if isinstance(got, tuple) else path.read_bytes()


def _check(labels, table) -> None:
    pairs = _pairs(labels, table)
    got = _outcome(bd.decompose_table, table)
    want = _outcome(lambda: [oracle.decompose(rp) for rp in pairs])
    if isinstance(want, tuple):   # a zero local total_cycles
        assert got == want
        return
    rows = np.array([_row(r) for r in want], dtype=float).reshape(-1, len(bd.REPORT_COLUMNS))
    assert got.shape == rows.shape and got.tobytes() == rows.tobytes()
    for rp, r in zip(pairs, want):
        one = bd.decompose(rp)
        assert repr((one.label, _row(one))) == repr((r.label, _row(r)))
        assert {type(v) for v in _row(one)} == {float}
    assert _written(bd.write_report_csv, labels, got) == _written(oracle.write_report_csv, want)

    def new(path):   # breakdown_long.csv, from the text of breakdown.csv
        bd.write_report_long_csv(labels, bd.write_report_csv(labels, got, path), path)

    def old(path):
        oracle.write_report_csv(want, path)
        oracle.write_report_long_csv(want, path)

    assert _written(new) == _written(old)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_kernel_equals_per_pair_decompose(data):
    table = data.draw(tables())
    _check(data.draw(st.lists(LABELS, min_size=len(table), max_size=len(table))), table)


def test_negative_zero_deltas():
    # every delta -0.0 (remote -0.0 against local 0.0): sum() starts at 0, so
    # the components add up to 0.0 and the residual is -0.0 - 0.0 = -0.0
    row = np.zeros(2 * N + 2)
    row[CYCLES], row[N:2 * N], row[2 * N:] = 1.0, -0.0, 1.0
    table = np.array([row, FIXTURE[0]])
    _check(["zeros", "fixture"], table)
    assert np.signbit(bd.decompose_table(table)[0, -1])
