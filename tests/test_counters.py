from __future__ import annotations

import csv
import dataclasses
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from suplab import cli
from suplab import counters as cnt
from suplab import devmodel as dm
from suplab import interleave as il
from suplab import tiersim as ts
from suplab.model import ModelParams
from suplab.errors import (
    TABLE_CHUNK,
    InvariantViolation,
    MalformedRecord,
    MissingColumn,
    NegativeValue,
    NoDemandReads,
    SupLabError,
)

import counters_oracle as oracle
from conftest import peak_bytes, snapshot

FIXTURE_3ROWS = """\
total_cycles,stall_cycles_total,backend_stall_cycles,mem_stall_cycles,llc_miss_demand_stall_cycles,l1_demand_hits,lfb_hits,store_buffer_full_stall_cycles,stall_l1,stall_l2,stall_l3,offcore_demand_requests,offcore_demand_occupancy,l1_prefetch_l3_miss,l1_prefetch_total,l2_prefetch_l3_miss,l2_prefetch_l3_hit,instructions
1000,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1000
20000,9000,8500,5000,4000,50000,5000,1200,300,700,500,100,30000,800,2000,600,1400,40000
50000,20000,19000,12000,9000,120000,9000,2500,800,1500,1100,400,16000,1500,5000,1200,2800,90000
"""


def as_snapshots(log: cnt.CounterLog) -> list[cnt.CounterSnapshot]:
    """A CounterLog's rows as the snapshots the per-row reference reader builds.
    Its float64 table and its exact mask must follow from its rows."""
    snaps = [log.row(i) for i in range(len(log))]
    table = np.array([list(s.as_dict().values()) for s in snaps],
                     dtype=float).reshape(-1, len(cnt.COUNTER_FIELDS))
    assert np.array_equal(log.table, table) and np.array_equal(log.exact, cnt._exact(table))
    return snaps


def read_log(path, format: str = "csv") -> list[cnt.CounterSnapshot]:
    return as_snapshots(cnt.ingest_counter_log(path, format))


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "counters.csv"
    path.write_text(FIXTURE_3ROWS)
    return path


def test_shipped_fixture_matches_inline_copy():
    shipped = Path(__file__).parent / "fixtures" / "counters_3rows.csv"
    assert shipped.read_text() == FIXTURE_3ROWS


def test_shipped_fixture_ingests():
    shipped = Path(__file__).parent / "fixtures" / "counters_3rows.csv"
    log = cnt.ingest_counter_log(shipped)
    assert cnt.amortized_offcore_latency(log[1:]).tolist() == [300.0, 40.0]


def test_a_mask_of_every_row_selects_the_log_itself():
    log = cnt.ingest_counter_log(Path(__file__).parent / "fixtures" / "counters_3rows.csv")
    assert log[np.ones(3, bool)] is log and len(log[np.array([True, False, True])]) == 2
    for wrong in (2, 4):   # numpy's IndexError, as for any mask of the wrong length
        with pytest.raises(IndexError):
            log[np.ones(wrong, bool)]


class TestInvariants:
    def test_negative_field_rejected(self):
        with pytest.raises(InvariantViolation):
            snapshot(total_cycles=-1)

    def test_stalls_cannot_exceed_cycles(self):
        with pytest.raises(InvariantViolation):
            snapshot(stall_cycles_total=10_001)

    def test_llc_miss_stalls_bounded_by_mem_stalls(self):
        with pytest.raises(InvariantViolation):
            snapshot(llc_miss_demand_stall_cycles=500, mem_stall_cycles=400)

    def test_occupancy_at_least_requests(self):
        with pytest.raises(InvariantViolation):
            snapshot(offcore_demand_requests=100, offcore_demand_occupancy=99)

    def test_zero_counter_row_is_valid(self):
        s = snapshot(
            stall_cycles_total=0, backend_stall_cycles=0, mem_stall_cycles=0,
            llc_miss_demand_stall_cycles=0, l1_demand_hits=0, lfb_hits=0,
            store_buffer_full_stall_cycles=0, stall_l1=0, stall_l2=0, stall_l3=0,
            offcore_demand_requests=0, offcore_demand_occupancy=0,
            l1_prefetch_l3_miss=0, l1_prefetch_total=0,
            l2_prefetch_l3_miss=0, l2_prefetch_l3_hit=0,
            total_cycles=1000, instructions=1000,
        )
        assert s.total_cycles == 1000


class TestIngest:
    def test_three_row_fixture(self, fixture_csv):
        snaps = read_log(fixture_csv, format="csv")
        assert len(snaps) == 3
        # amortized latency recomputed by hand from the fixture rows
        assert snaps[1].offcore_demand_occupancy / snaps[1].offcore_demand_requests == 300.0
        assert cnt.amortized_offcore_latency(snaps[1]) == 300.0
        assert cnt.amortized_offcore_latency(snaps[2]) == 40.0

    def test_zero_row_valid(self, fixture_csv):
        snaps = read_log(fixture_csv)
        assert snaps[0].total_cycles == 1000
        assert snaps[0].instructions == 1000

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = FIXTURE_3ROWS.splitlines()
        header = lines[0].replace("lfb_hits,", "")
        rows = [",".join(v for i, v in enumerate(l.split(",")) if i != 6) for l in lines[1:]]
        path.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises(MissingColumn) as exc:
            cnt.ingest_counter_log(path)
        assert exc.value.name == "lfb_hits"

    def test_invariant_violation_from_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        bad = FIXTURE_3ROWS.replace("20000,9000,8500,5000,4000", "20000,9000,8500,400,500")
        path.write_text(bad)
        with pytest.raises(InvariantViolation):
            cnt.ingest_counter_log(path)

    def test_negative_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(FIXTURE_3ROWS.replace("\n1000,0", "\n-1000,0"))
        with pytest.raises(NegativeValue):
            cnt.ingest_counter_log(path)

    def test_extra_fields_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = FIXTURE_3ROWS.splitlines()
        path.write_text("\n".join([lines[0], lines[1] + ",999"] + lines[2:]) + "\n")
        with pytest.raises(MalformedRecord):
            cnt.ingest_counter_log(path)

    def test_json_non_object_record(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(MalformedRecord):
            cnt.ingest_counter_log(path, format="json")

    def test_header_case_insensitive(self, tmp_path, fixture_csv):
        text = fixture_csv.read_text()
        lines = text.splitlines()
        path = tmp_path / "upper.csv"
        path.write_text("\n".join([lines[0].upper()] + lines[1:]) + "\n")
        assert len(cnt.ingest_counter_log(path)) == 3

    def test_json_mirror(self, tmp_path, fixture_csv):
        log = cnt.ingest_counter_log(fixture_csv)
        out = tmp_path / "counters.json"
        cnt.write_counter_log(log, out, format="json")
        again = cnt.ingest_counter_log(out, format="json")
        assert as_snapshots(again) == as_snapshots(log)

    def test_roundtrip_bit_exact(self, tmp_path, fixture_csv):
        log = cnt.ingest_counter_log(fixture_csv)
        out = tmp_path / "again.csv"
        cnt.write_counter_log(log, out)
        assert read_log(out) == as_snapshots(log)


class TestDerived:
    def test_amortized_direct_ratio(self):
        s = snapshot(offcore_demand_requests=10, offcore_demand_occupancy=3000)
        assert cnt.amortized_offcore_latency(s) == 300.0

    def test_amortized_matches_alto_lower_threshold(self):
        s = snapshot(offcore_demand_requests=100, offcore_demand_occupancy=4000)
        assert cnt.amortized_offcore_latency(s) == 40.0

    def test_no_demand_reads(self):
        s = snapshot(offcore_demand_requests=0, offcore_demand_occupancy=0)
        with pytest.raises(NoDemandReads):
            cnt.amortized_offcore_latency(s)

    def test_stall_fractions_direct(self):
        s = snapshot(store_buffer_full_stall_cycles=1000, total_cycles=10_000)
        assert cnt.stall_fractions(s)["store"] == 0.1

    def test_stall_fractions_all_zero(self):
        s = snapshot(
            store_buffer_full_stall_cycles=0, stall_l1=0, stall_l2=0, stall_l3=0,
            llc_miss_demand_stall_cycles=0, mem_stall_cycles=0,
        )
        assert all(v == 0 for v in cnt.stall_fractions(s).values())

    def test_stall_fraction_sum_bounded_by_backend(self, base_snapshot):
        fr = cnt.stall_fractions(base_snapshot)
        backend_frac = base_snapshot.backend_stall_cycles / base_snapshot.total_cycles
        assert sum(fr.values()) <= backend_frac + 1e-9

    def test_stall_fractions_fixture_hand_check(self, fixture_csv):
        # second fixture row, recomputed by hand against c = 20000
        s = cnt.ingest_counter_log(fixture_csv).row(1)
        assert cnt.stall_fractions(s) == {
            "store": 1200 / 20000,
            "L1": 300 / 20000,
            "L2": 700 / 20000,
            "L3": 500 / 20000,
            "DRAM": 4000 / 20000,
        }


counter_values = st.integers(min_value=0, max_value=10**12)


@given(
    total=st.integers(min_value=1, max_value=10**12),
    data=st.data(),
)
def test_stall_fraction_properties(total, data):
    stall = data.draw(st.integers(0, total))
    backend = data.draw(st.integers(0, stall))
    dram = data.draw(st.integers(0, backend))
    mem = data.draw(st.integers(dram, backend))
    rest = backend - dram
    store = data.draw(st.integers(0, rest))
    l1 = data.draw(st.integers(0, rest - store))
    l2 = data.draw(st.integers(0, rest - store - l1))
    l3 = data.draw(st.integers(0, rest - store - l1 - l2))
    s = snapshot(
        total_cycles=total, stall_cycles_total=stall, backend_stall_cycles=backend,
        mem_stall_cycles=mem, llc_miss_demand_stall_cycles=dram,
        store_buffer_full_stall_cycles=store, stall_l1=l1, stall_l2=l2, stall_l3=l3,
        offcore_demand_requests=0, offcore_demand_occupancy=0,
    )
    fr = cnt.stall_fractions(s)
    assert all(0 <= v <= 1 for v in fr.values())
    assert sum(fr.values()) <= 1 + 1e-9


@given(requests=st.integers(1, 10**9), extra=st.integers(0, 10**9))
def test_amortized_latency_at_least_one_cycle(requests, extra):
    s = snapshot(offcore_demand_requests=requests, offcore_demand_occupancy=requests + extra)
    assert cnt.amortized_offcore_latency(s) >= 1.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda v: snapshot(l1_demand_hits=v),
    lambda v: cnt.RunPair("x", snapshot(), snapshot(), 1.0, v),
    lambda v: dm.DeviceProfile(name="d", base_latency_ns=90.0, bandwidth_cap_gbs=v),
    lambda v: dm.WorkloadProfile(name="w", instructions=1e9, demand_miss_rate=v),
    lambda v: ModelParams(k1=1.0, k2=1.0, k3=v, k4=1.0, p=0.0, q=1.0, offcore_threshold=40.0),
    lambda v: il.InterleaveFit("p", ratio_slope=v, ratio_intercept=0.0,
                               speedup_slope=1.0, speedup_intercept=0.0),
    lambda v: ts.PolicyConfig(policy="alto", fast_capacity=1, migration_cost_us=v),
    lambda v: ts.TierTrace([ts.TraceEpoch([(0, 1)])], page_count=1, wss_pages=1,
                           epoch_instructions=v),
    lambda v: il.InterleaveRatio(v),
], ids=["CounterSnapshot", "RunPair", "DeviceProfile", "WorkloadProfile", "ModelParams",
        "InterleaveFit", "PolicyConfig", "TierTrace", "InterleaveRatio"])
def test_non_finite_rejected_at_construction(build, value):
    with pytest.raises(InvariantViolation):
        build(value)


class TestRunPair:
    def test_phase_mismatch_rejected(self, base_snapshot):
        other = dataclasses.replace(base_snapshot, instructions=25_000)
        with pytest.raises(InvariantViolation):
            cnt.RunPair("x", base_snapshot, other, 1.0, 1.2)

    def test_nonpositive_runtime_rejected(self, base_snapshot):
        with pytest.raises(InvariantViolation):
            cnt.RunPair("x", base_snapshot, base_snapshot, 0.0, 1.0)

    def test_pairs_csv_roundtrip(self, tmp_path, base_snapshot):
        pair = cnt.RunPair("w1", base_snapshot, base_snapshot, 1.0, 1.5)
        path = tmp_path / "pairs.csv"
        cnt.write_run_pairs([pair], path)
        back, _ = cnt.read_run_pairs(path)
        assert back == [pair]


# --- one set of rules for every counter reader ------------------------------

def fixture_records() -> list[dict]:
    """FIXTURE_3ROWS as one dict of integer counts per row."""
    rows = FIXTURE_3ROWS.splitlines()[1:]
    return [dict(zip(cnt.COUNTER_FIELDS, map(int, row.split(",")))) for row in rows]


def _pair_records(tmp_path) -> list[dict]:
    pairs = [cnt.RunPair(f"p{i}", snapshot(), snapshot(), 1.0, 1.5) for i in range(3)]
    cnt.write_run_pairs(pairs, tmp_path / "valid.csv")
    with (tmp_path / "valid.csv").open(newline="") as fh:
        return list(csv.DictReader(fh))


def _write_records(path: Path, records: list[dict]) -> None:
    """JSON: the records as an array.  CSV: the first record's keys as the
    header, then each record's values as a row."""
    if path.suffix == ".json":
        path.write_text(json.dumps(records))
        return
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(records[0])
        writer.writerows(r.values() for r in records)


def _set_value(value):
    def mutate(records, column):
        records[1][column] = value
    return mutate


def _extra_field(records, column):
    records[1]["extra"] = 999


def _drop_column(records, column):
    for r in records:
        del r[column]


def _repeat_column(records, column):
    for r in records:
        r[column.upper()] = r[column]


# bad input: (how it changes the records, the error every reader raises)
BAD_RECORDS = {
    "true": (_set_value(True), MalformedRecord),
    "2.5": (_set_value(2.5), MalformedRecord),
    "NaN": (_set_value(math.nan), MalformedRecord),
    "-1": (_set_value(-1), NegativeValue),
    "x": (_set_value("x"), MalformedRecord),
    "empty cell": (_set_value(""), MalformedRecord),
    "extra field": (_extra_field, MalformedRecord),
    "missing column": (_drop_column, MissingColumn),
    "repeated column": (_repeat_column, MalformedRecord),   # a header error: row 0
}
COUNT_ONLY = ("true", "2.5")   # valid reals, so they apply to counter logs only
READERS = {
    "csv log": ("log.csv", lambda p: read_log(p, "csv")),
    "json log": ("log.json", lambda p: read_log(p, "json")),
    "pairs csv": ("pairs.csv", cnt.read_run_pairs),
}


@pytest.mark.parametrize("bad,reader", [
    (bad, reader) for bad in BAD_RECORDS for reader in READERS
    if not (reader == "pairs csv" and bad in COUNT_ONLY)
])
def test_every_reader_rejects_the_same_bad_input(tmp_path, bad, reader):
    mutate, error = BAD_RECORDS[bad]
    name, read = READERS[reader]
    pairs = reader == "pairs csv"
    records = _pair_records(tmp_path) if pairs else fixture_records()
    column = "local_lfb_hits" if pairs else "lfb_hits"
    mutate(records, column)
    path = tmp_path / name
    _write_records(path, records)
    with pytest.raises(error) as exc:
        read(path)
    if error is MissingColumn:
        assert exc.value.name == column
    elif bad == "repeated column":
        assert exc.value.row == 0 and f"repeated column {column}" in str(exc.value)
    else:
        assert exc.value.row == 2


def _count_snapshots(max_count: int):
    """Integer-count snapshots that satisfy every CounterSnapshot invariant."""
    count = st.integers(0, max_count)

    @st.composite
    def build(draw):
        total = draw(count)
        stall = draw(st.integers(0, total))
        backend = draw(st.integers(0, stall))
        mem = draw(st.integers(0, backend))
        requests = draw(count)
        values = {f: draw(count) for f in cnt.COUNTER_FIELDS}
        values.update(
            total_cycles=total, stall_cycles_total=stall, backend_stall_cycles=backend,
            mem_stall_cycles=mem, llc_miss_demand_stall_cycles=draw(st.integers(0, mem)),
            offcore_demand_requests=requests,
            offcore_demand_occupancy=draw(st.integers(requests, max_count)),
        )
        return cnt.CounterSnapshot(**values)

    return build()


@given(snaps=st.lists(_count_snapshots(10**15), min_size=1, max_size=5),
       fmt=st.sampled_from(["csv", "json"]))
def test_counter_log_roundtrip_exact(snaps, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"log.{fmt}"
        cnt.write_counter_log(snaps, path, fmt)
        assert read_log(path, fmt) == snaps


@given(data=st.data(),
       scale=st.floats(1e-3, 1e3),
       runtimes=st.tuples(st.floats(1e-9, 1e9), st.floats(1e-9, 1e9)),
       label=st.from_regex(r'[A-Za-z0-9_ ,"-]{0,12}', fullmatch=True))
def test_run_pairs_roundtrip_exact(data, scale, runtimes, label):
    local, remote = (data.draw(_count_snapshots(10**15)).scaled(scale) for _ in range(2))
    pair = cnt.RunPair(label, local, dataclasses.replace(remote, instructions=local.instructions),
                       *runtimes)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.csv"
        cnt.write_run_pairs([pair], path, extra={"kind": ["k"]})
        assert cnt.read_run_pairs(path, ["kind"]) == ([pair], {"kind": ["k"]})


# --- the whole-table readers against the row-by-row reference readers --------

COUNT_SPELLINGS = (str, str, str, lambda v: f" {v} ", lambda v: repr(float(v)))  # 1000 -> "1000.0"
REAL_SPELLINGS = (repr, repr, lambda v: f"{v:.17g}", lambda v: f"{v:.17e}")


@st.composite
def _csv_grid(draw, header: list[str], rows: list[dict], spellings):
    """A CSV file as (header, rows of cells): the columns in any order, maybe
    upper-cased, with a "note" column or not, each value in one of ``spellings``."""
    columns = draw(st.permutations(header + draw(st.sampled_from([[], ["note"]]))))
    names = [c.upper() for c in columns] if draw(st.booleans()) else list(columns)
    grid = [
        [draw(st.sampled_from(spellings))(r[c]) if isinstance(r.get(c), (int, float))
         else r.get(c, "n") for c in columns]
        for r in rows
    ]
    return names, grid


def _write_grid(path: Path, names: list[str], grid: list[list[str]], blank_after=()) -> None:
    """The grid as CSV, with a blank line after each data row in ``blank_after``."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i, cells in enumerate(grid):
            writer.writerow(cells)
            if i in blank_after:
                fh.write("\r\n")


@st.composite
def counter_logs(draw):
    """(format, file text writer) for a valid counter log in any spelling the
    reference reader accepts; JSON counts may be integral reals (1000.0)."""
    snaps = draw(st.lists(_count_snapshots(10**15), min_size=1, max_size=5))
    rows = [s.as_dict() for s in snaps]
    if draw(st.sampled_from(["csv", "json"])) == "csv":
        names, grid = draw(_csv_grid(list(cnt.COUNTER_FIELDS), rows, COUNT_SPELLINGS))
        blank = draw(st.sets(st.integers(0, len(grid) - 1), max_size=2))
        return "csv", lambda path: _write_grid(path, names, grid, blank)
    records, extra = [], draw(st.sampled_from([[], ["note"]]))
    for r in rows:
        keys = draw(st.permutations(list(r) + extra))
        upper = draw(st.booleans())
        records.append({
            (k.upper() if upper else k):
                draw(st.sampled_from((int, int, float)))(r[k]) if k in r else "n"
            for k in keys
        })
    return "json", lambda path: path.write_text(json.dumps(records))


def _pair_rows(draw) -> list[dict]:
    rows = []
    for i in range(draw(st.integers(1, 3))):
        local = draw(_count_snapshots(10**15)).scaled(draw(st.floats(1e-3, 1e3)))
        remote = dataclasses.replace(draw(_count_snapshots(10**15)),
                                     instructions=local.instructions)
        row = {"kind": f"k{i}", "label": draw(st.from_regex(r'[A-Za-z0-9 ,"-]{0,8}', fullmatch=True)),
               "local_runtime": draw(st.floats(1e-9, 1e9)),
               "remote_runtime": draw(st.floats(1e-9, 1e9))}
        row.update({f"local_{f}": float(v) for f, v in local.as_dict().items()})
        row.update({f"remote_{f}": float(v) for f, v in remote.as_dict().items()})
        rows.append(row)
    return rows


@st.composite
def pairs_files(draw):
    """A writer for a valid pairs CSV with a "kind" extra column, in any column
    order, case and real spelling, with or without blank lines."""
    names, grid = draw(_csv_grid(["kind"] + cnt.PAIR_FIELDS, _pair_rows(draw), REAL_SPELLINGS))
    blank = draw(st.sets(st.integers(0, len(grid) - 1), max_size=2))
    return lambda path: _write_grid(path, names, grid, blank)


def _outcome(read, path: Path, *args):
    """A reader's result for a file, or its error's type and message."""
    try:
        return read(path, *args)
    except SupLabError as exc:
        return type(exc).__name__, str(exc)


def _value_types(snapshots) -> set[type]:
    return {type(v) for s in snapshots for v in s.as_dict().values()}


@settings(max_examples=100, deadline=None)
@given(log=counter_logs())
def test_counter_log_reader_matches_reference(log):
    fmt, write = log
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"log.{fmt}"
        write(path)
        with mock.patch.object(cnt, "_count", wraps=cnt._count) as per_cell:
            got = read_log(path, fmt)
        want = oracle.ingest_counter_log(path, fmt)
        assert got == want
        assert _value_types(got) == _value_types(want) == {int}
        # Plain integer cells take the whole-table path; any other spelling
        # (" 5 " is plain: int() reads it) sends the file to the per-cell loop.
        text = path.read_text()
        plain = ".0" not in text and "e+" not in text
        assert per_cell.called != plain


@settings(max_examples=50, deadline=None)
@given(write=pairs_files())
def test_pairs_reader_matches_reference(write):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.csv"
        write(path)
        with mock.patch.object(cnt, "_real", wraps=cnt._real) as per_cell:
            got = cnt.read_run_pairs(path, ["kind"])
        want = oracle.read_run_pairs(path, ["kind"])
        assert got == want
        snaps = [s for p in got[0] for s in (p.local, p.remote)]
        assert _value_types(snaps) == {float}
        assert {type(p.local_runtime) for p in got[0]} == {float}
        assert not per_cell.called


# Defects a file can carry, one cell or row each.  The readers must report
# the same error as the reference for any mix of them, so the first in
# row-major order wins, whichever step finds it: a bad cell, a row of the
# wrong length, or an object that breaks an invariant (stalls above total
# cycles) before a later bad cell in the same row.
BAD_CELLS = ["x", "-1", "2.5", "nan", "inf", "", "true", "0", str(10**17), "1" * 140_000]


@st.composite
def damaged(draw, names: list[str], grid: list[list[str]]):
    """The grid with one to three defects: bad cells, short or long rows, or
    stall cycles above total cycles."""
    grid = [list(cells) for cells in grid]
    stalls = [i for i, n in enumerate(names) if n.lower().endswith("stall_cycles_total")]
    for _ in range(draw(st.integers(1, 3))):
        cells = grid[draw(st.integers(0, len(grid) - 1))]
        kind = draw(st.sampled_from(["cell", "cell", "cell", "stalls", "short", "long"]))
        if kind == "short":
            cells.pop()
        elif kind == "long":
            cells.append("1")
        elif kind == "stalls" and len(cells) == len(names):
            cells[draw(st.sampled_from(stalls))] = str(10**20)
        else:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(BAD_CELLS))
    return grid


@settings(max_examples=100, deadline=None)
@given(data=st.data(), reader=st.sampled_from(["csv log", "pairs csv"]))
def test_csv_readers_report_the_reference_error(data, reader):
    if reader == "csv log":
        rows = [s.as_dict() for s in data.draw(st.lists(_count_snapshots(10**15), min_size=1, max_size=4))]
        names, grid = data.draw(_csv_grid(list(cnt.COUNTER_FIELDS), rows, (str,)))
        read, ref, args = read_log, oracle.ingest_counter_log, ()
    else:
        names, grid = data.draw(_csv_grid(["kind"] + cnt.PAIR_FIELDS, _pair_rows(data.draw), (repr,)))
        read, ref, args = cnt.read_run_pairs, oracle.read_run_pairs, (["kind"],)
    grid = data.draw(damaged(names, grid))
    blank = data.draw(st.sets(st.integers(0, len(grid) - 1), max_size=2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        _write_grid(path, names, grid, blank)
        assert _outcome(read, path, *args) == _outcome(ref, path, *args)


BAD_JSON_VALUES = ["x", "7", -1, 2.5, True, None, math.nan, 10**17, [1]]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_json_reader_reports_the_reference_error(data):
    snaps = data.draw(st.lists(_count_snapshots(10**15), min_size=1, max_size=4))
    records: list = [s.as_dict() for s in snaps]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(records) - 1))
        kind = data.draw(st.sampled_from(["value", "value", "value", "not an object",
                                          "missing key", "extra key", "repeated key"]))
        if kind == "not an object":
            records[i] = 1
        elif isinstance(records[i], dict):
            key = data.draw(st.sampled_from(cnt.COUNTER_FIELDS))
            if kind == "missing key":
                records[i].pop(key, None)
            elif kind == "extra key":
                records[i]["note"] = 1
            elif kind == "repeated key":
                records[i][key.upper()] = 1
            elif key in records[i]:
                records[i][key] = data.draw(st.sampled_from(BAD_JSON_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.json"
        path.write_text(json.dumps(records))
        assert (_outcome(read_log, path, "json")
                == _outcome(oracle.ingest_counter_log, path, "json"))


# --- writer output always takes the whole-table path --------------------------

def _no_per_cell(*args):
    raise AssertionError("per-cell converter or per-row reader called")


@pytest.fixture(scope="module")
def pairs_500() -> list[cnt.RunPair]:
    return dm.make_consistency_fixture(500, seed=5)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_written_logs_never_convert_per_cell(tmp_path, monkeypatch, pairs_500, fmt):
    path = tmp_path / f"log.{fmt}"
    cnt.write_counter_log([p.local for p in pairs_500], path, fmt)
    monkeypatch.setattr(cnt, "_count", _no_per_cell)
    monkeypatch.setattr(cnt, "_real", _no_per_cell)
    calls = _counting_inits(monkeypatch)
    log = cnt.ingest_counter_log(path, fmt)
    assert calls == []   # and no row is built as a CounterSnapshot
    assert len(log) == 500 and log.counts.dtype == np.int64
    assert {type(v) for i in range(500) for v in log.row(i).as_dict().values()} == {int}
    assert log.exact.all()


def test_written_pairs_never_convert_per_cell(tmp_path, monkeypatch, pairs_500):
    """With a kind column or without, nor do they reach the per-row reader."""
    for name in ("_count", "_real", "_csv_table", "_table"):
        monkeypatch.setattr(cnt, name, _no_per_cell)
    for extra in ({"kind": ["k"] * 500}, {}):
        path = tmp_path / "pairs.csv"
        cnt.write_run_pairs(pairs_500, path, extra=extra)
        assert cnt.read_run_pairs(path, list(extra)) == (pairs_500, extra)


# --- a plain pairs file parses in one np.loadtxt call -------------------------

# Real-number text of the plain alphabet that no writer spells, each of which
# float() reads; "1e400" and "-1" make the pair fail, naming the cell's text.
PLAIN_REAL_CELLS = ["1e400", "1.", ".5", "-0", "+1e-5", "00012", "1E2", "0e0", "-1",
                    "5e-324", "2.2250738585072014e-308", "4.9406564584124654e-324",
                    "1.2345678901234567e8", "0.10000000000000001", "9007199254740993"]
PLAIN_REALS = st.one_of(st.sampled_from(PLAIN_REAL_CELLS),
                        st.floats(0, 2.2250738585072014e-308).map(repr),     # subnormals
                        st.floats(1e-300, 1e300).map(lambda v: f"{v:.16e}"))   # 17-digit mantissas


@st.composite
def plain_pairs_files(draw):
    """(extra columns, file bytes) of a pairs CSV the plain path reads: the extra
    column and the label first, then the numbers in any order and real spelling,
    a few cells from PLAIN_REALS, all lines ending in LF or all in CRLF."""
    extra = draw(st.sampled_from([[], ["kind"]]))
    rows = _pair_rows(draw)
    header = [*extra, "label", *draw(st.permutations(cnt.PAIR_FIELDS[1:]))]
    grid = []
    for row in rows:
        row["label"] = draw(st.from_regex(r"[A-Za-z0-9 _.+-]{0,8}", fullmatch=True))
        cells = [draw(st.sampled_from(REAL_SPELLINGS))(row[c]) if isinstance(row[c], float) else row[c]
                 for c in header]
        for _ in range(draw(st.integers(0, 3))):
            cells[draw(st.integers(len(extra) + 1, len(header) - 1))] = draw(PLAIN_REALS)
        grid.append(cells)
    if draw(st.booleans()):
        header = [c.upper() for c in header]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return extra, "".join(",".join(cells) + end for cells in [header, *grid]).encode()


@settings(max_examples=80, deadline=None)
@given(file=plain_pairs_files())
def test_plain_pairs_files_match_reference(file):
    extra, text = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.csv"
        path.write_bytes(text)
        with mock.patch.object(cnt, "_csv_table", wraps=cnt._csv_table) as per_row:
            _same_as_reference(cnt.read_run_pairs, oracle.read_run_pairs, path, extra)
        assert not per_row.called


def _move_label_last(text: str) -> str:
    """The label column moved last, each label made a number, as a real cell is."""
    rows = [line.split(",") for line in text.splitlines()]
    i = rows[0].index("label")
    return "".join(",".join([*r[:i], *r[i + 1:], r[i] if n == 0 else str(n)]) + "\r\n"
                   for n, r in enumerate(rows))


# Files the plain path leaves to the per-row reader: (kind of file, edit of the
# text write_run_pairs wrote, a header and rows p0-p2 with runtimes 1.0 and 1.5).
NOT_PLAIN = {
    "quote": lambda t: t.replace("p1,", '"p,1",', 1),
    "lone CR ending a line": lambda t: t.replace("\r\n", "\r", 2).replace("\r", "\r\n", 1),
    "lone CR in a row": lambda t: t.replace(",1.5,", ",1.5\r,", 1),
    "CR after the text columns": lambda t: t.replace("p1,", "p1,\r", 1),
    "CR before a CRLF": lambda t: t.replace("\r\n", "\r\r\n"),
    "blank line": lambda t: t.replace("\r\n", "\r\n\r\n", 2).replace("\r\n\r\n", "\r\n", 1),
    "non-ASCII label": lambda t: t.replace("p1,", "p\u00e91,", 1),
    "space in a number": lambda t: t.replace(",1.5,", ", 1.5,", 1),
    "1_0 in a number": lambda t: t.replace(",10000.0,", ",1_0000.0,", 1),
    "label not leading": _move_label_last,
    "wrong field count": lambda t: t.replace("\r\n", ",7\r\n", 3).replace(",7\r\n", "\r\n", 2),
}


@pytest.mark.parametrize("kind", [False, True])
@pytest.mark.parametrize("edit", NOT_PLAIN)
def test_files_off_the_plain_path_read_per_row(tmp_path, edit, kind):
    extra = {"kind": ["k0", "k1", "k2"]} if kind else {}
    pairs = [cnt.RunPair(f"p{i}", snapshot(), snapshot(), 1.0, 1.5) for i in range(3)]
    path = tmp_path / "pairs.csv"
    cnt.write_run_pairs(pairs, path, extra=extra)
    path.write_bytes(NOT_PLAIN[edit](path.read_bytes().decode()).encode())
    with mock.patch.object(cnt, "_csv_table", wraps=cnt._csv_table) as per_row:
        _same_as_reference(cnt.read_run_pairs, oracle.read_run_pairs, path, list(extra))
    assert per_row.called


@pytest.mark.filterwarnings("error")   # np.loadtxt warns on a file of blank lines
@pytest.mark.parametrize("fmt", ["csv", "pairs"])
def test_blank_lines_alone_read_per_row(tmp_path, fmt):
    path = tmp_path / "in.csv"
    header = cnt.COUNTER_FIELDS if fmt == "csv" else cnt.PAIR_FIELDS
    path.write_text(",".join(header) + "\n\n\r\n")
    read, ref = ((read_log, oracle.ingest_counter_log) if fmt == "csv"
                 else (cnt.read_run_pairs, oracle.read_run_pairs))
    with mock.patch.object(cnt, "_csv_table", wraps=cnt._csv_table) as per_row:
        _same_as_reference(read, ref, path)
    assert per_row.called


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.from_regex(r"[+-]?[0-9]{0,20}(\.[0-9]{0,20})?([eE][+-]?[0-9]{0,4})?", fullmatch=True)
                      | st.text(cnt._PLAIN_CELLS[np.float64].decode().replace(",", ""), max_size=12)
                      | PLAIN_REALS, min_size=1, max_size=20))
def test_loadtxt_reads_plain_reals_as_float_does(cells):
    """The premise of the plain path: over _PLAIN_CELLS' real alphabet (less the
    delimiter), np.loadtxt reads each cell as float() does, to the bit, and
    refuses each that float() refuses."""
    def read(convert, cell):
        try:
            return repr(convert(cell))
        except ValueError:
            return "ValueError"
    for cell in cells:
        row = lambda c: np.loadtxt([f"{c},0"], np.float64, delimiter=",", comments=None, ndmin=2)[0, 0].item()
        assert read(row, cell) == read(float, cell), cell


# --- the table check at its edges, against the row-by-row reference -----------

INT_EDGES = [2**53 - 1, 2**53, 2**53 + 1, 2**60 + 3, 10**17 + 1, 2**1024]
SLACK_TOPS = [1, 10**6 + 1, 10**13 + 7, 2**52 + 5, 2**53 - 1]


def _near(value, steps: int):
    """``value`` moved ``steps`` floats up (or down), or ``steps`` up for an int."""
    if isinstance(value, int):
        return value + steps
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.inf if steps > 0 else -math.inf)
    return value


@st.composite
def _edge_row(draw, row: dict, pair: bool) -> dict:
    """``row`` (field -> value) with one or two values moved to an edge of the
    table check: a bounded field at, just under or just past its bound's
    slack; a count around 2**53; a request count of 0 or an occupancy just
    under it; for pairs, an instruction drift around 0.01 or a runtime of 0
    or inf."""
    row = dict(row)
    prefix = draw(st.sampled_from(["local_", "remote_"])) if pair else ""
    kinds = ["slack", "big", "requests"] + (["drift", "runtime"] if pair else [])
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=2)):
        step = draw(st.integers(-1, 1))
        if kind == "slack":
            # the bounded stall counts all equal, large enough to show the slack
            top = draw(st.floats(1e-300, 1e300) if pair else st.sampled_from(SLACK_TOPS))
            row.update({prefix + f: top for pair_ in cnt._BOUNDED_BY for f in pair_})
            name, bound = (prefix + f for f in draw(st.sampled_from(cnt._BOUNDED_BY)))
            edge = top * cnt._SLACK
            row[name] = _near(int(edge) if isinstance(top, int) else edge, step)
        elif kind == "big":   # an int in a pairs file too: "2**1024" reads as inf
            row[prefix + draw(st.sampled_from(cnt.COUNTER_FIELDS))] = draw(st.sampled_from(INT_EDGES))
        elif kind == "requests":
            requests = draw(st.sampled_from([0, 1, 2**53 - 1, 2**53 + 1]))
            requests = float(requests) if pair else requests
            row[prefix + "offcore_demand_requests"] = requests
            row[prefix + "offcore_demand_occupancy"] = _near(requests, step)
        elif kind == "drift":
            local = row["local_instructions"]
            row["remote_instructions"] = _near(local - local * 0.01, step)
        else:
            row[draw(st.sampled_from(["local_runtime", "remote_runtime"]))] = \
                draw(st.sampled_from([0.0, -0.0, 5e-324, math.inf]))
    return row


def _cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _same_as_reference(read, ref, path: Path, *args) -> None:
    """Equal values of equal Python types (``repr`` shows both, -0.0 too), or
    the same error class and message."""
    assert repr(_outcome(read, path, *args)) == repr(_outcome(ref, path, *args))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["csv", "json", "pairs"]))
def test_table_check_edges_match_reference(data, fmt):
    pair = fmt == "pairs"
    rows = _pair_rows(data.draw) if pair else \
        [s.as_dict() for s in data.draw(st.lists(_count_snapshots(10**15), min_size=1, max_size=3))]
    i = data.draw(st.integers(0, len(rows) - 1))
    rows[i] = data.draw(_edge_row(rows[i], pair))
    _check_rows(fmt, rows)


def _check_rows(fmt: str, rows: list[dict]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"in.{'json' if fmt == 'json' else 'csv'}"
        if fmt == "json":
            path.write_text(json.dumps(rows))
        else:
            _write_grid(path, list(rows[0]), [[_cell(v) for v in r.values()] for r in rows])
        if fmt == "pairs":
            _same_as_reference(cnt.read_run_pairs, oracle.read_run_pairs, path, ["kind"])
        else:
            _same_as_reference(read_log, oracle.ingest_counter_log, path, fmt)


@settings(max_examples=8, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["csv", "json", "pairs"]))
def test_one_edge_row_among_500_matches_reference(pairs_500, data, fmt):
    pair = fmt == "pairs"
    if pair:
        rows = [{"kind": "k", "label": p.label, "local_runtime": p.local_runtime,
                 "remote_runtime": p.remote_runtime,
                 **{f"local_{f}": v for f, v in p.local.as_dict().items()},
                 **{f"remote_{f}": v for f, v in p.remote.as_dict().items()}} for p in pairs_500]
    else:
        rows = [{f: round(v) for f, v in p.local.as_dict().items()} for p in pairs_500]
    i = data.draw(st.integers(0, len(rows) - 1))
    rows[i] = data.draw(_edge_row(rows[i], pair))
    _check_rows(fmt, rows)


# Text float() reads, or refuses, in ways no writer spells a number: the pairs
# reader's table must read each cell exactly as float() does.
ODD_REAL_CELLS = ["1_0", "\u0661", "\uff11.5", " 2.5 ", "\xa03\u3000", "\t4\x1c", "+1e0", "1E1", ".5", "5.",
                  "Infinity", "-nan", "1e400", "-0", "1_", "_1", "1__0", "0x1", "1e", "\u0661\u066b\u0665", ""]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pair_cells_read_as_float_reads_them(data):
    rows = _pair_rows(data.draw)
    for _ in range(data.draw(st.integers(1, 3))):
        row = data.draw(st.sampled_from(rows))
        row[data.draw(st.sampled_from(cnt.PAIR_FIELDS[1:]))] = data.draw(st.sampled_from(ODD_REAL_CELLS))
    _check_rows("pairs", rows)


# --- a valid table builds its objects without checking each again -------------

def _write_500(tmp_path: Path, pairs: list[cnt.RunPair], fmt: str) -> Path:
    path = tmp_path / f"in.{fmt}"
    if fmt == "pairs":
        cnt.write_run_pairs(pairs, path)
    else:
        cnt.write_counter_log([p.local for p in pairs], path, fmt)
    return path


@pytest.mark.parametrize("fmt", ["csv", "json", "pairs"])
def test_valid_tables_skip_per_object_checks(tmp_path, monkeypatch, pairs_500, fmt):
    read = cnt.read_run_pairs if fmt == "pairs" else lambda p: read_log(p, fmt)
    ref = oracle.read_run_pairs if fmt == "pairs" else lambda p: oracle.ingest_counter_log(p, fmt)
    checks = []
    for cls in (cnt.CounterSnapshot, cnt.RunPair):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, check=check: (checks.append(self), check(self)))
    valid = _write_500(tmp_path, pairs_500, fmt)
    assert len(read(valid)[0] if fmt == "pairs" else cnt.ingest_counter_log(valid, fmt)) == 500
    assert checks == []
    # One row that breaks an invariant is rebuilt alone through the constructors,
    # which raise the reference's error.
    prefix = "local_" if fmt == "pairs" else ""
    if fmt == "json":
        records = json.loads(valid.read_text())
        records[250]["stall_cycles_total"] = 2 * records[250]["total_cycles"] + 1
        valid.write_text(json.dumps(records))
    else:
        with valid.open(newline="") as fh:
            records = list(csv.DictReader(fh))
        records[250][prefix + "stall_cycles_total"] = repr(
            2 * float(records[250][prefix + "total_cycles"]) + 1)
        _write_records(valid, records)
    assert _outcome(read, valid) == _outcome(ref, valid) == (
        "InvariantViolation", "stall_cycles_total exceeds total_cycles")


# --- one rule set for objects and tables, against the checks as they were -----

FLOAT_MAX = cnt.FLOAT_MAX
RULE_INT_TOPS = [0, 1, 99, 100, 2**53 - 1, 2**53 + 1, 10**30, 2**64, int(FLOAT_MAX),
                 int(FLOAT_MAX) + 1, 2**1024, 10**400]
RULE_FLOAT_TOPS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 100.0, 1e300, FLOAT_MAX]
RULE_INT_EDGES = RULE_INT_TOPS + [-1, -(10**30)]
RULE_FLOAT_EDGES = RULE_FLOAT_TOPS + [-5e-324, -1.0, math.nan, math.inf, -math.inf]


def _verdict(build) -> tuple | None:
    """None when ``build()`` succeeds, else its error's type and message."""
    try:
        build()
    except SupLabError as exc:
        return type(exc).__name__, str(exc)
    return None


@st.composite
def _rule_values(draw, ints: bool) -> dict:
    """CounterSnapshot field values, all equal to one top value so that every
    ordering rule holds at equality; then up to three edits: a field set to an
    edge number, a bounded field moved one float (or one, for ints) around its
    bound times _SLACK, or the occupancy moved one around the request count."""
    tops = (st.sampled_from(RULE_INT_TOPS) | st.integers(0, 2**70) if ints
            else st.sampled_from(RULE_FLOAT_TOPS) | st.floats(0, FLOAT_MAX))
    edges = (st.sampled_from(RULE_INT_EDGES) | st.integers(-2**70, 2**70) if ints
             else st.sampled_from(RULE_FLOAT_EDGES) | st.floats(allow_nan=True, allow_infinity=True))
    values = dict.fromkeys(cnt.COUNTER_FIELDS, draw(tops))
    for _ in range(draw(st.integers(0, 3))):
        kind, step = draw(st.sampled_from(["value", "slack", "requests"])), draw(st.integers(-1, 1))
        if kind == "value":
            values[draw(st.sampled_from(cnt.COUNTER_FIELDS))] = draw(edges)
        elif kind == "requests":
            values["offcore_demand_occupancy"] = _near(values["offcore_demand_requests"], step)
        else:
            name, bound = draw(st.sampled_from(cnt._BOUNDED_BY))
            edge = values[bound] * cnt._SLACK if 0 <= values[bound] <= FLOAT_MAX else math.inf
            if math.isfinite(edge):
                values[name] = _near(int(edge) if ints else edge, step)
    return values


@settings(max_examples=300, deadline=None)
@given(values=st.booleans().flatmap(_rule_values))
def test_snapshot_rules_match_reference(values):
    assert (_verdict(lambda: cnt.CounterSnapshot(**values))
            == _verdict(lambda: oracle.snapshot(**values)))


INSTRUCTIONS = [0, 1, 99, 100, 101, 10**15, 2**53 + 1, 10**30, 2**64, int(FLOAT_MAX),
                0.0, -0.0, 5e-324, 1.0, 100.0, 1e300, FLOAT_MAX]
RUNTIMES = [1.0, 3, 0.0, -0.0, 5e-324, FLOAT_MAX, -1.0, math.nan, math.inf, 10**400, True, "1"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pair_rules_match_reference(data):
    """Instruction counts of any size around a 1 % drift, and runtimes of every kind."""
    li = data.draw(st.sampled_from(INSTRUCTIONS) | st.integers(0, 10**30)
                   | st.floats(0, FLOAT_MAX))
    ri = data.draw(st.sampled_from(INSTRUCTIONS) | st.just(
        _near(li - li // 100 if isinstance(li, int) else li - li * 0.01, data.draw(st.integers(-1, 1)))))
    if not 0 <= ri <= FLOAT_MAX:
        ri = li
    local, remote = (cnt.CounterSnapshot(**{**dict.fromkeys(cnt.COUNTER_FIELDS, 0), "instructions": i})
                     for i in (li, ri))
    args = (data.draw(st.sampled_from(["w", 7])), local, remote,
            *(data.draw(st.sampled_from(RUNTIMES) | st.floats()) for _ in range(2)))
    assert _verdict(lambda: cnt.RunPair(*args)) == _verdict(lambda: oracle.run_pair(*args))


def _no_warnings(check, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return check(*args).tolist()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pair_table_rules_match_reference_row_by_row(data):
    """Each row's mask from the pairs reader's table check is the reference's
    verdict on that row's two snapshots and pair, for float64 tables."""
    n = len(cnt.COUNTER_FIELDS)
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        values = [float(v) for v in data.draw(_rule_values(False)).values()]
        row = [*values, *values, 1.0, 1.0]
        edit = data.draw(st.sampled_from([None, "drift", "runtime"]))
        if edit == "drift":   # remote instructions around a 1 % drift
            row[2 * n - 1] = _near(row[n - 1] - row[n - 1] * 0.01, data.draw(st.integers(-1, 1)))
        elif edit == "runtime":
            row[data.draw(st.sampled_from([2 * n, 2 * n + 1]))] = data.draw(
                st.sampled_from([0.0, -0.0, 5e-324, FLOAT_MAX, math.inf, math.nan]))
        rows.append(row)

    def reference(row):
        local, remote = (oracle.snapshot(**dict(zip(cnt.COUNTER_FIELDS, half)))
                         for half in (row[:n], row[n:2 * n]))
        oracle.run_pair("w", local, remote, *row[2 * n:])
    assert (_no_warnings(cnt._valid_pairs, np.array(rows))
            == [_verdict(lambda: reference(row)) is None for row in rows])


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(_rule_values(True), min_size=1, max_size=4))
def test_log_table_rules_match_reference_row_by_row(rows):
    """Each row's mask from the counter log reader's table check is the
    reference's verdict on its snapshot, for counts up to EXACT_MAX; a row
    with a larger count is not exact as floats, fails the check and goes
    through _count."""
    rows = [[min(v, int(FLOAT_MAX)) for v in row.values()] for row in rows]   # floats, for numpy
    table = np.array(rows, dtype=float)
    columns = dict(zip(cnt.COUNTER_FIELDS, table.T))
    got = _no_warnings(lambda: cnt._passing(cnt._snapshot_rules(columns)) & (table <= cnt.EXACT_MAX).all(1))
    assert got == [_verdict(lambda: oracle.snapshot(**dict(zip(cnt.COUNTER_FIELDS, row)))) is None
                   and max(row) <= cnt.EXACT_MAX for row in rows]


@pytest.mark.parametrize("edit,bound,built", [
    ("local_stall_cycles_total", "local_total_cycles", ["CounterSnapshot"]),
    ("remote_stall_cycles_total", "remote_total_cycles", ["CounterSnapshot", "CounterSnapshot"]),
    ("remote_instructions", "local_instructions", ["CounterSnapshot", "CounterSnapshot", "RunPair"]),
])
def test_pairs_raise_from_one_row(tmp_path, monkeypatch, pairs_500, edit, bound, built):
    """A 500-pair file whose row 251 sets ``edit`` to twice ``bound`` plus one,
    and row 400 holds a negative count, raises the reference's error after
    building row 251's objects alone, up to the one that fails."""
    path = _write_500(tmp_path, pairs_500, "pairs")
    with path.open(newline="") as fh:
        records = list(csv.DictReader(fh))
    records[250][edit] = repr(2 * float(records[250][bound]) + 1)
    records[399]["local_lfb_hits"] = "-1"
    _write_records(path, records)
    calls = []
    for cls in (cnt.CounterSnapshot, cnt.RunPair):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, check=check: (calls.append(type(self).__name__), check(self)))
    got = _outcome(cnt.read_run_pairs, path)
    assert calls == built
    assert got == _outcome(oracle.read_run_pairs, path)
    assert got[0] == "InvariantViolation" and "row" not in got[1]


# --- a log builds only the rows its table check cannot vouch for --------------

def _counting_inits(monkeypatch) -> list:
    """The arguments of every CounterSnapshot.__init__ call from now on."""
    calls, init = [], cnt.CounterSnapshot.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(cnt.CounterSnapshot, "__init__", counting)
    return calls


@pytest.mark.parametrize("fmt,instructions", [("csv", "1000000000.0"), ("json", 2**53 + 1)])
def test_log_rebuilds_only_rows_the_table_cannot_hold(tmp_path, monkeypatch, pairs_500, fmt, instructions):
    """A 500-row log whose row 251 holds its instruction count as text int()
    refuses, or as a JSON integer past EXACT_MAX, reads as the reference does,
    in values and types, after building that row alone through the constructor."""
    path = _write_500(tmp_path, pairs_500, fmt)
    with path.open(newline="") as fh:
        records = json.load(fh) if fmt == "json" else list(csv.DictReader(fh))
    records[250]["instructions"] = instructions
    _write_records(path, records)
    calls = _counting_inits(monkeypatch)
    got = cnt.ingest_counter_log(path, fmt)
    assert len(calls) == 1
    assert calls[0][-1] == (1000000000 if fmt == "csv" else 2**53 + 1)
    assert repr(as_snapshots(got)) == repr(oracle.ingest_counter_log(path, fmt))


def test_log_raises_from_its_first_failing_row(tmp_path, monkeypatch, pairs_500):
    """A CSV log with a valid ``1e3`` cell at row 100, a stall_cycles_total past
    total_cycles at row 251 and ``abc`` at row 400 raises the reference error
    after two constructor calls: row 100's, which builds, and row 251's."""
    path = _write_500(tmp_path, pairs_500, "csv")
    with path.open(newline="") as fh:
        records = list(csv.DictReader(fh))
    records[99]["lfb_hits"] = "1e3"
    records[250]["stall_cycles_total"] = str(2 * int(records[250]["total_cycles"]) + 1)
    records[399]["l1_demand_hits"] = "abc"
    _write_records(path, records)
    calls = _counting_inits(monkeypatch)
    got = _outcome(read_log, path)
    assert len(calls) == 2 and calls[0][6] == 1000
    assert got == _outcome(oracle.ingest_counter_log, path) == (
        "InvariantViolation", "stall_cycles_total exceeds total_cycles")


# --- memory at 50k rows: the reader's text, then the tables and one chunk -----

MEMORY_ROWS = 50_000


@pytest.fixture(scope="module")
def logs_50k(tmp_path_factory, pairs_500) -> Path:
    """log.csv and log.json, pairs_500's local snapshots repeated to MEMORY_ROWS rows, and params.json."""
    d = tmp_path_factory.mktemp("logs_50k")
    cnt.write_counter_log([p.local for p in pairs_500], d / "500.csv")
    head, *rows = (d / "500.csv").read_text().splitlines(True)
    (d / "log.csv").write_text(head + "".join(rows) * (MEMORY_ROWS // 500))
    cnt.write_counter_log([p.local for p in pairs_500], d / "500.json", "json")
    (d / "log.json").write_text(json.dumps(json.loads((d / "500.json").read_text()) * (MEMORY_ROWS // 500)))
    dm.make_reference_params(dm.PRESETS["local-emr"], dm.PRESETS["cxl-b"]).to_json(d / "params.json")
    return d


class TestCounterMemory:
    """Peak traced memory of the counter ops at MEMORY_ROWS rows.  A reader holds
    the file's text at its peak; after it, an op holds the log's int64 and
    float64 tables, its own columns and one TABLE_CHUNK of output rows, which
    stay below the reader's peak: no count is kept as a Python int per cell,
    and no writer formats the whole log at once.  The writers' own tests run
    on three chunks: their peak does not grow with the rows."""

    def test_counter_log_writer_holds_one_chunk(self, logs_50k, tmp_path):
        # per row of a chunk: 18 counts as list and tuple slots and int objects
        # (18 x 48 B), the row's text and its share of the template (~230 B)
        log = cnt.ingest_counter_log(logs_50k / "log.csv")[:3 * TABLE_CHUNK]
        cnt.write_counter_log(log[:10], tmp_path / "warm.csv")
        assert peak_bytes(cnt.write_counter_log, log, tmp_path / "s.csv") <= 1_200 * TABLE_CHUNK + 65_536

    def test_json_counter_log_writer_holds_one_chunk(self, logs_50k, tmp_path):
        # per row of a chunk: 18 counts as list and tuple slots and int objects
        # (18 x 48 B), the record's text (~640 B) and its template (~530 B)
        log = cnt.ingest_counter_log(logs_50k / "log.csv")[:3 * TABLE_CHUNK]
        cnt.write_counter_log(log[:10], tmp_path / "warm.json", "json")
        assert peak_bytes(cnt.write_counter_log, log, tmp_path / "s.json", "json") <= 2_100 * TABLE_CHUNK + 65_536

    @staticmethod
    def derived_json_bound(rows: int) -> int:
        """write_derived_json's peak on a log whose every row has reads and
        cycles, so that its kernels run on the log itself.  The columns and the
        text are never held together: while the value table fills, 14 float
        columns (the latency, the five fractions, the 7-wide table and the row
        numbers), the masks and a mask's indices; while it formats, the table,
        the row kinds and the masks, and per row of a chunk its seven values as
        tuple slots and objects, its template and its text (~750 B)."""
        return max((14 * 8 + 10) * rows, (7 * 8 + 10) * rows + 760 * TABLE_CHUNK) + 65_536

    def test_derived_json_holds_its_columns_and_one_chunk(self, logs_50k, tmp_path):
        # at three chunks the chunk's text sets the peak
        log = cnt.ingest_counter_log(logs_50k / "log.csv")[:3 * TABLE_CHUNK]
        cnt.write_derived_json(log[:10], tmp_path / "warm.json")
        assert peak_bytes(cnt.write_derived_json, log, tmp_path / "d.json") <= self.derived_json_bound(len(log))

    def test_derived_json_copies_no_table(self, logs_50k, tmp_path):
        # every row has reads and cycles, so the kernels run on the log itself
        log = cnt.ingest_counter_log(logs_50k / "log.csv")
        assert log[log.offcore_demand_requests > 0] is log[log.total_cycles > 0] is log
        cnt.write_derived_json(log[:10], tmp_path / "warm.json")
        assert peak_bytes(cnt.write_derived_json, log, tmp_path / "d.json") <= self.derived_json_bound(len(log))

    def test_csv_reader_holds_the_text(self, logs_50k):
        # the file as bytes and as text, its lines (a str object of ~57 B each
        # beyond its characters) and their joined copy and its encoding for the
        # alphabet check: four copies of the file
        path = logs_50k / "log.csv"
        cnt.ingest_counter_log(logs_50k / "500.csv")
        bound = 4 * path.stat().st_size + 64 * MEMORY_ROWS + (1 << 20)
        assert peak_bytes(cnt.ingest_counter_log, path) <= bound

    @pytest.mark.parametrize("command,fmt", [("ingest", "csv"), ("ingest", "json"), ("predict", "csv")])
    def test_op_peak_is_the_readers(self, logs_50k, tmp_path, command, fmt):
        # peaks[0] is the op's peak up to its log's return from the reader, and
        # peaks[1] its peak after that, which starts from the log's tables
        argv = [command, "--format", fmt, "--params", str(logs_50k / "params.json"), "--input"]
        argv = argv if command == "predict" else argv[:3] + argv[-1:]
        assert cli.run([*argv, str(logs_50k / f"500.{fmt}"), "--out", str(tmp_path / "warm")]) == 0
        peaks, ingest = [], cnt.ingest_counter_log

        def read(*args, **kwargs):
            log = ingest(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return log
        argv += [str(logs_50k / f"log.{fmt}"), "--out", str(tmp_path / "o")]
        with mock.patch.object(cnt, "ingest_counter_log", read):
            peaks.append(peak_bytes(cli.run, argv))
        assert len(peaks) == 2 and peaks[1] <= peaks[0] + 262_144
