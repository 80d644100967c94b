from __future__ import annotations

import csv
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from suplab import counters as cnt
from suplab import devmodel as dm
from suplab import interleave as il
from suplab import tiersim as ts
from suplab.model import ModelParams
from suplab.errors import (
    InvariantViolation,
    MalformedRecord,
    MissingColumn,
    NegativeValue,
    NoDemandReads,
)

from conftest import snapshot

FIXTURE_3ROWS = """\
total_cycles,stall_cycles_total,backend_stall_cycles,mem_stall_cycles,llc_miss_demand_stall_cycles,l1_demand_hits,lfb_hits,store_buffer_full_stall_cycles,stall_l1,stall_l2,stall_l3,offcore_demand_requests,offcore_demand_occupancy,l1_prefetch_l3_miss,l1_prefetch_total,l2_prefetch_l3_miss,l2_prefetch_l3_hit,instructions
1000,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1000
20000,9000,8500,5000,4000,50000,5000,1200,300,700,500,100,30000,800,2000,600,1400,40000
50000,20000,19000,12000,9000,120000,9000,2500,800,1500,1100,400,16000,1500,5000,1200,2800,90000
"""


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
    snaps = cnt.ingest_counter_log(shipped)
    assert [cnt.amortized_offcore_latency(s) for s in snaps[1:]] == [300.0, 40.0]


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
        snaps = cnt.ingest_counter_log(fixture_csv, format="csv")
        assert len(snaps) == 3
        # amortized latency recomputed by hand from the fixture rows
        assert snaps[1].offcore_demand_occupancy / snaps[1].offcore_demand_requests == 300.0
        assert cnt.amortized_offcore_latency(snaps[1]) == 300.0
        assert cnt.amortized_offcore_latency(snaps[2]) == 40.0

    def test_zero_row_valid(self, fixture_csv):
        snaps = cnt.ingest_counter_log(fixture_csv)
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
        snaps = cnt.ingest_counter_log(fixture_csv)
        out = tmp_path / "counters.json"
        cnt.write_counter_log(snaps, out, format="json")
        again = cnt.ingest_counter_log(out, format="json")
        assert again == snaps

    def test_roundtrip_bit_exact(self, tmp_path, fixture_csv):
        snaps = cnt.ingest_counter_log(fixture_csv)
        out = tmp_path / "again.csv"
        cnt.write_counter_log(snaps, out)
        assert cnt.ingest_counter_log(out) == snaps


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
        s = cnt.ingest_counter_log(fixture_csv)[1]
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
], ids=["CounterSnapshot", "RunPair", "DeviceProfile", "WorkloadProfile", "ModelParams",
        "InterleaveFit", "PolicyConfig"])
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
    "csv log": ("log.csv", lambda p: cnt.ingest_counter_log(p, "csv")),
    "json log": ("log.json", lambda p: cnt.ingest_counter_log(p, "json")),
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
        assert cnt.ingest_counter_log(path, fmt) == snaps


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
