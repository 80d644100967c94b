"""Tests of the benchmark itself: tracing, determinism and the output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return bench.import_suplab()


def test_tracer_restores_module_attributes(mods):
    before = {(layer, attr): getattr(mods[layer], attr) for layer, attr, _ in tracing.WRAPPED}
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        assert all(getattr(mods[layer], attr) is not fn for (layer, attr), fn in before.items())
        with pytest.raises(sys.modules["suplab.errors"].SupLabError):
            mods["devmodel"].sample_latencies(mods["devmodel"].PRESETS["cxl-b"], n=0)
    finally:
        tracer.uninstall()
    assert all(getattr(mods[layer], attr) is fn for (layer, attr), fn in before.items())
    # The span of the call that raised was closed, and nothing is left open.
    assert [s.name for s in tracer.spans] == ["devmodel.sample_latencies"]
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._stack == []


def test_self_time_subtracts_direct_children():
    spans = []
    for span_id, parent, start, end in ((0, None, 0.0, 10.0), (1, 0, 1.0, 4.0),
                                         (2, 1, 2.0, 3.0), (3, 0, 5.0, 6.0)):
        s = tracing.Span(span_id, parent, 0, f"s{span_id}")
        s.start, s.end = start, end
        spans.append(s)
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_op_time_is_gauged_by_its_own_reference_loop():
    ops = [workloads.Op("a", [], "", {}), workloads.Op("b", [], "", {}, "numpy")]
    py, np_ = (bench.REFERENCES[name][1] for name in ("python", "numpy"))
    # The host runs the second round at half speed: both loops and ops take twice as long.
    rounds = [
        {"op_seconds": [3 * py, 5 * np_],
         "ref_seconds": [{"python": py}, {"python": py, "numpy": np_}, {"numpy": np_}]},
        {"op_seconds": [6 * py, 10 * np_],
         "ref_seconds": [{"python": 2 * py}, {"python": 2 * py, "numpy": 2 * np_},
                         {"numpy": 2 * np_}]},
    ]
    assert bench.op_ref_seconds(ops, rounds) == pytest.approx([3 * py, 5 * np_])


COUNT_METRICS = [
    m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if m["unit"] == "count" or m["name"] == "breakdown.decompose_per_pair"
]


@pytest.mark.parametrize("workload", ["tiersim_traces", "counter_pipeline", "interleave_latency"])
def test_traced_runs_repeat_counts_and_outputs(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("SUPLAB_THREADS", raising=False)
    monkeypatch.setattr(bench, "SETUPS", 2)  # the second set-up must repeat the inputs
    results = []
    for i in range(2):
        workdir = ROOT / ".perfbench_work" / f"selftest-{workload}-{i}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        results.append(bench.run_workload(workload, 3, 0.0, True, workdir))
        shutil.rmtree(workdir)
    a, b = results
    assert a["failed"] == b["failed"] == 0, a["errors"] + b["errors"]
    assert {k: a["per_layer"][k] for k in COUNT_METRICS} == {
        k: b["per_layer"][k] for k in COUNT_METRICS
    }
    assert a["summaries"] == b["summaries"]
    if workload != "tiersim_traces":
        assert a["per_layer"]["tiersim.simulate_calls"] == 0


# --- output checks: pass on real CLI output, fail on a corrupted copy -------

def _edit_json(path: Path, fn) -> None:
    payload = json.loads(path.read_text())
    fn(payload)
    path.write_text(json.dumps(payload))


def _edit_csv_cell(path: Path, row: int, column: str, fn) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(column)
    cells[j] = fn(cells[j])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _drop_last_line(path: Path) -> None:
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _tiersim(mods, tmp: Path):
    ts = mods["tiersim"]
    # Fast tier of 8 fills in the first epoch; pages 8..11 then recur on the
    # slow tier, cross the threshold and get promoted.
    epochs = [ts.TraceEpoch([(p, 1) for p in range(8)])]
    epochs += [ts.TraceEpoch([(8 + i % 4, 1) for i in range(40)]) for _ in range(3)]
    ts.write_trace(ts.TierTrace(epochs=epochs, page_count=16, wss_pages=12),
                   tmp / "t.csv", tmp / "t.json")
    (tmp / "cfg.json").write_text(json.dumps(
        [{"policy": p, "fast_capacity": 8, "max_promo_rate": 100} for p in ts.POLICIES]))
    argv = ["tiersim", "--trace", str(tmp / "t.csv"), "--trace-header", str(tmp / "t.json"),
            "--policy-config", str(tmp / "cfg.json")]
    return argv, partial(checks.check_tiersim, epochs=4, policies=tuple(ts.POLICIES))


def _pairs(mods, tmp: Path, n=20):
    pairs = mods["devmodel"].make_consistency_fixture(n, seed=5)
    mods["counters"].write_run_pairs(pairs, tmp / "pairs.csv")
    return pairs


def _breakdown(mods, tmp: Path):
    _pairs(mods, tmp)
    return (["breakdown", "--pairs", str(tmp / "pairs.csv")],
            partial(checks.check_breakdown, n_pairs=20))


def _ingest(mods, tmp: Path):
    pairs = _pairs(mods, tmp)
    mods["counters"].write_counter_log([p.local for p in pairs], tmp / "log.csv", "csv")
    return (["ingest", "--input", str(tmp / "log.csv")],
            partial(checks.check_ingest, expected=workloads._counts_csv(tmp / "log.csv")))


def _predict(mods, tmp: Path):
    dm = mods["devmodel"]
    pairs = _pairs(mods, tmp)
    mods["counters"].write_counter_log([p.local for p in pairs], tmp / "log.csv", "csv")
    params = dm.make_reference_params(dm.PRESETS["local-emr"], dm.PRESETS["cxl-b"])
    params.to_json(tmp / "params.json")
    return (["predict", "--input", str(tmp / "log.csv"), "--params", str(tmp / "params.json")],
            partial(checks.check_predict, n_rows=20,
                    params=json.loads((tmp / "params.json").read_text())))


def _calibrate(mods, tmp: Path):
    dm = mods["devmodel"]
    local, remote = dm.PRESETS["local-emr"], dm.PRESETS["cxl-b"]
    truth = dm.make_reference_params(local, remote)
    mods["calibrate"].write_calibration_csv(
        dm.make_calibration_runs(local, remote, truth, seed=3), tmp / "runs.csv")
    return (["calibrate", "--runs", str(tmp / "runs.csv"), "--least-squares"],
            partial(checks.check_calibrate, truth=asdict(truth)))


def _scan(mods, tmp: Path):
    w = mods["devmodel"].make_bandwidth_bound_suite(1, seed=2, **mods["devmodel"].CXLA_SUITE_KWARGS)[0]
    (tmp / "w.json").write_text(json.dumps(asdict(w)))
    return (["interleave", "scan", "--workload", str(tmp / "w.json"), "--grid", "21"],
            partial(checks.check_scan, grid=21))


def _latcdf(mods, tmp: Path):
    return (["latcdf", "--profile", "cxl-b", "--n", "5000", "--dump-samples"],
            partial(checks.check_latcdf, n=5000, dumped=True))


def _bump_tpp_promotions(out: Path):
    def bump(rows):
        next(r for r in rows if r["policy"] == "tpp")["promotions"] += 1

    _edit_json(out / "comparison.json", bump)


CASES = {
    "tiersim_promotion_count": (_tiersim, _bump_tpp_promotions),
    "tiersim_epoch_row": (_tiersim, lambda out: _drop_last_line(out / "epochs_alto.csv")),
    "breakdown_conservation": (_breakdown, lambda out: _edit_csv_cell(
        out / "breakdown.csv", 3, "residual", lambda v: repr(float(v) + 1e-9))),
    "ingest_roundtrip": (_ingest, lambda out: _edit_csv_cell(
        out / "snapshots.csv", 0, "stall_l2", lambda v: str(int(v) + 1))),
    "predict_linear_model": (_predict, lambda out: _edit_csv_cell(
        out / "predictions.csv", 2, "s_pred", lambda v: repr(float(v) * 1.001))),
    "calibrate_noiseless": (_calibrate, lambda out: _edit_json(
        out / "params.json", lambda p: p.update(k2=p["k2"] * (1 + 1e-6)))),
    "scan_best": (_scan, lambda out: _edit_json(
        out / "scan_best.json", lambda b: b.update(remote_fraction=0.5))),
    "latcdf_monotone": (_latcdf, lambda out: _edit_csv_cell(
        out / "percentiles.csv", 3, "ns", lambda v: "1.0")),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_passes_then_fails_on_corrupted_output(case, mods, tmp_path):
    build, corrupt = CASES[case]
    argv, check = build(mods, tmp_path)
    out = tmp_path / "out"
    assert mods["cli"].run(argv + ["--out", str(out)]) == 0
    summary = check(out)
    assert summary["files"]
    corrupt(out)
    with pytest.raises(checks.CheckFailed):
        check(out)


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "counter_pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
