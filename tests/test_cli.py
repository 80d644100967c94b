from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import stat
import sys
import warnings
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from suplab import breakdown as bd
from suplab import cli
from suplab import counters as cnt
from suplab import devmodel as dm
from suplab import calibrate as cal
from suplab import interleave as il
from suplab import tiersim as ts

from test_counters import FIXTURE_3ROWS, fixture_records
from test_tiersim import small_trace


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture
def counters_csv(tmp_path):
    path = tmp_path / "counters.csv"
    path.write_text(FIXTURE_3ROWS)
    return path


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert cli.run(["ingest"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_1(self, capsys):
        assert cli.run(["latcdf", "--profile", "cxl-b", "--bogus"]) == 1

    def test_data_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,counter,log\n1,2,3,4\n")
        assert cli.run(["ingest", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path):
        assert cli.run(
            ["ingest", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
        ) == 2

    def test_success_is_0(self, tmp_path, counters_csv):
        assert cli.run(
            ["ingest", "--input", str(counters_csv), "--out", str(tmp_path / "o")]
        ) == 0


def _subparser(command: str) -> argparse.ArgumentParser:
    """``command``'s parser in the one tree."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


class TestManifest:
    def test_manifest_written_with_seed(self, tmp_path, counters_csv):
        out = tmp_path / "o"
        cli.run(["ingest", "--input", str(counters_csv), "--out", str(out), "--seed", "9"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["subcommand"] == "ingest"

    def test_manifest_records_every_argument(self, tmp_path):
        out = tmp_path / "o"
        assert cli.run(["latcdf", "--profile", "cxl-b", "--n", "10", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["args"] == {"command": "latcdf", "dump_samples": False, "load": 0.0,
                                    "n": 10, "out": str(out), "profile": "cxl-b", "seed": 0}
        assert list(manifest["args"]) == sorted(manifest["args"])

    def test_inputs_name_every_file_flag(self, tmp_path, counters_csv):
        # inputs holds every file or preset a command was given, keyed by its
        # argument's dest, defaults included, and nothing else
        files = {name: str(tmp_path / name) for name in (
            "l.json", "r.json", "params.json", "fit.json", "runs.csv", "pairs.csv", "w.json",
            "log.csv", "t.csv", "t.json", "cfg.json")}
        local, remote = dm.PRESETS["local-emr"], dm.PRESETS["cxl-b"]
        local.to_json(files["l.json"])
        remote.to_json(files["r.json"])
        truth = dm.make_reference_params(local, remote)
        truth.to_json(files["params.json"])
        il.InterleaveFit("p", 0.1, 0.0, 0.1, 0.0).to_json(files["fit.json"])
        cal.write_calibration_csv(dm.make_calibration_runs(local, remote, truth, seed=0),
                                  files["runs.csv"])
        cnt.write_run_pairs(dm.make_consistency_fixture(2, seed=0), files["pairs.csv"])
        w = dm.make_workload_suite(1, seed=0)[0]
        w.to_json(files["w.json"])
        cnt.write_counter_log([dm.local_snapshot(w, local)], files["log.csv"])
        ts.write_trace(small_trace(), files["t.csv"], files["t.json"])
        Path(files["cfg.json"]).write_text(json.dumps({"policy": "tpp", "fast_capacity": 2}))
        devices = {"local": files["l.json"], "remote": files["r.json"]}
        device_flags = ["--local", files["l.json"], "--remote", files["r.json"]]
        log = str(counters_csv)
        commands = [
            (["ingest", "--input", log], {"input": log}),
            (["breakdown", "--pairs", files["pairs.csv"]], {"pairs": files["pairs.csv"]}),
            (["calibrate", "--runs", files["runs.csv"]], {"runs": files["runs.csv"]}),
            (["predict", "--input", log, "--params", files["params.json"]],
             {"input": log, "params": files["params.json"]}),
            (["interleave", "scan", "--workload", files["w.json"], "--grid", "3", *device_flags],
             {"workload": files["w.json"], **devices}),
            (["interleave", "scan", "--workload", files["w.json"], "--grid", "3",
              "--remote", "cxl-b"],
             {"workload": files["w.json"], "local": "local-emr", "remote": "cxl-b"}),
            (["interleave", "forecast", "--input", files["log.csv"], "--params",
              files["params.json"], "--fit", files["fit.json"], *device_flags],
             {"input": files["log.csv"], "params": files["params.json"], "fit": files["fit.json"],
              **devices}),
            (["tiersim", "--trace", files["t.csv"], "--trace-header", files["t.json"],
              "--policy-config", files["cfg.json"], *device_flags],
             {"trace": files["t.csv"], "trace_header": files["t.json"],
              "policy_config": files["cfg.json"], **devices}),
            (["tiersim", "--trace", files["t.csv"], "--trace-header", files["t.json"],
              "--policy-config", files["cfg.json"]],
             {"trace": files["t.csv"], "trace_header": files["t.json"],
              "policy_config": files["cfg.json"], "local": "local-emr", "remote": "cxl-b"}),
            (["latcdf", "--profile", files["l.json"], "--n", "10"], {"profile": files["l.json"]}),
            (["latcdf", "--profile", "cxl-d", "--n", "10"], {"profile": "cxl-d"}),
            (["demo"], {}),
        ]
        for i, (argv, want) in enumerate(commands):
            assert cli.run([*argv, "--out", str(tmp_path / f"o{i}")]) == 0, argv
            inputs = json.loads((tmp_path / f"o{i}" / "manifest.json").read_text())["inputs"]
            assert inputs == want, argv

    @staticmethod
    def undeclared_inputs(command: str) -> set[str]:
        """The names in ``command``'s inputs column that are no dest of its arguments."""
        dests = {action.dest for action in _subparser(command)._actions}
        return set(cli.COMMANDS[command][3]) - dests

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_declared_inputs_are_arguments(self, command):
        assert not self.undeclared_inputs(command)

    def test_misspelled_input_is_caught(self, monkeypatch):
        help_, handler, arguments, inputs = cli.COMMANDS["tiersim"]
        monkeypatch.setitem(cli.COMMANDS, "tiersim",
                            (help_, handler, arguments, (*inputs, "trace-header")))
        assert self.undeclared_inputs("tiersim") == {"trace-header"}


# Each command's required arguments, in groups; the files need not exist.
REQUIRED_ARGS = {
    "ingest": [["--input", "x.csv"]],
    "breakdown": [["--pairs", "x.csv"]],
    "calibrate": [["--runs", "x.csv"]],
    "predict": [["--input", "x.csv"], ["--params", "p.json"]],
    "interleave": [["scan"], ["--workload", "w.json"]],
    "tiersim": [["--trace", "t.csv"], ["--trace-header", "t.json"], ["--policy-config", "c.json"]],
    "latcdf": [["--profile", "cxl-b"]],
    "demo": [],
}


class Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise Reached


class TestArgumentBounds:
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        required = [token for group in REQUIRED_ARGS[command] for token in group]
        argv = [command, *required, "--seed", "-1", "--out", str(out)]
        assert cli.run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["usage error: argument --seed: invalid non_negative_int value: '-1'"]
        assert list(tmp_path.iterdir()) == []

    def test_latcdf_sample_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dm.np.random, "default_rng", _reached)
        out = tmp_path / "o"
        rc = cli.run(["latcdf", "--profile", "cxl-b", "--n", str(dm.MAX_SAMPLES + 1),
                      "--out", str(out)])
        assert "n must be in [1, 20000000]" in _assert_data_error(rc, capsys, out)

    def test_scan_grid_cap(self, tmp_path, capsys, monkeypatch):
        wjson = tmp_path / "w.json"
        wjson.write_text(json.dumps(dm.make_workload_suite(1, seed=0)[0].__dict__))
        monkeypatch.setattr(il, "_runtimes", _reached)
        out = tmp_path / "o"
        rc = cli.run(["interleave", "scan", "--workload", str(wjson),
                      "--grid", str(il.MAX_GRID + 1), "--out", str(out)])
        assert "grid must be in [2, 1000001]" in _assert_data_error(rc, capsys, out)


class TestLatCdf:
    def test_cxlb_spread_in_band(self, tmp_path):
        out = tmp_path / "lat"
        rc = cli.run(
            ["latcdf", "--profile", "cxl-b", "--n", "1000000", "--seed", "7",
             "--out", str(out)]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 144.0 <= summary["p99.9_minus_p50"] <= 176.0
        lines = (out / "percentiles.csv").read_text().splitlines()
        assert lines[0] == "q,ns"

    def test_profile_json_accepted(self, tmp_path):
        prof = tmp_path / "dev.json"
        dm.PRESETS["cxl-b"].to_json(prof)
        out = tmp_path / "lat"
        rc = cli.run(["latcdf", "--profile", str(prof), "--n", "1000", "--seed", "7",
                      "--out", str(out)])
        assert rc == 0


class TestPipelines:
    def test_breakdown_rerun_byte_identical(self, tmp_path):
        pairs = dm.make_consistency_fixture(10, seed=3)
        from suplab.counters import write_run_pairs

        pairs_csv = tmp_path / "pairs.csv"
        write_run_pairs(pairs, pairs_csv)
        out = tmp_path / "bd"
        assert cli.run(["breakdown", "--pairs", str(pairs_csv), "--out", str(out)]) == 0
        first = tree_digest(out)
        shutil.rmtree(out)
        assert cli.run(["breakdown", "--pairs", str(pairs_csv), "--out", str(out)]) == 0
        assert tree_digest(out) == first

    def test_calibrate_then_predict(self, tmp_path, counters_csv):
        local, remote = dm.PRESETS["local-emr"], dm.PRESETS["cxl-b"]
        truth = dm.make_reference_params(local, remote)
        runs = dm.make_calibration_runs(local, remote, truth, seed=2)
        runs_csv = tmp_path / "runs.csv"
        cal.write_calibration_csv(runs, runs_csv)
        cal_out = tmp_path / "cal"
        assert cli.run(["calibrate", "--runs", str(runs_csv), "--out", str(cal_out)]) == 0
        pred_out = tmp_path / "pred"
        assert cli.run(
            ["predict", "--input", str(counters_csv),
             "--params", str(cal_out / "params.json"), "--out", str(pred_out)]
        ) == 0
        lines = (pred_out / "predictions.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_interleave_scan_and_forecast(self, tmp_path):
        local = dm.DeviceProfile(name="l", base_latency_ns=90.0, bandwidth_cap_gbs=50.0)
        remote = dm.DeviceProfile(name="r", base_latency_ns=140.0, bandwidth_cap_gbs=30.0)
        ldev, rdev = tmp_path / "l.json", tmp_path / "r.json"
        local.to_json(ldev)
        remote.to_json(rdev)
        w = dm.make_bandwidth_bound_suite(1, seed=2, local=local)[0]
        wjson = tmp_path / "w.json"
        wjson.write_text(json.dumps(w.__dict__))
        out = tmp_path / "scan"
        rc = cli.run(
            ["interleave", "scan", "--workload", str(wjson), "--local", str(ldev),
             "--remote", str(rdev), "--grid", "51", "--out", str(out)]
        )
        assert rc == 0
        best = json.loads((out / "scan_best.json").read_text())
        assert 0.0 <= best["remote_fraction"] <= 1.0

        # forecast needs params + fit + a counter log of the local run
        from suplab import interleave as il
        from suplab.counters import write_counter_log

        params = dm.make_reference_params(local, remote)
        fit = il.fit_interleave(
            dm.make_bandwidth_bound_suite(4, seed=5, local=local),
            local, remote, params, grid=51, seed=0,
        )
        pjson, fjson = tmp_path / "params.json", tmp_path / "fit.json"
        params.to_json(pjson)
        fit.to_json(fjson)
        log = tmp_path / "snap.csv"
        write_counter_log([dm.local_snapshot(w, local)], log)
        fout = tmp_path / "fc"
        rc = cli.run(
            ["interleave", "forecast", "--input", str(log), "--params", str(pjson),
             "--fit", str(fjson), "--local", str(ldev), "--remote", str(rdev),
             "--out", str(fout)]
        )
        assert rc == 0
        body = (fout / "forecast.csv").read_text().splitlines()
        assert body[0].startswith("label,r_dram")

    def test_forecast_reads_no_device(self, tmp_path):
        local = dm.DeviceProfile(name="l", base_latency_ns=90.0, bandwidth_cap_gbs=50.0)
        pjson, fjson, log = tmp_path / "params.json", tmp_path / "fit.json", tmp_path / "log.csv"
        dm.make_reference_params(local, dm.PRESETS["cxl-a"]).to_json(pjson)
        il.InterleaveFit("l", 0.5, 0.1, 0.2, 0.05).to_json(fjson)
        cnt.write_counter_log([dm.local_snapshot(w, local) for w in
                               dm.make_bandwidth_bound_suite(3, seed=2, local=local)], log)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x"}))
        argv = ["interleave", "forecast", "--input", str(log), "--params", str(pjson),
                "--fit", str(fjson)]
        assert cli.run(argv + ["--out", str(tmp_path / "defaults")]) == 0
        assert cli.run(argv + ["--local", str(bad), "--remote", str(tmp_path / "missing.json"),
                               "--out", str(tmp_path / "bad")]) == 0
        forecast = [(tmp_path / d / "forecast.csv").read_bytes() for d in ("defaults", "bad")]
        assert forecast[0] == forecast[1] and forecast[0].count(b"true") == 3
        inputs = json.loads((tmp_path / "bad" / "manifest.json").read_text())["inputs"]
        assert inputs["local"] == str(bad) and inputs["remote"] == str(tmp_path / "missing.json")

    def test_tiersim_subcommand(self, tmp_path):
        trace = ts.make_no_overlap_trace(seed=0)
        ts.write_trace(trace, tmp_path / "t.csv", tmp_path / "t.json")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps([
            {"policy": "tpp", "fast_capacity": 2500},
            {"policy": "alto", "fast_capacity": 2500},
        ]))
        out = tmp_path / "sim"
        rc = cli.run(
            ["tiersim", "--trace", str(tmp_path / "t.csv"),
             "--trace-header", str(tmp_path / "t.json"),
             "--policy-config", str(cfg_path), "--out", str(out)]
        )
        assert rc == 0
        rows = json.loads((out / "comparison.json").read_text())
        assert {r["policy"] for r in rows} == {"tpp", "alto"}
        assert (out / "epochs_tpp.csv").exists()

    def test_tiersim_huge_page_id(self, tmp_path):
        # Per-page state follows the pages used, not the largest id.
        (tmp_path / "t.csv").write_text("epoch,page_id,group_size\n0,999999999999,1\n")
        (tmp_path / "t.json").write_text(json.dumps({**TRACE_HEADER, "page_count": 10**12}))
        out = tmp_path / "sim"
        assert _tiersim(tmp_path, {"policy": "alto", "fast_capacity": 1}, out) == 0
        assert json.loads((out / "comparison.json").read_text())[0]["promotions"] == 0


def _tiersim(tmp_path, policy_config, out) -> int:
    """Run tiersim over tmp_path/t.csv + t.json with the given policy config."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(policy_config))
    return cli.run(["tiersim", "--trace", str(tmp_path / "t.csv"),
                    "--trace-header", str(tmp_path / "t.json"),
                    "--policy-config", str(cfg_path), "--out", str(out)])


def _assert_data_error(rc, capsys, out, names=None) -> str:
    """Exit 2, one stderr line (naming the file ``names``, if given), no output
    directory and no staging directory beside it.

    Returns the stderr line."""
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert names is None or str(names) in err[0]
    assert not out.exists()
    assert not list(out.parent.glob(f".{out.name}.*"))
    return err[0]


TRACE_HEADER = {"page_count": 4, "wss_pages": 4, "epoch_instructions": 1e9, "epochs": 2}

# Rows in epochs 0 and 1 on pages 0 and 3: a valid header covers them when
# epochs >= 2 and page_count >= 4.
FUZZ_TRACE_CSV = "epoch,page_id,group_size\n0,0,1\n1,3,1\n"
HEADER_VALUES = st.one_of(
    st.sampled_from([0, 1, 2, 4, -1, ts.MAX_EPOCHS - 1, ts.MAX_EPOCHS, ts.MAX_EPOCHS + 1,
                     2**63 - 1, 2**63, 10**400]),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 4.0, 1e9, 0.5, 1.9, -1e9, 1e308, 5e-324,
                     math.nan, math.inf, -math.inf]),
    st.sampled_from([True, False, "4", "", None, [], [4], {}, {"epochs": 4}]),
)


@st.composite
def trace_headers(draw) -> dict:
    """A valid header with up to two keys dropped, set to another JSON value
    or, for ``bogus``, added."""
    header = dict(TRACE_HEADER)
    for key in draw(st.lists(st.sampled_from([*TRACE_HEADER, "bogus"]), max_size=2, unique=True)):
        if key in header and draw(st.booleans()):
            del header[key]
        else:
            header[key] = draw(HEADER_VALUES)
    return header


def header_is_valid(header: dict) -> bool:
    """The documented header rule, written out: the three counts as JSON
    integers in their bounds, an optional finite ``epoch_instructions`` >= 1,
    and no other key."""
    def count(key, low, high=2**63 - 1):
        return type(header.get(key)) is int and low <= header[key] <= high
    instructions = header.get("epoch_instructions", 1e9)
    return (set(header) <= set(TRACE_HEADER) and count("epochs", 0, ts.MAX_EPOCHS)
            and count("page_count", 1) and count("wss_pages", 0)
            and type(instructions) in (int, float) and 1 <= instructions <= sys.float_info.max)


# What the trace fuzz writes: each value spelled as np.loadtxt reads int64
# (signs, whitespace and leading zeros), or a cell it refuses.
BAD_TRACE_CELLS = ["1_0", "\u0661", "\uff11", "1.0", "1e0", "1.", "", " ", '"1"', "x", "0x1", "+-1",
                   "- 1", "1 1", "nan", str(2**63), str(-2**63 - 1), "9" * 30]


def _int64_spellings(v: int) -> list[str]:
    sign = "-" if v < 0 else "+"
    return [str(v), f"{sign}{abs(v)}", f" {v} ", f"\t{v}", f"\xa0{v}\u3000", f"{sign}00{abs(v)}", f"{v}\x1c"]


@st.composite
def trace_csvs(draw) -> tuple[str, int | str | None]:
    """A trace CSV over TRACE_HEADER's 2 epochs and 4 pages, and what its error
    must name: the first data row that np.loadtxt refuses (a bad cell, a missing
    or extra field, a whitespace-only line) or, if it reads, the first row out
    of range; "header" for a BOM; None when every row is valid.  Empty lines
    may come between rows, which count from 1 without them, and line ends may
    be CRLF."""
    lines, rows, bad, out_of_range = [], 0, None, None
    for _ in range(draw(st.integers(1, 4))):
        values = [draw(st.sampled_from([0, 1, 1, 0, -1, 2])), draw(st.sampled_from([0, 1, 3, -1, 4])),
                  draw(st.sampled_from([1, 2, 5, 0]))]
        cells = [draw(st.sampled_from(BAD_TRACE_CELLS) if draw(st.integers(0, 11)) == 0
                      else st.sampled_from(_int64_spellings(v))) for v in values]
        edit = draw(st.sampled_from(["none"] * 8 + ["extra", "missing", "blank", "empty"]))
        if edit == "empty":
            lines.append("")
        cells = {"extra": cells + ["0"], "missing": cells[:2],
                 "blank": [draw(st.sampled_from([" ", "\t", "\xa0"]))]}.get(edit, cells)
        rows += 1
        if bad is None and (len(cells) != 3 or any(c in BAD_TRACE_CELLS for c in cells)):
            bad = rows
        if out_of_range is None and not (0 <= values[0] < 2 and 0 <= values[1] < 4 and values[2] >= 1):
            out_of_range = rows
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.integers(0, 9)) == 0
    text = ("\ufeff" if bom else "") + end.join(["epoch,page_id,group_size", *lines]) + end
    return text, "header" if bom else bad or out_of_range


POLICY_VALUES = st.sampled_from([0, 1, 2, 3, -1, 2**63, 10**30, 0.5, 5e-324, 1e-300, 40.0, 100.0,
                                 1e308, math.nan, math.inf, -math.inf, "1", None, True])


@st.composite
def policy_config_lists(draw):
    """A list of up to four policy configs, a policy maybe repeated, each with
    up to two fields set to a JSON value of any kind; sometimes one bare config."""
    configs = []
    for policy in draw(st.lists(st.sampled_from(ts.POLICIES), max_size=4)):
        config = {"policy": policy, "fast_capacity": 2}
        keys = [f.name for f in dataclasses.fields(ts.PolicyConfig)][1:]
        for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
            config[key] = draw(POLICY_VALUES)
        configs.append(config)
    return configs[0] if len(configs) == 1 and draw(st.booleans()) else configs


# A pairs CSV of three valid rows, and what the breakdown fuzz puts in a cell.
FUZZ_PAIRS = dm.make_consistency_fixture(3, seed=3)
PAIR_CELLS = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e308",
                              "1.7976931348623157e308", "1e309", "-0.0", "0", "5e-324", "-1", "x",
                              "", "1,5", '"', "9" * 30, "1" + "0" * 400])


def _subnormal_cycles(header: list[str], row: list[str]) -> None:
    """Set the row's local total_cycles to 5e-324 and zero the four local
    stall counts it bounds, so the row still passes every check."""
    for name in ("stall_cycles_total", "backend_stall_cycles", "mem_stall_cycles",
                 "llc_miss_demand_stall_cycles"):
        row[header.index(f"local_{name}")] = "0"
    row[header.index("local_total_cycles")] = "5e-324"


@st.composite
def csv_texts(draw, header: list[str], rows: list[list[str]], cells, row_edit=None) -> str:
    """The CSV ``header`` + ``rows`` with up to three changes, each a cell set
    to one of ``cells`` or, one time in three if given, ``row_edit(header,
    row)`` applied; then, maybe, a row cut short and the text cut."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if row_edit is None or draw(st.integers(0, 2)):
            row[draw(st.integers(0, len(row) - 1))] = draw(cells)
        else:
            row_edit(header, row)
    if draw(st.integers(0, 3)) == 0:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        del row[draw(st.integers(1, len(row) - 1)):]
    text = "".join(",".join(cells) + "\n" for cells in [header, *rows])
    return text[:draw(st.integers(0, len(text)))] if draw(st.integers(0, 3)) == 0 else text


def pairs_csvs(header: list[str], rows: list[list[str]]):
    """A pairs CSV with bad cells or a row given a subnormal cycle count."""
    return csv_texts(header, rows, PAIR_CELLS, _subnormal_cycles)


# What the counter CLI fuzz starts from: devices, params and a fit that forecast
# accepts, and what it puts in a counter cell, a JSON count or a config value.
FUZZ_LOCAL = dm.DeviceProfile(name="l", base_latency_ns=90.0, bandwidth_cap_gbs=50.0)
FUZZ_REMOTE = dm.DeviceProfile(name="r", base_latency_ns=140.0, bandwidth_cap_gbs=30.0)
FUZZ_PARAMS = dm.make_reference_params(FUZZ_LOCAL, FUZZ_REMOTE)
FUZZ_FIT = il.InterleaveFit("p", 0.1, 0.0, 0.1, 0.0)
COUNT_CELLS = st.sampled_from(["nan", "inf", "-inf", "1e308", "1e309", "-0.0", "0", "5e-324", "-1",
                               "2.5", "1e3", "1000.0", " 7 ", "x", "", "true", '"',
                               str(2**53 + 1), "9" * 30, "1" + "0" * 400])
JSON_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -0.0, 0, 5e-324, -1, 2.5,
                               1e3, 2**53 + 1, 10**30, 10**400, 2**63, "7", "", True, False,
                               None, [], [7], {}, {"a": 7}])
RUN_KINDS = st.sampled_from([*cal.RUN_KINDS, "", "bogus", "Pointer_Chase"])
# latcdf's --n and --load as given on the command line; no valid n is large.
LATCDF_NS = st.sampled_from(["1", "2", "999", "0", "-1", " 7 ", "1_000", "2.5", "1e3", "x", "",
                             str(dm.MAX_SAMPLES + 1), "9" * 30])
# interleave scan's --grid as given on the command line; no valid grid is large.
SCAN_GRIDS = st.sampled_from(["2", "3", "11", "101", "1", "0", "-1", " 7 ", "1_0", "+5", "2.5", "1e2",
                              "x", "", str(il.MAX_GRID + 1), "9" * 30])
FUZZ_WORKLOAD = dm.make_bandwidth_bound_suite(1, seed=2, local=FUZZ_LOCAL)[0]
LATCDF_LOADS = st.sampled_from(["0", "-0.0", "5e-324", "0.5", "0.99", "0.9999999999999999", "1",
                                "-1e-300", "1e309", "nan", "inf", "-inf", "x", ""])


@st.composite
def json_logs(draw, records: list[dict]) -> str:
    """``records`` as a JSON array with up to three changes: a count set to
    another JSON value (a list, an object or a bool among them), a record
    replaced by a list or nested in an object, a key dropped or added; then,
    maybe, the array wrapped in an object or the text cut."""
    records: list = [dict(r) for r in records]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(records) - 1))
        kind = draw(st.sampled_from(["value", "value", "value", "record", "drop", "add"]))
        if kind == "record":
            records[i] = draw(st.sampled_from([list(records[i].values()) if isinstance(records[i], dict)
                                               else [], {"record": records[i]}, 7, None]))
        elif isinstance(records[i], dict):
            key = draw(st.sampled_from(cnt.COUNTER_FIELDS))
            if kind == "value":
                records[i][key] = draw(JSON_VALUES)
            elif kind == "drop":
                records[i].pop(key, None)
            else:
                records[i][draw(st.sampled_from(["note", key.upper()]))] = draw(JSON_VALUES)
    text = json.dumps({"records": records} if draw(st.integers(0, 7)) == 0 else records)
    return text[:draw(st.integers(0, len(text)))] if draw(st.integers(0, 5)) == 0 else text


@st.composite
def json_configs(draw, config) -> str:
    """The JSON config object ``config`` with up to two keys dropped, set to
    another JSON value or, for ``bogus``, added; or, maybe, the text cut."""
    values = dataclasses.asdict(config)
    for key in draw(st.lists(st.sampled_from([*values, "bogus"]), max_size=2, unique=True)):
        if key in values and draw(st.booleans()):
            del values[key]
        else:
            values[key] = draw(JSON_VALUES)
    text = json.dumps(values)
    return text[:draw(st.integers(0, len(text)))] if draw(st.integers(0, 7)) == 0 else text


def _fuzz_run(argv: list[str], out: Path) -> list[str]:
    """Run ``argv`` and check how it ends: exit 1 or 2 with one stderr line and
    neither ``out`` nor a staging directory beside it, or exit 0 with no NaN or
    infinity in any output.  A traceback or a numpy RuntimeWarning fails.
    Returns the stderr lines."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.run([*argv, "--out", str(out)])
    err = stderr.getvalue().splitlines()
    if rc in (1, 2):
        assert len(err) == 1 and err[0].startswith({1: "usage error: ", 2: "error: "}[rc]), err
        assert not out.exists() and not list(out.parent.glob(f".{out.name}.*"))
        return err
    assert (rc, err) == (0, [])
    for f in out.iterdir():
        if f.suffix == ".json":
            json.loads(f.read_text(), parse_constant=lambda c: pytest.fail(f"{f.name} holds {c}"))
            continue
        with f.open(newline="") as fh:
            for cell in chain.from_iterable(csv.reader(fh)):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(cell)), (f.name, cell)
    return err


class TestBadInputs:
    @pytest.mark.parametrize("epoch", [-1, 5])
    def test_trace_epoch_out_of_range(self, tmp_path, capsys, epoch):
        (tmp_path / "t.csv").write_text(f"epoch,page_id,group_size\n0,0,1\n{epoch},1,1\n")
        (tmp_path / "t.json").write_text(json.dumps(
            {"page_count": 4, "wss_pages": 4, "epoch_instructions": 1e9, "epochs": 2}))
        out = tmp_path / "sim"
        rc = _tiersim(tmp_path, {"policy": "tpp", "fast_capacity": 1}, out)
        _assert_data_error(rc, capsys, out)

    @pytest.mark.parametrize("policy_config", [
        [{"policy": "tpp", "fast_capacity": 2500, "bogus": 1}],
        {"policy": "tpp"},
        {"policy": "tpp", "fast_capacity": 1.5},
        # each policy writes epochs_<policy>.csv: a second alto would overwrite the first's
        [{"policy": "alto", "fast_capacity": 1}, {"policy": "alto", "fast_capacity": 2}],
        [],
    ])
    def test_policy_config_keys(self, tmp_path, capsys, policy_config):
        ts.write_trace(small_trace(), tmp_path / "t.csv", tmp_path / "t.json")
        out = tmp_path / "sim"
        rc = _tiersim(tmp_path, policy_config, out)
        _assert_data_error(rc, capsys, out, tmp_path / "cfg.json")

    @pytest.mark.parametrize("value", [2**63, 10**30, -10**30])
    def test_policy_integer_past_int64(self, tmp_path, capsys, value):
        ts.write_trace(ts.make_no_overlap_trace(seed=0), tmp_path / "t.csv", tmp_path / "t.json")
        out = tmp_path / "sim"
        cfg = {"policy": "alto", "fast_capacity": 100, "promo_threshold_accesses": value}
        err = _assert_data_error(_tiersim(tmp_path, cfg, out), capsys, out)
        assert "promo_threshold_accesses" in err

    @pytest.mark.parametrize("remote", ["slow", "cxl-b"])
    def test_alto_span_past_float_range(self, tmp_path, capsys, remote):
        # alto_upper - alto_lower overflows to inf: the gate's ramp would divide
        # by it, a NaN with the slow profile and step one for every latency with cxl-b
        ts.write_trace(ts.make_no_overlap_trace(seed=0), tmp_path / "t.csv", tmp_path / "t.json")
        dm.DeviceProfile(name="slow", base_latency_ns=1e305, bandwidth_cap_gbs=30.0).to_json(
            tmp_path / "slow.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"policy": "alto", "fast_capacity": 100,
                                   "alto_lower": -1.797e308, "alto_upper": 1e306}))
        out = tmp_path / "sim"
        rc = cli.run(["tiersim", "--trace", str(tmp_path / "t.csv"),
                      "--trace-header", str(tmp_path / "t.json"), "--policy-config", str(cfg),
                      "--remote", str(tmp_path / "slow.json") if remote == "slow" else remote,
                      "--out", str(out)])
        err = _assert_data_error(rc, capsys, out, cfg)
        assert "alto_upper - alto_lower exceeds the float range" in err

    @pytest.mark.parametrize("least_squares", [False, True])
    @pytest.mark.parametrize("kind", ["store_bound", "list_traversal", "mixed", "pointer_chase"])
    def test_calibrate_run_without_demand_reads(self, tmp_path, capsys, kind, least_squares):
        # Only the pointer chases' amortized latencies enter the fit: a run of
        # another kind without demand reads fits, a pointer chase is a data error.
        local, remote = dm.PRESETS["local-emr"], dm.PRESETS["cxl-b"]
        runs = dm.make_calibration_runs(local, remote, dm.make_reference_params(local, remote), seed=1)
        i = next(i for i, r in enumerate(runs) if r.kind == kind)
        no_reads = dataclasses.replace(runs[i].pair.local, offcore_demand_requests=0,
                                       offcore_demand_occupancy=0)
        runs[i] = cal.CalibrationRun(kind, dataclasses.replace(runs[i].pair, local=no_reads))
        cal.write_calibration_csv(runs, tmp_path / "runs.csv")
        out = tmp_path / "cal"
        rc = cli.run(["calibrate", "--runs", str(tmp_path / "runs.csv"), "--out", str(out),
                      *["--least-squares"] * least_squares])
        if kind == "pointer_chase":
            assert "no offcore demand reads in window" in _assert_data_error(rc, capsys, out)
        else:
            assert rc == 0, capsys.readouterr().err
            assert set(json.loads((out / "params.json").read_text())) == {
                f.name for f in dataclasses.fields(cal.ModelParams)}

    # (command, config field, value): a valid config with that one field changed
    BAD_CONFIG_FIELDS = [
        ("latcdf", "base_latency_ns", 10**400),   # a JSON integer past the float range
        ("scan", "instructions", 10**400),
        ("tiersim", "alto_upper", 10**400),
        ("latcdf", "base_latency_ns", True),
        ("tiersim", "max_promo_rate", -1),
        ("tiersim", "migration_cost_us", -1),
        ("tiersim", "promo_threshold_accesses", 0),
        ("tiersim", "promo_threshold_accesses", -2**63),
    ]

    @pytest.mark.parametrize("command,field,value", BAD_CONFIG_FIELDS,
                             ids=lambda v: "401-digits" if v == 10**400 else None)
    def test_config_field_rejected(self, tmp_path, capsys, command, field, value):
        base = {"latcdf": {"name": "d", "base_latency_ns": 100.0, "bandwidth_cap_gbs": 30.0},
                "scan": dm.make_workload_suite(1, seed=0)[0].__dict__,
                "tiersim": {"policy": "tpp", "fast_capacity": 100}}[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base, field: value}))
        ts.write_trace(ts.make_no_overlap_trace(seed=0), tmp_path / "t.csv", tmp_path / "t.json")
        argv = {"latcdf": ["latcdf", "--profile", str(cfg), "--n", "1000"],
                "scan": ["interleave", "scan", "--workload", str(cfg)],
                "tiersim": ["tiersim", "--trace", str(tmp_path / "t.csv"), "--trace-header",
                            str(tmp_path / "t.json"), "--policy-config", str(cfg)]}[command]
        out = tmp_path / "o"
        err = _assert_data_error(cli.run(argv + ["--out", str(out)]), capsys, out, cfg)
        assert f".{field} must be" in err and len(err) < 300

    def test_all_fast_runtime_underflow(self, tmp_path, capsys):
        # a subnormal local latency over 16-deep overlap sums to an all-fast runtime of 0.0
        ts.write_trace(ts.make_deep_overlap_trace(0), tmp_path / "t.csv", tmp_path / "t.json")
        local = tmp_path / "local.json"
        local.write_text(json.dumps({"name": "tiny", "base_latency_ns": 5e-324,
                                     "bandwidth_cap_gbs": 100.0}))
        (tmp_path / "cfg.json").write_text(json.dumps({"policy": "tpp", "fast_capacity": 100}))
        out = tmp_path / "sim"
        rc = cli.run(["tiersim", "--trace", str(tmp_path / "t.csv"),
                      "--trace-header", str(tmp_path / "t.json"), "--local", str(local),
                      "--policy-config", str(tmp_path / "cfg.json"), "--out", str(out)])
        assert "all-fast-tier runtime" in _assert_data_error(rc, capsys, out)

    def test_overflowing_output_names_its_field(self, tmp_path, capsys):
        ts.write_trace(small_trace(), tmp_path / "t.csv", tmp_path / "t.json")
        remote = tmp_path / "remote.json"
        remote.write_text(json.dumps({**dataclasses.asdict(dm.PRESETS["cxl-b"]),
                                      "base_latency_ns": 1e308}))
        (tmp_path / "cfg.json").write_text(json.dumps({"policy": "tpp", "fast_capacity": 1}))
        out = tmp_path / "sim"
        rc = cli.run(["tiersim", "--trace", str(tmp_path / "t.csv"),
                      "--trace-header", str(tmp_path / "t.json"), "--remote", str(remote),
                      "--policy-config", str(tmp_path / "cfg.json"), "--out", str(out)])
        err = _assert_data_error(rc, capsys, out)
        assert err.endswith("comparison.json: [0].normalized_runtime is inf")

    @pytest.mark.parametrize("field,value", [("tail_scale_ns", 1e308), ("base_latency_ns", 1e307)])
    def test_overflowing_runtime_warns_nothing(self, tmp_path, capsys, field, value):
        # finite latencies whose per-epoch stall sums overflow: the one stderr line
        # is the data error, with no numpy RuntimeWarning before it
        ts.write_trace(ts.make_no_overlap_trace(seed=0), tmp_path / "t.csv", tmp_path / "t.json")
        remote = tmp_path / "remote.json"
        remote.write_text(json.dumps({**dataclasses.asdict(dm.PRESETS["cxl-b"]), field: value}))
        (tmp_path / "cfg.json").write_text(json.dumps({"policy": "tpp", "fast_capacity": 1}))
        out = tmp_path / "sim"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.run(["tiersim", "--trace", str(tmp_path / "t.csv"),
                          "--trace-header", str(tmp_path / "t.json"), "--remote", str(remote),
                          "--policy-config", str(tmp_path / "cfg.json"), "--out", str(out)])
        err = _assert_data_error(rc, capsys, out)
        assert err.endswith("comparison.json: [0].normalized_runtime is inf")

    def test_breakdown_largest_cycle_count_warns_nothing(self, tmp_path, capsys):
        # the largest float is a valid count; checking it against the ordering
        # invariants' slack must not warn
        pairs_csv = tmp_path / "pairs.csv"
        cnt.write_run_pairs(dm.make_consistency_fixture(3, seed=3), pairs_csv)
        header, *rows = pairs_csv.read_text().splitlines()
        column = header.split(",").index("local_total_cycles")
        cells = rows[1].split(",")
        cells[column] = "1.7976931348623157e308"
        rows[1] = ",".join(cells)
        pairs_csv.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "bd"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.run(["breakdown", "--pairs", str(pairs_csv), "--out", str(out)])
        assert rc == 0 and capsys.readouterr().err == ""

    # trace CSV body: the data row (counted from 1) its error names, if any
    MALFORMED_TRACE_CSV = {
        "epoch,page_id,group_size\n0,x,1\n": 1,        # not an integer
        "epoch,page_id,group_size\n0,1.5,1\n": 1,
        "epoch,page_id,group_size\n0,99999999999999999999,1\n": 1,
        "epoch,page_id,group_size\n0,1_0,1\n": 1,      # int() reads these, np.loadtxt does not
        "epoch,page_id,group_size\n0,\u0661,1\n": 1,
        "epoch,page_id,group_size\n0,\uff11,1\n": 1,
        "epoch,page_id,group_size\n0,1,1\n \n0,2,1\n": 2,   # a whitespace-only line is a row
        "epoch,page_id,group_size\n0,1,1\n1,2\n": 2,  # a row with too few fields
        "epoch,page_id,group_size\n0,1,1\n1,2,1,1\n": 2,
        "epoch,page_id,group_size\n0,1\n1,2\n": 1,    # every row too short
        "page_id,epoch,group_size\n0,1,1\n": None,     # wrong header row
        "": None,
        # out of range (page_count 4): rows count in file order, also when
        # the epochs are out of order
        "epoch,page_id,group_size\n0,0,1\n1,4,1\n": 2,
        "epoch,page_id,group_size\n0,0,1\n\n0,1,0\n": 2,
        "epoch,page_id,group_size\n1,-1,1\n0,0,1\n": 1,
        "epoch,page_id,group_size\n1,1,1\n0,0,1\n\n0,9,1\n": 3,
        "epoch,page_id,group_size\n1,1,1\n0,0,1\n0,1,-2\n": 3,
        "epoch,page_id,group_size\n1,1,1\n1,2,0\n0,0,1\n": 2,
    }

    @pytest.mark.parametrize("body", list(MALFORMED_TRACE_CSV))
    def test_trace_csv_malformed(self, tmp_path, capsys, body):
        (tmp_path / "t.csv").write_text(body)
        (tmp_path / "t.json").write_text(json.dumps(TRACE_HEADER))
        out = tmp_path / "sim"
        rc = _tiersim(tmp_path, {"policy": "tpp", "fast_capacity": 1}, out)
        err = _assert_data_error(rc, capsys, out, tmp_path / "t.csv")
        row = re.search(r"trace row (\d+)\b", err)
        assert (row and int(row.group(1))) == self.MALFORMED_TRACE_CSV[body]

    def test_trace_without_misses(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_text("epoch,page_id,group_size\n")
        (tmp_path / "t.json").write_text(json.dumps(TRACE_HEADER))
        out = tmp_path / "sim"
        _assert_data_error(_tiersim(tmp_path, {"policy": "tpp", "fast_capacity": 1}, out),
                           capsys, out)

    @pytest.mark.parametrize("header", [
        "{bad",
        "[2]",
        json.dumps({k: v for k, v in TRACE_HEADER.items() if k != "epochs"}),
        json.dumps({k: v for k, v in TRACE_HEADER.items() if k != "page_count"}),
        json.dumps({**TRACE_HEADER, "epochs": "two"}),
        json.dumps({**TRACE_HEADER, "epoch_instructions": float("nan")}),
        json.dumps({**TRACE_HEADER, "epoch_instructions": 0}),
        json.dumps({**TRACE_HEADER, "epoch_instructions": -1e9}),
        json.dumps({**TRACE_HEADER, "epochs": 1.9}),
        json.dumps({**TRACE_HEADER, "page_count": True}),
        json.dumps({**TRACE_HEADER, "wss_pages": "4"}),
        json.dumps({**TRACE_HEADER, "epoch_instructions": "1e9"}),
        json.dumps({**TRACE_HEADER, "epochs": 100_000_000_000_000}),
        json.dumps({**TRACE_HEADER, "epochs": 2**70}),
        json.dumps({**TRACE_HEADER, "page_count": 2**63}),   # past TierTrace's int64
        # the config rule: no integral float for an int, no unknown key, every bound
        json.dumps({**TRACE_HEADER, "epochs": 2.0}),
        json.dumps({**TRACE_HEADER, "page_count": 4.0}),
        json.dumps({**TRACE_HEADER, "bogus": 1}),
        json.dumps({**TRACE_HEADER, "page_count": 0}),
        json.dumps({**TRACE_HEADER, "epochs": ts.MAX_EPOCHS + 1}),
    ])
    def test_trace_header_malformed(self, tmp_path, capsys, header):
        (tmp_path / "t.csv").write_text("epoch,page_id,group_size\n0,0,1\n")
        (tmp_path / "t.json").write_text(header)
        out = tmp_path / "sim"
        rc = _tiersim(tmp_path, {"policy": "tpp", "fast_capacity": 1}, out)
        _assert_data_error(rc, capsys, out, tmp_path / "t.json")

    @settings(max_examples=50, deadline=None)
    @given(header=trace_headers())
    def test_trace_header_fuzz(self, tmp_path_factory, header):
        d = tmp_path_factory.mktemp("header")
        (d / "t.csv").write_text(FUZZ_TRACE_CSV)
        (d / "t.json").write_text(json.dumps(header))
        out = d / "sim"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = _tiersim(d, {"policy": "tpp", "fast_capacity": 1}, out)
        err = stderr.getvalue().splitlines()
        if not header_is_valid(header):
            named = "t.json"
        elif header["epochs"] < 2 or header["page_count"] < 4:
            named = "t.csv"
        else:
            assert (rc, err) == (0, [])
            return
        assert rc == 2 and len(err) == 1 and named in err[0], err
        assert not out.exists() and not list(d.glob(".sim.*"))

    def test_trace_header_below_one_instruction(self, tmp_path, capsys):
        # a slow miss's slowdown over 1e-306 instructions overflows: the header is refused
        (tmp_path / "t.csv").write_text(FUZZ_TRACE_CSV)
        (tmp_path / "t.json").write_text(json.dumps({**TRACE_HEADER, "epoch_instructions": 1e-306}))
        out = tmp_path / "sim"
        rc = _tiersim(tmp_path, {"policy": "tpp", "fast_capacity": 1}, out)
        err = _assert_data_error(rc, capsys, out, tmp_path / "t.json")
        assert "TraceHeader.epoch_instructions must be >= 1" in err

    @settings(max_examples=100, deadline=None)
    @given(trace=trace_csvs(), policies=policy_config_lists())
    def test_tiersim_trace_and_policy_fuzz(self, tmp_path_factory, trace, policies):
        text, named = trace
        d = tmp_path_factory.mktemp("trace")
        (d / "t.csv").write_bytes(text.encode())
        (d / "t.json").write_text(json.dumps(TRACE_HEADER))
        (d / "cfg.json").write_text(json.dumps(policies))
        err = _fuzz_run(["tiersim", "--trace", str(d / "t.csv"), "--trace-header", str(d / "t.json"),
                         "--policy-config", str(d / "cfg.json")], d / "sim")
        if named == "header":
            assert err and "t.csv: header row is not" in err[0], err
        elif named is not None:   # a trace cell or row is at fault: the message names its row
            row = err and re.search(r"t\.csv: trace row (\d+)\b", err[0])
            assert row and int(row.group(1)) == named, (err, text)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_breakdown_fuzz(self, tmp_path_factory, data):
        d = tmp_path_factory.mktemp("pairs")
        cnt.write_run_pairs(FUZZ_PAIRS, d / "valid.csv")
        header, *rows = [line.split(",") for line in (d / "valid.csv").read_text().splitlines()]
        (d / "pairs.csv").write_text(data.draw(pairs_csvs(header, rows)))
        out = d / "bd"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.run(["breakdown", "--pairs", str(d / "pairs.csv"), "--out", str(out)])
        err = stderr.getvalue().splitlines()
        if rc == 2:
            assert len(err) == 1 and err[0].startswith("error: "), err
            assert not out.exists() and not list(d.glob(".bd.*"))
            return
        assert (rc, err) == (0, [])
        for name in ("breakdown.csv", "breakdown_long.csv"):
            with (out / name).open(newline="") as fh:
                cells = [row[-1:] if name == "breakdown_long.csv" else row[1:]
                         for row in list(csv.reader(fh))[1:]]
            assert all(math.isfinite(float(c)) for row in cells for c in row)
        accuracy = json.loads((out / "accuracy.json").read_text())
        assert all(math.isfinite(accuracy[k]) for k in ("p95_abs_error", "within_0.05"))

    def test_breakdown_subnormal_cycles(self, tmp_path, capsys):
        # components over a local total_cycles of 5e-324 overflow: a data error, no warning
        pairs_csv = tmp_path / "pairs.csv"
        cnt.write_run_pairs(FUZZ_PAIRS, pairs_csv)
        header, *rows = [line.split(",") for line in pairs_csv.read_text().splitlines()]
        _subnormal_cycles(header, rows[1])
        pairs_csv.write_text("".join(",".join(cells) + "\n" for cells in [header, *rows]))
        out = tmp_path / "bd"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.run(["breakdown", "--pairs", str(pairs_csv), "--out", str(out)])
        err = _assert_data_error(rc, capsys, out)
        assert err.endswith("breakdown.csv: stall_estimate holds a NaN or an infinity")

    @pytest.mark.parametrize("command", ["ingest", "predict", "forecast"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_counter_log_fuzz(self, tmp_path_factory, command, data):
        # a generated CSV or JSON log or, for forecast, a generated config or device
        d = tmp_path_factory.mktemp("log")
        configs = {"params": FUZZ_PARAMS, "fit": FUZZ_FIT, "local": FUZZ_LOCAL, "remote": FUZZ_REMOTE}
        target = data.draw(st.sampled_from(["log", *configs])) if command == "forecast" else "log"
        fmt = data.draw(st.sampled_from(["csv", "json"]))
        cnt.write_counter_log([p.local for p in FUZZ_PAIRS], d / f"log.{fmt}", fmt)
        valid = (d / f"log.{fmt}").read_text()
        if target == "log" and fmt == "json":
            (d / "log.json").write_text(data.draw(json_logs(json.loads(valid))))
        elif target == "log":
            header, *rows = [line.split(",") for line in valid.splitlines()]
            (d / "log.csv").write_text(data.draw(csv_texts(header, rows, COUNT_CELLS)))
        for name, config in configs.items():
            (d / f"{name}.json").write_text(data.draw(json_configs(config)) if name == target
                                            else json.dumps(dataclasses.asdict(config)))
        argv = {"ingest": ["ingest"],
                "predict": ["predict", "--params", str(d / "params.json")],
                "forecast": ["interleave", "forecast", *(f"--{name}={d / name}.json" for name in configs)],
                }[command]
        _fuzz_run([*argv, "--format", fmt, "--input", str(d / f"log.{fmt}")], d / "out")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), least_squares=st.booleans(), params=st.booleans())
    def test_calibrate_and_predict_params_fuzz(self, tmp_path_factory, data, least_squares, params):
        d = tmp_path_factory.mktemp("runs")
        if params:   # predict on the fixture log with generated params
            (d / "params.json").write_text(data.draw(json_configs(FUZZ_PARAMS)))
            (d / "log.csv").write_text(FIXTURE_3ROWS)
            _fuzz_run(["predict", "--input", str(d / "log.csv"), "--params", str(d / "params.json")],
                      d / "out")
            return
        runs = dm.make_calibration_runs(FUZZ_LOCAL, FUZZ_REMOTE, FUZZ_PARAMS, seed=0)
        cal.write_calibration_csv(runs, d / "valid.csv")
        header, *rows = [line.split(",") for line in (d / "valid.csv").read_text().splitlines()]
        cells = PAIR_CELLS | RUN_KINDS
        (d / "runs.csv").write_text(data.draw(csv_texts(header, rows, cells, _subnormal_cycles)))
        _fuzz_run(["calibrate", "--runs", str(d / "runs.csv"), *["--least-squares"] * least_squares],
                  d / "out")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=LATCDF_NS, load=LATCDF_LOADS, dump=st.booleans())
    def test_latcdf_fuzz(self, tmp_path_factory, data, n, load, dump):
        # a generated --n and --load, and a preset name or a generated profile JSON
        d = tmp_path_factory.mktemp("latcdf")
        profile = data.draw(st.one_of(st.just(str(d / "dev.json")),
                                      st.sampled_from([*dm.PRESETS, "bogus", ""])))
        (d / "dev.json").write_text(data.draw(json_configs(dm.PRESETS["cxl-b"])))
        _fuzz_run(["latcdf", f"--profile={profile}", f"--n={n}", f"--load={load}",
                   *["--dump-samples"] * dump], d / "out")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), grid=SCAN_GRIDS)
    def test_interleave_scan_fuzz(self, tmp_path_factory, data, grid):
        # a generated workload, local or remote device JSON (or preset name), and --grid
        d = tmp_path_factory.mktemp("scan")
        configs = {"workload": FUZZ_WORKLOAD, "local": FUZZ_LOCAL, "remote": FUZZ_REMOTE}
        target = data.draw(st.sampled_from(list(configs)))
        for name, config in configs.items():
            (d / f"{name}.json").write_text(data.draw(json_configs(config)) if name == target
                                            else json.dumps(dataclasses.asdict(config)))
        remote = data.draw(st.sampled_from([str(d / "remote.json"), "cxl-a", "bogus"]))
        _fuzz_run(["interleave", "scan", f"--workload={d / 'workload.json'}",
                   f"--local={d / 'local.json'}", f"--remote={remote}", f"--grid={grid}"], d / "out")

    def test_forecast_row_without_reads_names_file_and_row(self, tmp_path, capsys):
        # the forecast of a log row without demand reads: exit 2, naming the log and the row
        log = tmp_path / "log.csv"
        cnt.write_counter_log([p.local for p in FUZZ_PAIRS], log)
        header, *rows = log.read_text().splitlines()
        cells = rows[1].split(",")
        for field in ("offcore_demand_requests", "offcore_demand_occupancy"):
            cells[cnt.COUNTER_FIELDS.index(field)] = "0"
        rows[1] = ",".join(cells)
        log.write_text("\n".join([header, *rows]) + "\n")
        FUZZ_PARAMS.to_json(tmp_path / "params.json")
        FUZZ_FIT.to_json(tmp_path / "fit.json")
        out = tmp_path / "fc"
        rc = cli.run(["interleave", "forecast", "--input", str(log), "--params", str(tmp_path / "params.json"),
                      "--fit", str(tmp_path / "fit.json"), "--out", str(out)])
        assert _assert_data_error(rc, capsys, out) == (
            f"error: {log}: row 2: no offcore demand reads in window")
        assert cli.run(["predict", "--input", str(log), "--params", str(tmp_path / "params.json"),
                        "--out", str(tmp_path / "pred")]) == 0

    def test_latcdf_overflowing_mean_names_its_fields(self, tmp_path, capsys):
        # the mean itself overflows, with no jitter or tail: the message blames the mean's fields
        prof = tmp_path / "dev.json"
        prof.write_text(json.dumps({"name": "d", "base_latency_ns": 1e308, "bandwidth_cap_gbs": 30.0,
                                    "numa_hop_extra_ns": 1e308}))
        out = tmp_path / "lat"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.run(["latcdf", "--profile", str(prof), "--n", "1000", "--out", str(out)])
        assert _assert_data_error(rc, capsys, out) == (
            "error: d: latency samples overflow; "
            "base_latency_ns + numa_hop_extra_ns + queueing delay is past the float range")

    def test_ingest_json_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{bad")
        out = tmp_path / "o"
        rc = cli.run(["ingest", "--input", str(bad), "--format", "json", "--out", str(out)])
        _assert_data_error(rc, capsys, out, bad)

    @pytest.mark.parametrize("count", [True, 2.5, float("nan")])
    def test_ingest_json_bad_count(self, tmp_path, capsys, count):
        records = fixture_records()
        records[1]["lfb_hits"] = count
        log = tmp_path / "log.json"
        log.write_text(json.dumps(records))
        out = tmp_path / "o"
        rc = cli.run(["ingest", "--input", str(log), "--format", "json", "--out", str(out)])
        assert "row 2" in _assert_data_error(rc, capsys, out)

    @pytest.mark.parametrize("change", ["extra field", "nan cell"])
    def test_breakdown_bad_pairs_row(self, tmp_path, capsys, change):
        pairs_csv = tmp_path / "pairs.csv"
        cnt.write_run_pairs(dm.make_consistency_fixture(3, seed=3), pairs_csv)
        lines = pairs_csv.read_text().splitlines()
        cells = lines[2].split(",")
        if change == "extra field":
            cells.append("1.0")
        else:
            cells[5] = "nan"
        lines[2] = ",".join(cells)
        pairs_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "bd"
        rc = cli.run(["breakdown", "--pairs", str(pairs_csv), "--out", str(out)])
        assert "row 2" in _assert_data_error(rc, capsys, out)

    def test_breakdown_no_pairs(self, tmp_path, capsys):
        pairs_csv = tmp_path / "pairs.csv"
        cnt.write_run_pairs([], pairs_csv)
        out = tmp_path / "bd"
        rc = cli.run(["breakdown", "--pairs", str(pairs_csv), "--out", str(out)])
        _assert_data_error(rc, capsys, out)

    def test_latcdf_nan_profile(self, tmp_path, capsys):
        prof = tmp_path / "dev.json"
        prof.write_text(json.dumps({"name": "d", "base_latency_ns": float("nan"),
                                    "bandwidth_cap_gbs": 30.0}))
        out = tmp_path / "lat"
        rc = cli.run(["latcdf", "--profile", str(prof), "--n", "1000", "--out", str(out)])
        assert "base_latency_ns" in _assert_data_error(rc, capsys, out)

    @pytest.mark.parametrize("field", ["tail_scale_ns", "jitter_sigma_ns"])
    def test_latcdf_overflowing_profile(self, tmp_path, capsys, field):
        # finite parameters whose samples overflow: no NaN percentiles, exit 2
        prof = tmp_path / "dev.json"
        prof.write_text(json.dumps({"name": "d", "base_latency_ns": 100.0,
                                    "bandwidth_cap_gbs": 30.0, "tail_prob": 0.01,
                                    field: 1e308}))
        out = tmp_path / "lat"
        rc = cli.run(["latcdf", "--profile", str(prof), "--n", "10000", "--out", str(out)])
        assert "overflow" in _assert_data_error(rc, capsys, out)

    def test_latcdf_infinite_mean_meets_jitter(self, tmp_path, capsys):
        # an unloaded mean past the float range plus jitter of -inf is NaN: the
        # samples overflow, exit 2, with no RuntimeWarning on the way
        prof = tmp_path / "dev.json"
        prof.write_text(json.dumps({"name": "d", "base_latency_ns": 1e308, "bandwidth_cap_gbs": 30.0,
                                    "numa_hop_extra_ns": 1e308, "jitter_sigma_ns": 1e308}))
        out = tmp_path / "lat"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.run(["latcdf", "--profile", str(prof), "--n", "1000", "--out", str(out)])
        assert "overflow" in _assert_data_error(rc, capsys, out)

    def test_scan_nan_workload(self, tmp_path, capsys):
        w = dm.make_bandwidth_bound_suite(1, seed=2, local=dm.PRESETS["local-emr"])[0]
        wjson = tmp_path / "w.json"
        wjson.write_text(json.dumps({**w.__dict__, "mlp_depth": float("inf")}))
        out = tmp_path / "scan"
        rc = cli.run(["interleave", "scan", "--workload", str(wjson), "--out", str(out)])
        assert "mlp_depth" in _assert_data_error(rc, capsys, out)

    def test_scan_overflowing_runtime(self, tmp_path, capsys):
        # a finite workload whose runtimes overflow: no inf rows, exit 2
        w = dm.make_workload_suite(1, seed=0)[0]
        wjson = tmp_path / "w.json"
        wjson.write_text(json.dumps({**w.__dict__, "demand_miss_rate": 1e308}))
        out = tmp_path / "scan"
        rc = cli.run(["interleave", "scan", "--workload", str(wjson), "--grid", "11",
                      "--out", str(out)])
        assert "scan.csv" in _assert_data_error(rc, capsys, out)

    @pytest.mark.parametrize("remote", [{"base_latency_ns": 1e307, "tail_scale_ns": 1e308},
                                        {"bandwidth_cap_gbs": 1e-300}])
    def test_scan_overflowing_remote_warns_nothing(self, tmp_path, capsys, remote):
        # runtimes that overflow, or read 0 * inf, on the remote side of the
        # grid: the one stderr line is the data error, with no numpy RuntimeWarning
        w = dm.make_workload_suite(1, seed=0)[0]
        wjson, rjson = tmp_path / "w.json", tmp_path / "remote.json"
        wjson.write_text(json.dumps(w.__dict__))
        rjson.write_text(json.dumps({**dataclasses.asdict(dm.PRESETS["cxl-b"]), **remote}))
        out = tmp_path / "scan"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.run(["interleave", "scan", "--workload", str(wjson), "--remote", str(rjson),
                          "--out", str(out)])
        err = _assert_data_error(rc, capsys, out)
        assert err.endswith("scan.csv: runtime_s holds a NaN or an infinity")

    @pytest.mark.parametrize("field", ["total_cycles", "offcore_demand_occupancy"])
    @pytest.mark.parametrize("command", ["ingest", "predict", "forecast"])
    def test_count_past_float_range(self, tmp_path, capsys, command, field):
        # a 400-digit count converts to no float: a data error naming its row and field
        header, *rows = FIXTURE_3ROWS.splitlines()
        cells = rows[1].split(",")
        cells[cnt.COUNTER_FIELDS.index(field)] = "9" * 400
        rows[1] = ",".join(cells)
        log = tmp_path / "log.csv"
        log.write_text("\n".join([header, *rows]) + "\n")
        params, fit = tmp_path / "params.json", tmp_path / "fit.json"
        dm.make_reference_params(dm.PRESETS["local-emr"], dm.PRESETS["cxl-a"]).to_json(params)
        il.InterleaveFit("p", 0.1, 0.0, 0.1, 0.0).to_json(fit)
        argv = {
            "ingest": ["ingest"],
            "predict": ["predict", "--params", str(params)],
            "forecast": ["interleave", "forecast", "--params", str(params), "--fit", str(fit)],
        }[command]
        out = tmp_path / "o"
        rc = cli.run(argv + ["--input", str(log), "--out", str(out)])
        message = _assert_data_error(rc, capsys, out)
        assert "row 2" in message and field in message

    def test_ingest_csv_not_text(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_bytes(b"\xff\xfe\x00binary")
        out = tmp_path / "o"
        rc = cli.run(["ingest", "--input", str(log), "--out", str(out)])
        _assert_data_error(rc, capsys, out, log)

    def test_ingest_input_is_a_directory(self, tmp_path, capsys):
        src = tmp_path / "logs"
        src.mkdir()
        out = tmp_path / "o"
        rc = cli.run(["ingest", "--input", str(src), "--out", str(out)])
        _assert_data_error(rc, capsys, out, src)

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        rc = cli.run(["latcdf", "--profile", "cxl-b", "--n", "1000", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(out) in err[0]
        assert out.read_text() == "keep\n"

    # Each command's config flag, and top-level values where it wants an object
    # (tiersim's policy config may also be an array of objects).
    NOT_AN_OBJECT = [
        (["interleave", "scan", "--workload", "{cfg}"], [[], [{"name": "w"}], 3]),
        (["latcdf", "--profile", "{cfg}", "--n", "1000"], [[], [{"name": "d"}], "cxl-b"]),
        (["predict", "--input", "{log}", "--params", "{cfg}"], [[], [{"k1": 1.0}], None]),
        (["tiersim", "--trace", "{trace}", "--trace-header", "{trace_header}",
          "--policy-config", "{cfg}"], [3, [3], [{"policy": "tpp", "fast_capacity": 1}, "tpp"]]),
    ]

    @pytest.mark.parametrize("argv,payload,message", [
        pytest.param(argv, json.dumps(c).encode(), "expected a JSON object",
                     id=f"{argv[0]}-{json.dumps(c)}")
        for argv, configs in NOT_AN_OBJECT for c in configs
    ] + [
        pytest.param(argv, b"\xff\xfe\x00{", "malformed JSON", id=f"{argv[0]}-not-text")
        for argv, _ in NOT_AN_OBJECT
    ])
    def test_config_not_an_object(self, tmp_path, capsys, counters_csv, argv, payload, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(payload)
        ts.write_trace(small_trace(), tmp_path / "t.csv", tmp_path / "t.json")
        paths = {"cfg": cfg, "log": counters_csv, "trace": tmp_path / "t.csv",
                 "trace_header": tmp_path / "t.json"}
        out = tmp_path / "o"
        rc = cli.run([a.format(**paths) for a in argv] + ["--out", str(out)])
        assert f"{cfg}: {message}" in _assert_data_error(rc, capsys, out)

    def test_workload_malformed_json(self, tmp_path, capsys):
        wjson = tmp_path / "w.json"
        wjson.write_text("{not json")
        out = tmp_path / "scan"
        rc = cli.run(["interleave", "scan", "--workload", str(wjson), "--out", str(out)])
        _assert_data_error(rc, capsys, out)


def _fail(*args, **kwargs):
    raise OSError("injected write failure")


class TestStagedOutput:
    """Outputs are staged beside --out and published only when the command succeeds."""

    # command: the function made to fail, which runs after an output is staged
    FAILING = {
        "demo": (ts, "write_epoch_report_csv"),
        "tiersim": (ts, "write_epoch_report_csv"),
        "ingest": (cnt, "stall_fractions"),
    }
    LATCDF = ["latcdf", "--profile", "cxl-b", "--n", "1000", "--dump-samples"]

    @pytest.mark.parametrize("command", list(FAILING))
    def test_failure_leaves_no_output(self, tmp_path, capsys, monkeypatch, counters_csv,
                                      command):
        ts.write_trace(small_trace(), tmp_path / "t.csv", tmp_path / "t.json")
        (tmp_path / "cfg.json").write_text(json.dumps({"policy": "tpp", "fast_capacity": 2}))
        argv = {
            "demo": ["demo", "--seed", "1"],
            "tiersim": ["tiersim", "--trace", str(tmp_path / "t.csv"),
                        "--trace-header", str(tmp_path / "t.json"),
                        "--policy-config", str(tmp_path / "cfg.json")],
            "ingest": ["ingest", "--input", str(counters_csv)],
        }[command]
        monkeypatch.setattr(*self.FAILING[command], _fail)
        out = tmp_path / "o"
        _assert_data_error(cli.run(argv + ["--out", str(out)]), capsys, out)

    def test_rerun_overwrites_same_named_files(self, tmp_path):
        def latcdf(seed, out, *extra):
            assert cli.run(["latcdf", "--profile", "cxl-b", "--n", "1000", "--seed", str(seed),
                            "--out", str(tmp_path / out), *extra]) == 0

        latcdf(1, "o", "--dump-samples")
        first_samples = (tmp_path / "o" / "samples.csv").read_bytes()
        latcdf(2, "o")
        latcdf(2, "fresh")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "o"]
        rerun, fresh = tree_digest(tmp_path / "o"), tree_digest(tmp_path / "fresh")
        # a file only the first run wrote stays as it was
        assert rerun.pop("samples.csv") == hashlib.sha256(first_samples).hexdigest()
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["seed"] == 2 and manifest["output_dir"] == str(tmp_path / "o")
        del rerun["manifest.json"], fresh["manifest.json"]
        assert rerun == fresh

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_fresh_out_gets_mkdirs_mode(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            os.mkdir(tmp_path / "plain")
            assert cli.run(self.LATCDF + ["--out", str(tmp_path / "o")]) == 0
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "o").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "plain").stat().st_mode) == 0o777 & ~umask

    def test_fresh_out_is_one_rename(self, tmp_path, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(os, name)
            return lambda src, dst: calls.append((name, Path(dst).name)) or real(src, dst)

        for name in ("rename", "replace"):
            monkeypatch.setattr(os, name, spy(name))
        assert cli.run(self.LATCDF + ["--out", str(tmp_path / "o")]) == 0
        assert calls == [("rename", "o")]
        # into the existing --out: one replace per file, the manifest last
        calls.clear()
        assert cli.run(self.LATCDF + ["--out", str(tmp_path / "o")]) == 0
        assert [name for name, _ in calls] == ["replace"] * 4
        assert calls[-1] == ("replace", "manifest.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]

    @pytest.mark.parametrize("mode", [None, 0o700], ids=["umask", "0700"])
    def test_existing_out_keeps_inode_and_mode(self, tmp_path, mode):
        out = tmp_path / "o"
        out.mkdir()
        if mode is not None:
            out.chmod(mode)
        before = out.stat()
        assert cli.run(self.LATCDF + ["--out", str(out)]) == 0
        after = out.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "percentiles.csv", "samples.csv", "summary.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]

    def test_failed_rename_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "rename", _fail)
        out = tmp_path / "o"
        _assert_data_error(cli.run(self.LATCDF + ["--out", str(out)]), capsys, out)


class TestDecomposeCalls:
    """breakdown reads the pairs CSV as one table and decomposes it once;
    the writers and the accuracy CDF read the kernel's columns."""

    def test_breakdown_reads_and_decomposes_once(self, tmp_path, monkeypatch):
        seen = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                seen.append(name)
                return real(*args, **kwargs)
            return wrapper

        for module, name in ((cnt, "read_pairs_table"), (cnt, "read_run_pairs"),
                             (bd, "decompose_table"), (bd, "decompose")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        pairs = dm.make_consistency_fixture(10, seed=3)
        cnt.write_run_pairs(pairs, tmp_path / "pairs.csv")
        assert cli.run(["breakdown", "--pairs", str(tmp_path / "pairs.csv"),
                        "--out", str(tmp_path / "bd")]) == 0
        assert seen == ["read_pairs_table", "decompose_table"]


class TestSimulateCalls:
    """Each (trace, policy) pair is simulated once; the all-fast baseline is not."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = ts.simulate

        def counting(trace, cfg, *args, **kwargs):
            seen.append(cfg.policy)
            return real(trace, cfg, *args, **kwargs)

        monkeypatch.setattr(ts, "simulate", counting)
        return seen

    def test_tiersim_once_per_policy(self, tmp_path, calls):
        ts.write_trace(ts.make_no_overlap_trace(seed=0), tmp_path / "t.csv", tmp_path / "t.json")
        policies = [{"policy": p, "fast_capacity": 2500} for p in ts.POLICIES]
        assert _tiersim(tmp_path, policies, tmp_path / "sim") == 0
        assert calls == list(ts.POLICIES)

    def test_demo_three_traces_three_policies(self, tmp_path, calls):
        assert cli.run(["demo", "--seed", "1", "--out", str(tmp_path / "demo")]) == 0
        assert calls == list(ts.POLICIES) * 3


# A CSV cell is a label, true/false or a finite number as float() reads it.
LABEL = re.compile(r"[A-Za-z][\w.-]*")


def _plain_cell(cell: str) -> bool:
    if "np." in cell or cell in ("True", "False", "None"):   # a repr, not a value
        return False
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return LABEL.fullmatch(cell) is not None


class TestCsvCells:
    def test_demo_and_scan_write_plain_cells(self, tmp_path):
        assert cli.run(["demo", "--seed", "1", "--out", str(tmp_path / "demo")]) == 0
        wjson = tmp_path / "w.json"
        wjson.write_text(json.dumps(dm.make_workload_suite(1, seed=0)[0].__dict__))
        assert cli.run(["interleave", "scan", "--workload", str(wjson),
                        "--out", str(tmp_path / "scan")]) == 0
        tables = sorted(tmp_path.rglob("*.csv"))
        assert {"breakdown.csv", "interleave_forecast.csv", "scan.csv"} <= {t.name for t in tables}
        bad = [(t.name, cell) for t in tables for row in csv.reader(t.read_text().splitlines())
               for cell in row if not _plain_cell(cell)]
        assert bad == []


def _values(kwargs: dict) -> tuple[str, ...]:
    """Values to try for one argument: good ones and bad ones."""
    if "choices" in kwargs:
        return (*kwargs["choices"], "xml")
    if kwargs.get("type") in (int, cli.non_negative_int):
        return ("7", "0", "-1", "2.5", "x")
    if kwargs.get("type") is float:
        return ("0.5", "-1", "nan", "x")
    return ("a.csv", "cxl-b", "-x")


def _groups(command: str) -> list[list[str]]:
    """Argument groups for one command: flags with values, ``--flag=value``,
    abbreviations, a missing value, unknown flags, stray words and help."""
    groups = [["-h"], ["--help"], ["--bogus"], ["--bogus=1"], ["stray"], ["--"], ["-1"]]
    for flags, kwargs in (*cli._COMMON, *cli.COMMANDS[command][2]):
        flag = flags[0]
        if not flag.startswith("-"):
            groups += [[v] for v in _values(kwargs)]
        elif kwargs.get("action") == "store_true":
            groups += [[flag], [flag[:-2]], [f"{flag}=1"]]
        else:
            for v in _values(kwargs):
                groups += [[flag, v], [f"{flag}={v}"], [flag[:3], v], [flag[:-1], v]]
            groups.append([flag])
    return groups


@st.composite
def _arguments(draw, command: str) -> list[str]:
    kept = [group for group in REQUIRED_ARGS[command] if draw(st.integers(0, 3)) > 0]
    extra = draw(st.lists(st.sampled_from(_groups(command)), max_size=6))
    groups = draw(st.permutations(kept + extra))
    return [token for group in groups for token in group]


def _outcome(parse) -> tuple:
    """The namespace, the usage error or the exit (code and help text) of ``parse()``.

    The namespace is compared by repr, under which ``--load nan`` equals itself."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            return "parsed", repr(sorted(vars(parse()).items()))
    except cli._UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, printed.getvalue()


def _command_argvs():
    return st.sampled_from(list(cli.COMMANDS)).flatmap(
        lambda command: _arguments(command).map(lambda argv: [command, *argv]))


class TestParser:
    """run() parses every command with one tree, built once per process."""

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_command_parser_matches_full_tree(self, command, data):
        # the command's parser in the cached tree parses as a fresh full tree does
        argv = data.draw(_arguments(command))
        cached = _outcome(lambda: _subparser(command).parse_args(
            argv, argparse.Namespace(command=command)))
        assert cached == _outcome(
            lambda: cli.build_parser.__wrapped__().parse_args([command, *argv]))

    @settings(max_examples=120, deadline=None)
    @given(argvs=st.lists(_command_argvs(), min_size=2, max_size=8))
    def test_reused_tree_parses_like_a_fresh_one(self, argvs):
        # a parse of the cached tree, after any others, sees what a fresh tree sees
        for argv in argvs:
            reused = _outcome(lambda: cli.build_parser().parse_args(argv))
            assert reused == _outcome(lambda: cli.build_parser.__wrapped__().parse_args(argv))

    USAGE_ERRORS = {
        "interleave sideways":
            "argument action: invalid choice: 'sideways' (choose from 'scan', 'forecast')",
        "interleave scan --f x": "ambiguous option: --f could match --format, --fit",
        "ingest --format xml --input a":
            "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')",
        "tiersim --trace t.csv":
            "the following arguments are required: --trace-header, --policy-config",
        "latcdf --profile cxl-b --bogus": "unrecognized arguments: --bogus",
    }

    @pytest.mark.parametrize("argv,kind", [
        (["ingest", "--inp", "a.csv", "--format=json"], "parsed"),
        (["predict", "--input", "a", "--input", "b", "--params", "p"], "parsed"),
        (["interleave", "forecast", "--seed", "3", "--grid=11"], "parsed"),
        (["calibrate", "--runs", "r.csv", "--least"], "parsed"),
        (["demo"], "parsed"),
        (["interleave", "sideways"], "usage error"),
        (["interleave", "scan", "--f", "x"], "usage error"),
        (["ingest", "--format", "xml", "--input", "a"], "usage error"),
        (["tiersim", "--trace", "t.csv"], "usage error"),
        (["latcdf", "--profile", "cxl-b", "--bogus"], "usage error"),
        (["latcdf", "-h"], "exit"),
    ])
    def test_hand_picked_argvs(self, argv, kind):
        outcome = _outcome(lambda: cli.build_parser().parse_args(argv))
        assert outcome[0] == kind
        if kind == "usage error":
            assert outcome[1] == self.USAGE_ERRORS[" ".join(argv)]
        elif kind == "exit":
            assert outcome[1] == 0
            assert outcome[2].startswith("usage: suplab latcdf [-h] [--seed SEED]")

    def test_run_builds_the_tree_once(self, tmp_path, capsys):
        cli.build_parser.cache_clear()
        for i in range(3):
            assert cli.run(["latcdf", "--profile", "cxl-b", "--n", "10",
                            "--out", str(tmp_path / f"o{i}")]) == 0
        assert cli.run(["latcdf-x"]) == 1
        assert cli.run([]) == 1
        assert "usage error" in capsys.readouterr().err
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser.cache_info().hits == 4

    def test_every_argument_is_safe_to_reuse(self):
        # argparse hands each Namespace its default object as it is, so a
        # mutable default would be shared by every parse of the cached tree
        for flags, kwargs in chain(cli._COMMON, *(arguments for _, _, arguments, _
                                                  in cli.COMMANDS.values())):
            default, action = kwargs.get("default"), kwargs.get("action")
            assert default is None or type(default) in (str, int, float, bool), flags
            assert action is None or (isinstance(action, str)
                                      and cli._Parser()._registry_get("action", action)), flags
