"""Pinned output digests: the sha256 of every file a fixed set of runs writes.

The runs are ``demo --seed 1`` and one run of each other command on inputs
made here from fixed seeds; the inputs, written by suplab's own writers, are
hashed too.  Every run goes through ``cli.run`` with paths relative to one
scratch directory, and each ``manifest.json`` is hashed without its
``output_dir`` line, so no digest depends on where the test runs.

A change that means to alter an output regenerates the file in the same
commit and says which outputs changed, and why:

    PYTHONPATH=src python3 tests/test_output_digests.py

The file records the numpy version and platform it was made with; float
text from numpy's generators is pinned only there.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import sys
import tempfile
from dataclasses import asdict
from operator import attrgetter
from pathlib import Path

import numpy as np

from suplab import calibrate as cal
from suplab import cli
from suplab import counters as cnt
from suplab import devmodel as dm
from suplab import interleave as il
from suplab import tiersim as ts
from suplab.errors import dump_json

DIGESTS = Path(__file__).with_name("output_digests.json")
_OUTPUT_DIR = re.compile(rb'^  "output_dir": .*\n', re.MULTILINE)


def _environment() -> dict[str, str]:
    return {"numpy": np.__version__, "machine": platform.machine(), "system": platform.system()}


def _wide_rows(pairs) -> list[list[int]]:
    """Integer rows of the pairs' local snapshots, with every fourth row scaled
    past 2**53 (int64 holds it, float64 does not) and every seventh past int64."""
    rows = [[int(round(v)) for v in attrgetter(*cnt.COUNTER_FIELDS)(p.local)] for p in pairs]
    for i in range(0, len(rows), 4):
        rows[i] = [v * 2**40 + (v > 0) for v in rows[i]]
    for i in range(1, len(rows), 7):
        rows[i] = [v * 2**66 for v in rows[i]]
    return rows


def _make_inputs(d: Path) -> list[list[str]]:
    """Write the inputs under ``d``; the argvs of the runs, each with its own --out."""
    d.mkdir()
    local, remote = dm.PRESETS["local-emr"], dm.PRESETS["cxl-b"]
    params = dm.make_reference_params(local, remote)
    params.to_json(d / "params.json")
    pairs = dm.make_consistency_fixture(60, seed=11)
    cnt.write_run_pairs(pairs, d / "pairs.csv")
    for fmt in ("csv", "json"):
        cnt.write_counter_log([p.local for p in pairs], d / f"log.{fmt}", fmt)
    # Counts a plain reader cannot take: past 2**53 and past int64, and in JSON
    # integral floats and number text, which the schema reads as integers.
    wide = _wide_rows(pairs[:30])
    (d / "wide.csv").write_text(",".join(cnt.COUNTER_FIELDS) + "\n"
                                + "".join(",".join(map(str, r)) + "\n" for r in wide))
    records = [dict(zip(cnt.COUNTER_FIELDS, r)) for r in wide]
    for i, rec in enumerate(records[::5]):
        rec["instructions"] = float(rec["instructions"]) if i % 2 else f"{rec['instructions']:.6e}"
    (d / "wide.json").write_text(json.dumps(records))
    truth = dm.make_reference_params(local, remote)
    cal.write_calibration_csv(dm.make_calibration_runs(local, remote, truth, seed=12, noise=0.02),
                              d / "runs.csv")
    skx_local = dm.DeviceProfile(name="skx-local", base_latency_ns=90.0, bandwidth_cap_gbs=50.0)
    skx_znuma = dm.DeviceProfile(name="skx-znuma", base_latency_ns=140.0, bandwidth_cap_gbs=30.0)
    il_params = dm.make_reference_params(skx_local, skx_znuma)
    il_params.to_json(d / "il_params.json")
    fit = il.fit_interleave(dm.make_bandwidth_bound_suite(4, seed=13, local=skx_local),
                            skx_local, skx_znuma, il_params, grid=51, seed=13)
    fit.to_json(d / "fit.json")
    suite = (dm.make_bandwidth_bound_suite(6, seed=14, local=skx_local)
             + dm.make_latency_bound_suite(6, seed=15, local=skx_local))
    cnt.write_counter_log([dm.local_snapshot(w, skx_local) for w in suite], d / "fc_log.csv")
    suite[0].to_json(d / "workload.json")
    cfg = dict(fast_capacity=2500, promo_threshold_accesses=2, max_promo_rate=2000)
    dump_json(d / "policies.json", [asdict(ts.PolicyConfig(policy=p, **cfg)) for p in ts.POLICIES])
    argvs = [["demo", "--seed", "1"],
             ["ingest", "--input", f"{d}/log.csv"],
             ["ingest", "--input", f"{d}/log.json", "--format", "json"],
             ["ingest", "--input", f"{d}/wide.csv"],
             ["ingest", "--input", f"{d}/wide.json", "--format", "json"],
             ["breakdown", "--pairs", f"{d}/pairs.csv"],
             ["calibrate", "--runs", f"{d}/runs.csv"],
             ["calibrate", "--runs", f"{d}/runs.csv", "--least-squares"],
             ["predict", "--input", f"{d}/log.csv", "--params", f"{d}/params.json"],
             ["predict", "--input", f"{d}/wide.json", "--format", "json", "--params", f"{d}/params.json"],
             ["interleave", "scan", "--workload", f"{d}/workload.json", "--local", "local-emr",
              "--remote", "cxl-a", "--grid", "101", "--seed", "3"],
             ["interleave", "forecast", "--input", f"{d}/fc_log.csv", "--params", f"{d}/il_params.json",
              "--fit", f"{d}/fit.json"],
             ["latcdf", "--profile", "cxl-b", "--n", "20000", "--load", "0.5", "--seed", "4",
              "--dump-samples"]]
    for name, make in (("two_phase", ts.make_two_phase_trace), ("deep_overlap", ts.make_deep_overlap_trace),
                       ("no_overlap", ts.make_no_overlap_trace)):
        ts.write_trace(make(16), d / f"{name}.csv", d / f"{name}.json")
        argvs.append(["tiersim", "--trace", f"{d}/{name}.csv", "--trace-header", f"{d}/{name}.json",
                      "--policy-config", f"{d}/policies.json"])
    return argvs


def _sha256(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        data = _OUTPUT_DIR.sub(b"", data)
    return hashlib.sha256(data).hexdigest()


def output_digests(scratch: Path) -> dict[str, str]:
    """``{run/file: sha256}`` of the inputs and of every run's outputs, made in ``scratch``."""
    cwd = os.getcwd()
    os.chdir(scratch)
    try:
        argvs = _make_inputs(Path("inputs"))
        for i, argv in enumerate(argvs):
            out = f"{i:02d}_{'_'.join(a for a in argv[:2] if not a.startswith('-'))}"
            assert cli.run([*argv, "--out", out]) == 0, argv
        return {f"{p.parent.name}/{p.name}": _sha256(p) for p in sorted(Path().glob("*/*"))}
    finally:
        os.chdir(cwd)


def test_outputs_match_pinned_digests(tmp_path, capsys):
    pinned = json.loads(DIGESTS.read_text())
    got = output_digests(tmp_path)
    capsys.readouterr()   # the runs' own lines
    where = f"(digests made with {pinned['environment']}, this run has {_environment()})"
    for name, digest in pinned["files"].items():
        assert name in got, f"{name} was not written {where}"
        assert got[name] == digest, f"{name} differs from its pinned digest {where}"
    extra = sorted(got.keys() - pinned["files"].keys())
    assert not extra, f"{extra[0]} is written but has no pinned digest"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = output_digests(Path(tmp))
    dump_json(DIGESTS, {"environment": _environment(), "files": files})
    print(f"wrote {len(files)} digests to {DIGESTS}", file=sys.stderr)
