"""The benchmark's workloads: inputs made from the seed, and one round of CLI ops.

    python3 perfbench/workloads.py --workload counter_pipeline --seed 1 --inputs DIR

A workload's set-up writes its input files and a ``plan.json`` into DIR: the
fixed op list run once per round (each op is a ``suplab`` argv without
``--out``, plus the name and arguments of the check for its outputs) and
facts about the inputs.  run.py times this script as the benchmark's set-up,
in a process of its own, so building inputs never counts towards the
measured process's memory.  Every round runs the same op list in the same
order, and the latency percentiles are taken over the list's ops, so they
always mix the op kinds in the same shares.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

# The demo's tiering config (cli.py, demo step 4).
TIER_CONFIG = {"fast_capacity": 2500, "promo_threshold_accesses": 2, "max_promo_rate": 2000}

PAIRS_PER_BATCH = 500
FORECAST_ROWS_PER_SUITE = 100
LATCDF_N = 1_000_000
DUMP_N = 200_000


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: str          # checks.check_<check>(out, **check_args)
    check_args: dict
    reference: str = "python"  # run.REFERENCES: the loop that gauges the host for this op


@dataclass
class Plan:
    ops: list[Op]
    info: dict = field(default_factory=dict)


def derive(seed: int, tag: str) -> int:
    """A 32-bit seed for one input, derived from the workload seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{tag}".encode()).digest()[:4], "big")


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(path)


def _counts_csv(path: Path) -> list[dict[str, int]]:
    with path.open(newline="") as fh:
        return [{k: int(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _counts_json(path: Path) -> list[dict[str, int]]:
    return json.loads(path.read_text())


def _epoch_slice(ts, trace, keep: list[range]):
    """The fixture trace cut down to the given epoch ranges, in order."""
    epochs = [trace.epochs[i] for r in keep for i in r]
    return ts.TierTrace(epochs=epochs, page_count=trace.page_count,
                        wss_pages=trace.wss_pages, epoch_instructions=trace.epoch_instructions)


# Epochs kept from each fixture trace: the warm-up epoch plus the start of
# every phase.  At full size one op takes 1-4 s, and the host's slow spells
# last about as long, so no op of a 30 s run escapes them and the run-to-run
# spread was 15-20%.  Cut to about a seventh, an op takes 0.1-0.5 s and each
# one's fastest run over the rounds is steady.  Each phase keeps its regime:
# two_phase's overlapped storm (gate closed) and its no-overlap hot set (gate
# open, promotions pay), deep_overlap's all-promoted cold stream, and
# no_overlap's random pointer chase.
TRACE_EPOCHS = {
    "two_phase": [range(0, 3), range(16, 20)],   # warm-up, 2 of 15 storm, 4 of 30 hot
    "deep_overlap": [range(0, 9)],               # warm-up, 8 of 60 stream epochs
    "no_overlap": [range(0, 4)],                 # warm-up, 3 of 20 random epochs
}


def setup_tiersim_traces(seed: int, inputs: Path) -> Plan:
    from suplab import tiersim as ts

    policies = tuple(ts.POLICIES)
    cfg = _write_json(inputs / "policies.json",
                      [dict(policy=p, **TIER_CONFIG) for p in policies])
    ops = []
    misses = 0
    for name, make in (
        ("two_phase", ts.make_two_phase_trace),
        ("deep_overlap", ts.make_deep_overlap_trace),
        ("no_overlap", ts.make_no_overlap_trace),
    ):
        trace = _epoch_slice(ts, make(derive(seed, name)), TRACE_EPOCHS[name])
        trace_csv, header = inputs / f"{name}.csv", inputs / f"{name}.json"
        ts.write_trace(trace, trace_csv, header)
        misses += sum(len(e.demand_misses) for e in trace.epochs) * len(policies)
        ops.append(Op(
            f"tiersim_{name}",
            ["tiersim", "--trace", str(trace_csv), "--trace-header", str(header),
             "--policy-config", cfg, "--local", "local-emr", "--remote", "cxl-b",
             "--seed", str(seed)],
            "tiersim", {"epochs": len(trace.epochs), "policies": policies},
        ))
    return Plan(ops, {"misses_requested": misses})


def setup_counter_pipeline(seed: int, inputs: Path) -> Plan:
    from suplab import calibrate as cal
    from suplab import counters as cnt
    from suplab import devmodel as dm

    local = dm.PRESETS["local-emr"]
    ingest, breakdown, predict = [], [], []
    for tag, remote_name, fmt in (("a", "cxl-b", "csv"), ("b", "numa", "json")):
        remote = dm.PRESETS[remote_name]
        params = dm.make_reference_params(local, remote)
        suite = dm.make_workload_suite(PAIRS_PER_BATCH, seed=derive(seed, f"suite-{tag}"))
        base = derive(seed, f"pairs-{tag}")
        pairs = [
            dm.synthesize_runpair(w, local, remote, params, seed=base + i,
                                  consistency_noise=0.03)
            for i, w in enumerate(suite)
        ]
        pairs_csv = inputs / f"pairs_{tag}.csv"
        cnt.write_run_pairs(pairs, pairs_csv)
        log = inputs / f"counters_{tag}.{fmt}"
        cnt.write_counter_log([p.local for p in pairs], log, fmt)
        params_json = inputs / f"params_{tag}.json"
        params.to_json(params_json)
        expected = _counts_csv(log) if fmt == "csv" else _counts_json(log)
        ingest.append(Op(f"ingest_{fmt}",
                         ["ingest", "--input", str(log), "--format", fmt],
                         "ingest", {"expected": expected}))
        breakdown.append(Op("breakdown", ["breakdown", "--pairs", str(pairs_csv)],
                            "breakdown", {"n_pairs": len(pairs)}))
        predict.append(Op(f"predict_{fmt}",
                          ["predict", "--input", str(log), "--format", fmt,
                           "--params", str(params_json)],
                          "predict", {"n_rows": len(pairs), "params": asdict(params)}))

    calibrate = []
    for i, (remote_name, noise) in enumerate(
        (("cxl-b", 0.0), ("numa", 0.0), ("cxl-b", 0.02), ("cxl-a", 0.02))
    ):
        remote = dm.PRESETS[remote_name]
        rng = np.random.default_rng(derive(seed, f"truth-{i}"))
        truth = dm.make_reference_params(
            local, remote, q=float(rng.uniform(0.3, 0.6)),
            k2_scale=float(rng.uniform(0.5, 1.7)), k3_scale=float(rng.uniform(0.5, 1.0)),
        )
        runs = dm.make_calibration_runs(local, remote, truth, seed=derive(seed, f"cal-{i}"),
                                        noise=noise)
        runs_csv = inputs / f"calibration_{i}.csv"
        cal.write_calibration_csv(runs, runs_csv)
        calibrate.append(Op(
            "calibrate_noiseless" if noise == 0 else "calibrate_noisy",
            ["calibrate", "--runs", str(runs_csv), "--least-squares"],
            "calibrate", {"truth": asdict(truth) if noise == 0 else None},
        ))

    # One round: 8 ingests (5 CSV, 3 JSON), 5 breakdowns, 3 predicts and 4
    # calibrations, interleaved.  Sorted by time the kinds fall into blocks
    # (calibrate < predict < ingest < breakdown), and these shares put the
    # median inside the ingest block and p90 inside the breakdown block, so
    # both percentiles read one op kind instead of a boundary between two.
    (ia, ib), (ba, bb), (pa, pb) = ingest, breakdown, predict
    c0, c1, c2, c3 = calibrate
    ops = [ia, ba, ib, pa, c0, ia, bb, ib, pb, c2,
           ia, ba, ia, c1, bb, ib, pa, c3, ia, ba]
    return Plan(ops)


def setup_interleave_latency(seed: int, inputs: Path) -> Plan:
    from suplab import counters as cnt
    from suplab import devmodel as dm
    from suplab import interleave as il

    local_emr = dm.PRESETS["local-emr"]
    # The demo's bandwidth-bound platform; the CLI reads it as profile JSON.
    skx_local = dm.DeviceProfile(name="skx-local", base_latency_ns=90.0, bandwidth_cap_gbs=50.0)
    skx_znuma = dm.DeviceProfile(name="skx-znuma", base_latency_ns=140.0, bandwidth_cap_gbs=30.0)
    skx_local_json, skx_znuma_json = inputs / "skx-local.json", inputs / "skx-znuma.json"
    skx_local.to_json(skx_local_json)
    skx_znuma.to_json(skx_znuma_json)

    params = dm.make_reference_params(skx_local, skx_znuma)
    params_json = inputs / "params.json"
    params.to_json(params_json)
    fit_suite = dm.make_bandwidth_bound_suite(6, seed=derive(seed, "fit"), local=skx_local)
    fit = il.fit_interleave(fit_suite, skx_local, skx_znuma, params, grid=101, seed=seed)
    fit_json = inputs / "fit.json"
    fit.to_json(fit_json)

    suites = (
        ("bw", dm.make_bandwidth_bound_suite(7, seed=derive(seed, "bw"), local=skx_local),
         str(skx_local_json), str(skx_znuma_json)),
        ("cxla", dm.make_bandwidth_bound_suite(6, seed=derive(seed, "cxla"), local=local_emr,
                                               **dm.CXLA_SUITE_KWARGS),
         "local-emr", "cxl-a"),
        ("lat", dm.make_latency_bound_suite(6, seed=derive(seed, "lat"), local=local_emr),
         "local-emr", "cxl-a"),
    )
    scans = []
    for tag, suite, local, remote in suites:
        for i, w in enumerate(suite):
            path = _write_json(inputs / f"workload_{tag}_{i}.json", asdict(w))
            for grid in ((101, 1001) if i == 0 else (101,)):
                scans.append(Op(
                    f"scan_{grid}",
                    ["interleave", "scan", "--workload", path, "--local", local,
                     "--remote", remote, "--grid", str(grid), "--seed", str(seed)],
                    "scan", {"grid": grid},
                ))

    snaps = [dm.local_snapshot(w, skx_local) for w in
             dm.make_bandwidth_bound_suite(FORECAST_ROWS_PER_SUITE, seed=derive(seed, "fc-bw"),
                                           local=skx_local)
             + dm.make_latency_bound_suite(FORECAST_ROWS_PER_SUITE, seed=derive(seed, "fc-lat"),
                                           local=skx_local)]
    log = inputs / "forecast_counters.csv"
    cnt.write_counter_log(snaps, log, "csv")
    forecast = Op(
        "forecast",
        ["interleave", "forecast", "--input", str(log), "--params", str(params_json),
         "--fit", str(fit_json), "--local", str(skx_local_json), "--remote", str(skx_znuma_json)],
        "forecast", {"n_rows": len(snaps)},
    )

    latcdf = []
    for i, (profile, load, n, dump) in enumerate((
        ("local-emr", 0.0, LATCDF_N, False),
        ("cxl-a", 0.0, LATCDF_N, False),
        ("cxl-d", 0.0, LATCDF_N, False),
        ("cxl-b", 0.5, LATCDF_N, False),
        ("numa", 0.8, LATCDF_N, False),
        ("cxl-b", 0.0, DUMP_N, True),
    )):
        argv = ["latcdf", "--profile", profile, "--n", str(n), "--load", str(load),
                "--seed", str(derive(seed, f"latcdf-{i}"))]
        # Sampling and sorting take a plain latcdf's time; writing the rows
        # of the dumped samples takes most of a dump's.
        latcdf.append(Op("latcdf_dump" if dump else "latcdf",
                         argv + (["--dump-samples"] if dump else []),
                         "latcdf", {"n": n, "dumped": dump},
                         "python" if dump else "numpy"))

    # One round: 19 scans at grid 101, 3 at grid 1001, 2 forecasts, 5 latcdf
    # at 1M and one 200k latcdf with --dump-samples.  Sorted by time these
    # form blocks (scan 101 < forecast < scan 1001 < latcdf < dump), and the
    # shares put the median inside the grid-101 scans and p90 inside the 1M
    # latcdf block.
    ops = scans[:8] + [forecast] + latcdf[:3] + scans[8:16] + [forecast] + latcdf[3:] + scans[16:]
    return Plan(ops)


WORKLOADS = {
    "tiersim_traces": setup_tiersim_traces,
    "counter_pipeline": setup_counter_pipeline,
    "interleave_latency": setup_interleave_latency,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True, help="directory for the input files")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import suplab.cli  # noqa: F401  (set-up pays for importing the CLI and every layer)

    inputs = Path(args.inputs)
    plan = WORKLOADS[args.workload](args.seed, inputs)
    (inputs / "plan.json").write_text(json.dumps(asdict(plan)))


if __name__ == "__main__":
    main()
