"""Command-line entry point.

Subcommands: ingest, breakdown, calibrate, predict, interleave scan|forecast,
tiersim, latcdf, demo.  All randomness flows from --seed, outputs are written
atomically (temp + rename), and every output directory gets a copy of the run
manifest.  Exit codes: 0 success, 1 usage error, 2 data/invariant error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from . import breakdown as bd
from . import calibrate as cal
from . import counters as cnt
from . import devmodel as dm
from . import interleave as il
from . import model as mdl
from . import tiersim as ts
from .errors import SupLabError, load_json_object

USAGE_EXIT = 1
DATA_EXIT = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


class OutputDir:
    """Collects outputs and lands each one atomically under one directory.

    The directory is created on first write, so a command that fails before
    producing anything leaves no trace.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def write_text(self, name: str, text: str) -> Path:
        return self.write_via(name, lambda p: Path(p).write_text(text))

    def write_json(self, name: str, payload) -> Path:
        return self.write_text(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def write_via(self, name: str, writer) -> Path:
        """Run a path-taking writer against a temp file, then rename."""
        self.root.mkdir(parents=True, exist_ok=True)
        target = self.root / name
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f".{name}.")
        os.close(fd)
        try:
            writer(tmp)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return target


def _write_manifest(out: OutputDir, args: argparse.Namespace, inputs: dict) -> None:
    manifest = {
        "subcommand": args.command,
        "seed": getattr(args, "seed", None),
        "inputs": inputs,
        "output_dir": str(out.root),
    }
    out.write_json("manifest.json", manifest)


def _load_device(path_or_preset: str) -> dm.DeviceProfile:
    if path_or_preset in dm.PRESETS:
        return dm.PRESETS[path_or_preset]
    return dm.DeviceProfile.from_json(path_or_preset)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out", help="output directory")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="counter log format")


def build_parser() -> _Parser:
    parser = _Parser(prog="suplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and validate a counter log")
    _add_common(p)
    _add_format(p)
    p.add_argument("--input", required=True)

    p = sub.add_parser("breakdown", help="decompose slowdowns for a pairs CSV")
    _add_common(p)
    p.add_argument("--pairs", required=True)

    p = sub.add_parser("calibrate", help="fit model parameters from a runs CSV")
    _add_common(p)
    p.add_argument("--runs", required=True)
    p.add_argument("--least-squares", action="store_true",
                   help="refine k1..k4 with a least-squares pass")

    p = sub.add_parser("predict", help="predict slowdowns for a counter log")
    _add_common(p)
    _add_format(p)
    p.add_argument("--input", required=True)
    p.add_argument("--params", required=True)

    p = sub.add_parser("interleave", help="ratio scanning and best-shot forecasts")
    _add_common(p)
    _add_format(p)
    p.add_argument("action", choices=("scan", "forecast"))
    p.add_argument("--local", default="local-emr", help="device preset name or profile JSON")
    p.add_argument("--remote", default="cxl-a")
    p.add_argument("--workload", help="workload profile JSON (scan)")
    p.add_argument("--input", help="counter log of a local run (forecast)")
    p.add_argument("--params", help="ModelParams JSON (forecast)")
    p.add_argument("--fit", help="InterleaveFit JSON (forecast)")
    p.add_argument("--grid", type=int, default=101)

    p = sub.add_parser("tiersim", help="simulate tiering policies over a trace")
    _add_common(p)
    p.add_argument("--trace", required=True, help="trace CSV")
    p.add_argument("--trace-header", required=True, help="trace header JSON")
    p.add_argument("--policy-config", required=True, help="PolicyConfig JSON (or list)")
    p.add_argument("--local", default="local-emr")
    p.add_argument("--remote", default="cxl-b")

    p = sub.add_parser("latcdf", help="sample device latencies and report percentiles")
    _add_common(p)
    p.add_argument("--profile", required=True, help="device preset name or profile JSON")
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--load", type=float, default=0.0)
    p.add_argument("--dump-samples", action="store_true",
                   help="also write the raw samples as a single-column CSV")

    p = sub.add_parser("demo", help="end-to-end fixture pipeline")
    _add_common(p)
    return parser


def _cmd_ingest(args) -> int:
    out = OutputDir(args.out)
    snaps = cnt.ingest_counter_log(args.input, format=args.format)
    out.write_via("snapshots.csv", lambda p: cnt.write_counter_log(snaps, p, "csv"))
    rows = [
        {
            "row": i,
            "amortized_offcore_latency": (
                cnt.amortized_offcore_latency(s) if s.offcore_demand_requests > 0 else None
            ),
            "stall_fractions": cnt.stall_fractions(s) if s.total_cycles > 0 else None,
        }
        for i, s in enumerate(snaps)
    ]
    out.write_json("derived.json", rows)
    _write_manifest(out, args, {"input": args.input})
    print(f"ingested {len(snaps)} snapshots -> {out.root}")
    return 0


def _cmd_breakdown(args) -> int:
    out = OutputDir(args.out)
    pairs, _ = cnt.read_run_pairs(args.pairs)
    reports = [bd.decompose(rp) for rp in pairs]
    cdf = bd.estimate_accuracy(reports, which="backend")
    out.write_via("breakdown.csv", lambda p: bd.write_report_csv(reports, p))
    out.write_via("breakdown_long.csv", lambda p: bd.write_report_long_csv(reports, p))
    out.write_json(
        "accuracy.json",
        {"pairs": len(pairs), "p95_abs_error": cdf.quantile(0.95),
         "within_0.05": cdf.fraction_within(0.05)},
    )
    _write_manifest(out, args, {"pairs": args.pairs})
    print(f"decomposed {len(pairs)} pairs -> {out.root}")
    return 0


def _cmd_calibrate(args) -> int:
    out = OutputDir(args.out)
    runs = cal.read_calibration_csv(args.runs)
    params = cal.fit_sequential(runs)
    if args.least_squares:
        params = cal.fit_least_squares(runs, params)
    out.write_via("params.json", params.to_json)
    _write_manifest(out, args, {"runs": args.runs})
    print(f"fitted params -> {out.root / 'params.json'}")
    return 0


def _cmd_predict(args) -> int:
    out = OutputDir(args.out)
    params = mdl.ModelParams.from_json(args.params)
    snaps = cnt.ingest_counter_log(args.input, format=args.format)
    preds = [mdl.predict(s, params, label=f"row-{i}") for i, s in enumerate(snaps)]
    out.write_via("predictions.csv", lambda p: mdl.write_predictions_csv(preds, p))
    _write_manifest(out, args, {"input": args.input, "params": args.params})
    print(f"predicted {len(preds)} snapshots -> {out.root}")
    return 0


def _cmd_interleave(args) -> int:
    out = OutputDir(args.out)
    local = _load_device(args.local)
    remote = _load_device(args.remote)
    if args.action == "scan":
        if not args.workload:
            raise _UsageError("interleave scan requires --workload")
        w = load_json_object(dm.WorkloadProfile, args.workload)
        curve = il.scan_ratios(w, local, remote, grid=args.grid, seed=args.seed)
        out.write_via("scan.csv", lambda p: il.write_scan_csv(curve, p))
        best_x, best_rt = il.best_scan_point(curve)
        out.write_json("scan_best.json", {"remote_fraction": best_x, "runtime_s": best_rt})
        _write_manifest(out, args, {"workload": args.workload,
                                    "local": args.local, "remote": args.remote})
        print(f"scanned {len(curve)} ratios -> {out.root}")
        return 0
    if not args.input or not args.params or not args.fit:
        raise _UsageError("interleave forecast requires --input, --params and --fit")
    params = mdl.ModelParams.from_json(args.params)
    fit = il.InterleaveFit.from_json(args.fit)
    snaps = cnt.ingest_counter_log(args.input, format=args.format)
    fcs = [
        il.forecast(s, local, remote, params, fit, label=f"row-{i}")
        for i, s in enumerate(snaps)
    ]
    out.write_via("forecast.csv", lambda p: il.write_forecast_csv(fcs, p))
    _write_manifest(out, args, {"input": args.input, "params": args.params, "fit": args.fit})
    print(f"forecast {len(fcs)} snapshots -> {out.root}")
    return 0


def _cmd_tiersim(args) -> int:
    out = OutputDir(args.out)
    local = _load_device(args.local)
    remote = _load_device(args.remote)
    trace = ts.read_trace(args.trace, args.trace_header)
    cfgs = load_json_object(ts.PolicyConfig, args.policy_config, many=True)
    rows, outcomes = ts.compare_policies(trace, cfgs, local, remote)
    out.write_json("comparison.json", rows)
    for outcome in outcomes:
        out.write_via(
            f"epochs_{outcome.policy}.csv",
            lambda p, oc=outcome: ts.write_epoch_report_csv(oc, p),
        )
    _write_manifest(out, args, {"trace": args.trace, "policy_config": args.policy_config,
                                "local": args.local, "remote": args.remote})
    print(f"simulated {len(cfgs)} policies -> {out.root}")
    return 0


def _cmd_latcdf(args) -> int:
    out = OutputDir(args.out)
    dev = _load_device(args.profile)
    samples = dm.sample_latencies(dev, n=args.n, load=args.load, seed=args.seed)
    if args.dump_samples:
        out.write_via("samples.csv", lambda p: dm.write_latency_samples_csv(samples, p))
    qs = (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999)
    pcts = dm.latency_percentiles(samples, qs)
    out.write_via(
        "percentiles.csv",
        lambda p: Path(p).write_text(
            "q,ns\n" + "".join(f"{q},{pcts[q]!r}\n" for q in qs)
        ),
    )
    spread = pcts[0.999] - pcts[0.5]
    out.write_json(
        "summary.json",
        {"device": dev.name, "n": args.n, "load": args.load,
         "p50": pcts[0.5], "p99.9": pcts[0.999], "p99.9_minus_p50": spread},
    )
    _write_manifest(out, args, {"profile": args.profile})
    print(f"{dev.name}: p99.9 - p50 = {spread:.1f} ns -> {out.root}")
    return 0


def _cmd_demo(args) -> int:
    """Calibrate, predict, forecast, and simulate on the shipped fixtures."""
    out = OutputDir(args.out)
    seed = args.seed
    local = dm.PRESETS["local-emr"]
    remote = dm.PRESETS["cxl-b"]
    lines = []

    # 1. calibrate from synthesized microbenchmarks
    truth = dm.make_reference_params(local, remote)
    runs = dm.make_calibration_runs(local, remote, truth, seed=seed)
    out.write_via("calibration_runs.csv", lambda p: cal.write_calibration_csv(runs, p))
    params = cal.fit_sequential(runs)
    out.write_via("params.json", params.to_json)
    err = max(
        abs(getattr(params, k) - getattr(truth, k)) / max(abs(getattr(truth, k)), 1e-12)
        for k in ("k1", "k2", "k3", "p", "q")
    )
    lines.append(f"calibration: max relative parameter error {err:.2e}")

    # 2. breakdown + prediction accuracy on a noisy fixture suite
    pairs = dm.make_consistency_fixture(200, seed=seed, noise=0.03)
    reports = [bd.decompose(rp) for rp in pairs]
    out.write_via("breakdown.csv", lambda p: bd.write_report_csv(reports, p))
    cdf = bd.estimate_accuracy(reports, which="backend")
    lines.append(
        f"breakdown: {cdf.fraction_within(0.05):.1%} of {len(pairs)} pairs within 0.05"
    )
    points = [
        (mdl.predict(rp.local, params, label=rp.label).s_pred, bd.measure_slowdown(rp))
        for rp in pairs
    ]
    stats = mdl.evaluate_accuracy(points)
    lines.append(
        f"prediction: pearson {stats.pearson:.3f}, within5 {stats.within[0.05]:.1%}"
    )

    # 3. interleaving: fit from scans, then forecast a bandwidth-bound suite
    skx_local = dm.DeviceProfile(name="skx-local", base_latency_ns=90.0, bandwidth_cap_gbs=50.0)
    skx_znuma = dm.DeviceProfile(name="skx-znuma", base_latency_ns=140.0, bandwidth_cap_gbs=30.0)
    il_params = dm.make_reference_params(skx_local, skx_znuma)
    fit_wls = dm.make_bandwidth_bound_suite(6, seed=seed, local=skx_local)
    fit = il.fit_interleave(fit_wls, skx_local, skx_znuma, il_params, grid=101, seed=seed)
    out.write_via("interleave_fit.json", fit.to_json)
    eval_wls = dm.make_bandwidth_bound_suite(8, seed=seed + 1, local=skx_local)
    fcs = []
    hits = 0
    for w in eval_wls:
        snap = dm.local_snapshot(w, skx_local)
        fc = il.forecast(snap, skx_local, skx_znuma, il_params, fit, label=w.name)
        fcs.append(fc)
        curve = il.scan_ratios(w, skx_local, skx_znuma, grid=101, seed=seed)
        best_x, _ = il.best_scan_point(curve)
        if abs(fc.best_ratio.remote_fraction - best_x) <= 0.03:
            hits += 1
    out.write_via("interleave_forecast.csv", lambda p: il.write_forecast_csv(fcs, p))
    lines.append(f"interleave: {hits}/{len(eval_wls)} forecasts within 3 grid points of scan optimum")

    # 4. tiering policies over the fixture traces
    cfg_kw = dict(fast_capacity=2500, promo_threshold_accesses=2, max_promo_rate=2000)
    cfgs = [ts.PolicyConfig(policy=pol, **cfg_kw) for pol in ts.POLICIES]
    for name, trace in (
        ("two_phase", ts.make_two_phase_trace(seed)),
        ("deep_overlap", ts.make_deep_overlap_trace(seed)),
        ("no_overlap", ts.make_no_overlap_trace(seed)),
    ):
        rows, outcomes = ts.compare_policies(trace, cfgs, local, remote)
        out.write_json(f"tiersim_{name}.json", rows)
        by = {r["policy"]: r for r in rows}
        lines.append(
            f"tiersim {name}: normalized runtime first_touch {by['first_touch']['normalized_runtime']:.2f} "
            f"tpp {by['tpp']['normalized_runtime']:.2f} alto {by['alto']['normalized_runtime']:.2f}"
        )
        alto_outcome = outcomes[ts.POLICIES.index("alto")]
        out.write_via(
            f"tiersim_{name}_alto_epochs.csv",
            lambda p, oc=alto_outcome: ts.write_epoch_report_csv(oc, p),
        )

    # 5. latency CDFs for the shipped presets
    cdf_rows = []
    for preset in ("local-emr", "numa", "cxl-b", "cxl-d"):
        dev = dm.PRESETS[preset]
        samples = dm.sample_latencies(dev, n=200_000, load=0.0, seed=seed)
        pcts = dm.latency_percentiles(samples, (0.5, 0.999))
        cdf_rows.append(
            {"device": preset, "p50": pcts[0.5], "p99.9": pcts[0.999],
             "spread": pcts[0.999] - pcts[0.5]}
        )
    out.write_json("latency_spreads.json", cdf_rows)
    lines.append(
        "latency spreads (p99.9-p50 ns): "
        + ", ".join(f"{r['device']}={r['spread']:.0f}" for r in cdf_rows)
    )

    summary = "\n".join(lines) + "\n"
    out.write_text("summary.txt", summary)
    _write_manifest(out, args, {"fixtures": "builtin"})
    sys.stdout.write(summary)
    return 0


_HANDLERS = {
    "ingest": _cmd_ingest,
    "breakdown": _cmd_breakdown,
    "calibrate": _cmd_calibrate,
    "predict": _cmd_predict,
    "interleave": _cmd_interleave,
    "tiersim": _cmd_tiersim,
    "latcdf": _cmd_latcdf,
    "demo": _cmd_demo,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (SupLabError, ZeroDivisionError, OSError) as exc:   # OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
