"""Command-line entry point.

Subcommands: ingest, breakdown, calibrate, predict, interleave scan|forecast,
tiersim, latcdf, demo.  All randomness flows from --seed.  Outputs, with a
copy of the run manifest, are staged beside the output directory and published
only when the command succeeds, so a failed command leaves no output
directory.  Exit codes: 0 success, 1 usage error, 2 data/invariant error.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
from pathlib import Path

from . import breakdown as bd
from . import calibrate as cal
from . import counters as cnt
from . import devmodel as dm
from . import interleave as il
from . import model as mdl
from . import tiersim as ts
from .errors import MalformedConfig, SupLabError, dump_json, write_table

USAGE_EXIT = 1
DATA_EXIT = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


class OutputDir:
    """A hidden staging directory beside ``root``; ``out / name`` is a path in it.

    Nothing appears under ``root`` until :meth:`publish`.  The caller removes
    ``staging`` afterwards, whether or not the command succeeded; a publish
    that renames it into place sets it to None.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.parent.mkdir(parents=True, exist_ok=True)
        # A plain mkdir, not mkdtemp's 0700, so that the umask sets the mode
        # ``root`` has once the directory is renamed into place.
        for attempt in range(100):
            self.staging = self.root.parent / f".{self.root.name}.{os.urandom(6).hex()}"
            try:
                os.mkdir(self.staging)
                break
            except FileExistsError:
                if attempt == 99:
                    raise

    def __truediv__(self, name: str) -> Path:
        return self.staging / name

    def publish(self) -> None:
        """Rename the staging directory to a ``root`` that does not exist yet, so
        that every output appears at once.  Into an existing ``root``, move each
        staged file, replacing same-named files, and the manifest last, after
        every output it describes.

        Anything at ``root``, even an empty directory that ``rename(2)`` would
        silently replace, takes the per-file path; a file or symlink fails there.
        """
        if not os.path.lexists(self.root):
            os.rename(self.staging, self.root)
            self.staging = None
            return
        self.root.mkdir(exist_ok=True)
        for f in sorted(self.staging.iterdir(), key=lambda f: f.name == "manifest.json"):
            os.replace(f, self.root / f.name)


def _write_manifest(out: OutputDir, args: argparse.Namespace, inputs: tuple[str, ...]) -> None:
    """The manifest's ``inputs`` are those of the arguments named in ``inputs`` that were given."""
    given = {name: getattr(args, name) for name in inputs if getattr(args, name) is not None}
    dump_json(out / "manifest.json", {"subcommand": args.command, "seed": args.seed,
                                      "args": vars(args), "inputs": given,
                                      "output_dir": str(out.root)})


def _load_device(path_or_preset: str) -> dm.DeviceProfile:
    if path_or_preset in dm.PRESETS:
        return dm.PRESETS[path_or_preset]
    return dm.DeviceProfile.from_json(path_or_preset)


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:   # numpy's generators take only non-negative seeds
        raise ValueError(text)
    return value


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call, kept as data for COMMANDS."""
    return flags, kwargs


_COMMON = (_arg("--seed", type=non_negative_int, default=0),
           _arg("--out", default="out", help="output directory"))
_FORMAT = _arg("--format", choices=("csv", "json"), default="csv", help="counter log format")


def _row_labels(log: cnt.CounterLog) -> list[str]:
    return [f"row-{i}" for i in range(len(log))]


def _cmd_ingest(args, out: OutputDir) -> str:
    log = cnt.ingest_counter_log(args.input, format=args.format)
    cnt.write_counter_log(log, out / "snapshots.csv", "csv")
    cnt.write_derived_json(log, out / "derived.json")
    return f"ingested {len(log)} snapshots -> {out.root}"


def _cmd_breakdown(args, out: OutputDir) -> str:
    labels, pairs, _ = cnt.read_pairs_table(args.pairs)
    breakdown = bd.decompose_table(pairs)
    text = bd.write_report_csv(labels, breakdown, out / "breakdown.csv")
    bd.write_report_long_csv(labels, text, out / "breakdown_long.csv")
    cdf = bd.estimate_accuracy(breakdown, which="backend")
    dump_json(out / "accuracy.json", {"pairs": len(pairs), "p95_abs_error": cdf.quantile(0.95),
                                      "within_0.05": cdf.fraction_within(0.05)})
    return f"decomposed {len(pairs)} pairs -> {out.root}"


def _cmd_calibrate(args, out: OutputDir) -> str:
    runs = cal.read_calibration_csv(args.runs)
    params = cal.fit_sequential(runs)
    if args.least_squares:
        params = cal.fit_least_squares(runs, params)
    params.to_json(out / "params.json")
    return f"fitted params -> {out.root / 'params.json'}"


def _cmd_predict(args, out: OutputDir) -> str:
    params = mdl.ModelParams.from_json(args.params)
    log = cnt.ingest_counter_log(args.input, format=args.format)
    mdl.write_predictions_csv(mdl.predict(log, params, _row_labels(log)), out / "predictions.csv")
    return f"predicted {len(log)} snapshots -> {out.root}"


def _cmd_interleave(args, out: OutputDir) -> str:
    if args.action == "scan":
        local = _load_device(args.local)
        remote = _load_device(args.remote)
        if not args.workload:
            raise _UsageError("interleave scan requires --workload")
        w = dm.WorkloadProfile.from_json(args.workload)
        curve = il.scan_ratios(w, local, remote, grid=args.grid, seed=args.seed)
        il.write_scan_csv(curve, out / "scan.csv")
        best_x, best_rt = il.best_scan_point(curve)
        dump_json(out / "scan_best.json", {"remote_fraction": best_x, "runtime_s": best_rt})
        return f"scanned {len(curve)} ratios -> {out.root}"
    if not args.input or not args.params or not args.fit:
        raise _UsageError("interleave forecast requires --input, --params and --fit")
    params = mdl.ModelParams.from_json(args.params)
    fit = il.InterleaveFit.from_json(args.fit)
    log = cnt.ingest_counter_log(args.input, format=args.format)
    args.local = args.remote = None   # forecast reads no device: the fit carries the platform
    il.write_forecast_csv(il.forecast(log, None, None, params, fit, _row_labels(log)),
                          out / "forecast.csv")
    return f"forecast {len(log)} snapshots -> {out.root}"


def _cmd_tiersim(args, out: OutputDir) -> str:
    local = _load_device(args.local)
    remote = _load_device(args.remote)
    trace = ts.read_trace(args.trace, args.trace_header)
    cfgs = ts.PolicyConfig.from_json(args.policy_config, many=True)
    policies = [cfg.policy for cfg in cfgs]   # each names its epoch report
    repeated = next((p for i, p in enumerate(policies) if p in policies[:i]), None)
    if repeated:
        raise MalformedConfig(f"{args.policy_config}: policy {repeated!r} appears twice")
    rows, outcomes = ts.compare_policies(trace, cfgs, local, remote)
    dump_json(out / "comparison.json", rows)
    for outcome in outcomes:
        ts.write_epoch_report_csv(outcome, out / f"epochs_{outcome.policy}.csv")
    return f"simulated {len(cfgs)} policies -> {out.root}"


def _cmd_latcdf(args, out: OutputDir) -> str:
    dev = _load_device(args.profile)
    samples = dm.sample_latencies(dev, n=args.n, load=args.load, seed=args.seed)
    if args.dump_samples:
        dm.write_latency_samples_csv(samples, out / "samples.csv")
    qs = (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999)
    pcts = dm._percentiles_in_place(samples, qs)   # the samples' last reader
    write_table(out / "percentiles.csv", ["q", "ns"], [qs, [pcts[q] for q in qs]], "\n")
    spread = pcts[0.999] - pcts[0.5]
    dump_json(out / "summary.json", {"device": dev.name, "n": args.n, "load": args.load,
                                     "p50": pcts[0.5], "p99.9": pcts[0.999],
                                     "p99.9_minus_p50": spread})
    return f"{dev.name}: p99.9 - p50 = {spread:.1f} ns -> {out.root}"


def _cmd_demo(args, out: OutputDir) -> str:
    """Calibrate, predict, forecast, and simulate on the shipped fixtures."""
    seed = args.seed
    local = dm.PRESETS["local-emr"]
    remote = dm.PRESETS["cxl-b"]
    lines = []

    # 1. calibrate from synthesized microbenchmarks
    truth = dm.make_reference_params(local, remote)
    runs = dm.make_calibration_runs(local, remote, truth, seed=seed)
    cal.write_calibration_csv(runs, out / "calibration_runs.csv")
    params = cal.fit_sequential(runs)
    params.to_json(out / "params.json")
    err = max(
        abs(getattr(params, k) - getattr(truth, k)) / max(abs(getattr(truth, k)), 1e-12)
        for k in ("k1", "k2", "k3", "p", "q")
    )
    lines.append(f"calibration: max relative parameter error {err:.2e}")

    # 2. breakdown + prediction accuracy on a noisy fixture suite
    pairs = dm.make_consistency_fixture(200, seed=seed, noise=0.03)
    breakdown = bd.decompose_table(cnt.pairs_table(pairs))
    bd.write_report_csv([rp.label for rp in pairs], breakdown, out / "breakdown.csv")
    cdf = bd.estimate_accuracy(breakdown, which="backend")
    lines.append(
        f"breakdown: {cdf.fraction_within(0.05):.1%} of {len(pairs)} pairs within 0.05"
    )
    measured = breakdown[:, bd.REPORT_COLUMNS.index("measured")].tolist()
    preds = mdl.predict(cnt.counter_log([rp.local for rp in pairs]), params)
    stats = mdl.evaluate_accuracy(list(zip(preds.s_pred.tolist(), measured)))
    lines.append(
        f"prediction: pearson {stats.pearson:.3f}, within5 {stats.within[0.05]:.1%}"
    )

    # 3. interleaving: fit from scans, then forecast a bandwidth-bound suite
    skx_local = dm.DeviceProfile(name="skx-local", base_latency_ns=90.0, bandwidth_cap_gbs=50.0)
    skx_znuma = dm.DeviceProfile(name="skx-znuma", base_latency_ns=140.0, bandwidth_cap_gbs=30.0)
    il_params = dm.make_reference_params(skx_local, skx_znuma)
    fit_wls = dm.make_bandwidth_bound_suite(6, seed=seed, local=skx_local)
    fit = il.fit_interleave(fit_wls, skx_local, skx_znuma, il_params, grid=101, seed=seed)
    fit.to_json(out / "interleave_fit.json")
    eval_wls = dm.make_bandwidth_bound_suite(8, seed=seed + 1, local=skx_local)
    log = cnt.counter_log([dm.local_snapshot(w, skx_local) for w in eval_wls])
    fcs = il.forecast(log, skx_local, skx_znuma, il_params, fit, [w.name for w in eval_wls])
    hits = 0
    for w, x in zip(eval_wls, fcs.best_remote_fraction.tolist()):
        best_x, _ = il.best_scan_point(il.scan_ratios(w, skx_local, skx_znuma, grid=101, seed=seed))
        hits += abs(x - best_x) <= 0.03
    il.write_forecast_csv(fcs, out / "interleave_forecast.csv")
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
        dump_json(out / f"tiersim_{name}.json", rows)
        by = {r["policy"]: r for r in rows}
        lines.append(
            f"tiersim {name}: normalized runtime first_touch {by['first_touch']['normalized_runtime']:.2f} "
            f"tpp {by['tpp']['normalized_runtime']:.2f} alto {by['alto']['normalized_runtime']:.2f}"
        )
        ts.write_epoch_report_csv(outcomes[ts.POLICIES.index("alto")],
                                  out / f"tiersim_{name}_alto_epochs.csv")

    # 5. latency CDFs for the shipped presets
    cdf_rows = []
    for preset in ("local-emr", "numa", "cxl-b", "cxl-d"):
        dev = dm.PRESETS[preset]
        samples = dm.sample_latencies(dev, n=200_000, load=0.0, seed=seed)
        pcts = dm._percentiles_in_place(samples, (0.5, 0.999))
        cdf_rows.append(
            {"device": preset, "p50": pcts[0.5], "p99.9": pcts[0.999],
             "spread": pcts[0.999] - pcts[0.5]}
        )
    dump_json(out / "latency_spreads.json", cdf_rows)
    lines.append(
        "latency spreads (p99.9-p50 ns): "
        + ", ".join(f"{r['device']}={r['spread']:.0f}" for r in cdf_rows)
    )

    summary = "\n".join(lines)
    (out / "summary.txt").write_text(summary + "\n")
    return summary


# name: (help, handler, arguments after --seed and --out, the dests of those
# that name an input file or device preset).  Each handler writes its outputs
# under ``out`` and returns the line(s) to print; run() writes the manifest,
# whose inputs are the named arguments that were given, and publishes.
COMMANDS = {
    "ingest": ("parse and validate a counter log", _cmd_ingest,
               (_FORMAT, _arg("--input", required=True)), ("input",)),
    "breakdown": ("decompose slowdowns for a pairs CSV", _cmd_breakdown,
                  (_arg("--pairs", required=True),), ("pairs",)),
    "calibrate": ("fit model parameters from a runs CSV", _cmd_calibrate,
                  (_arg("--runs", required=True),
                   _arg("--least-squares", action="store_true",
                        help="refine k1..k4 with a least-squares pass")), ("runs",)),
    "predict": ("predict slowdowns for a counter log", _cmd_predict,
                (_FORMAT, _arg("--input", required=True), _arg("--params", required=True)),
                ("input", "params")),
    "interleave": ("ratio scanning and best-shot forecasts", _cmd_interleave,
                   (_FORMAT, _arg("action", choices=("scan", "forecast")),
                    _arg("--local", default="local-emr",
                         help="device preset name or profile JSON (scan only)"),
                    _arg("--remote", default="cxl-a", help="(scan only)"),
                    _arg("--workload", help="workload profile JSON (scan)"),
                    _arg("--input", help="counter log of a local run (forecast)"),
                    _arg("--params", help="ModelParams JSON (forecast)"),
                    _arg("--fit", help="InterleaveFit JSON (forecast)"),
                    _arg("--grid", type=int, default=101)),
                   ("local", "remote", "workload", "input", "params", "fit")),
    "tiersim": ("simulate tiering policies over a trace", _cmd_tiersim,
                (_arg("--trace", required=True, help="trace CSV"),
                 _arg("--trace-header", required=True, help="trace header JSON"),
                 _arg("--policy-config", required=True, help="PolicyConfig JSON (or list)"),
                 _arg("--local", default="local-emr"),
                 _arg("--remote", default="cxl-b")),
                ("trace", "trace_header", "policy_config", "local", "remote")),
    "latcdf": ("sample device latencies and report percentiles", _cmd_latcdf,
               (_arg("--profile", required=True, help="device preset name or profile JSON"),
                _arg("--n", type=int, default=1_000_000),
                _arg("--load", type=float, default=0.0),
                _arg("--dump-samples", action="store_true",
                     help="also write the raw samples as a single-column CSV")), ("profile",)),
    "demo": ("end-to-end fixture pipeline", _cmd_demo, (), ()),
}


@functools.cache
def build_parser() -> _Parser:
    """The full parser tree, built on first use and reused for every command.

    Reuse is safe: ``parse_args`` returns a new Namespace on each call, and every
    default is None or an immutable scalar, so no parse changes what the next
    one sees."""
    parser = _Parser(prog="suplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, _, arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flags, kwargs in (*_COMMON, *arguments):
            p.add_argument(*flags, **kwargs)
    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = OutputDir(args.out)
        try:
            _, handler, _, inputs = COMMANDS[args.command]
            message = handler(args, out)
            _write_manifest(out, args, inputs)
            out.publish()
        finally:
            if out.staging is not None:
                shutil.rmtree(out.staging, ignore_errors=True)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (SupLabError, OSError) as exc:   # OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    print(message)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
