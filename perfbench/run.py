"""suplab benchmark: closed-loop, in-process CLI ops on inputs made from a seed.

    python3 perfbench/run.py --workload tiersim_traces --seed 1 --seconds 30 --trace 0

One process runs one workload, one op at a time, through ``suplab.cli.run``
with ``SUPLAB_THREADS`` unset.  Set-up (a fresh process that imports suplab,
makes the inputs from the seed and writes them; see workloads.py) runs once
before the rounds and again at even intervals between them; each must write
the same inputs as the first.  Whole rounds of the workload's fixed op list
run until the next round would take their total past ``--seconds`` (the
set-ups come on top); every op's outputs are checked, and every round must
reproduce the first round's outputs exactly.

Op times are in reference seconds (see op_ref_seconds): each op is timed
against a fixed reference loop run next to it, and its figure is the median
of these ratios over the rounds times the loop's nominal time.  The host's
speed drifts by tens of percent over minutes; the ratio cancels that drift.
result.json also keeps the raw wall times: each op's fastest, the first,
cold round's and the median round's.  ``setup_s`` is the median wall time of
the set-ups, which the loops do not gauge well (a fresh process pays for
start-up, imports and page faults).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics,
taken from spans recorded around suplab's public functions (see tracing.py).
The last line of standard output is the result as one JSON object; the line
before it and ``.perfbench_work/<workload>-seed<n>-trace<t>/`` hold the
provenance, the per-op output summaries and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import Op, Plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ("cli", "tiersim", "counters", "breakdown", "model", "calibrate", "interleave",
          "devmodel")
SETUPS = 7


def python_reference() -> None:
    """Interpreted work like suplab's hot paths: dict updates, a heap, floats."""
    counts: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    acc = 0.0
    for i in range(8000):
        k = (i * 7919) % 3001
        counts[k] = counts.get(k, 0) + 1
        heapq.heappush(heap, (i, k))
        acc += 1.5 / (1 + (k & 7))
        if len(heap) > 500:
            heapq.heappop(heap)


def numpy_reference() -> None:
    """Array work like latency sampling: random draws and a sort."""
    np.sort(np.random.default_rng(1).standard_normal(150_000))


# Each op names one of these in its plan (workloads.Op.reference).  The
# seconds are the loop's fastest time on the 2-vCPU host of
# perfbench/README.md, rounded: an op's time reads as seconds on a host that
# runs its loop in that time.  A slow spell of the host stretches
# interpreted code about twice as much as array code, so each op is gauged
# by the loop that does work like its own.
REFERENCES = {"python": (python_reference, 0.005), "numpy": (numpy_reference, 0.0045)}


def time_references(names: set[str]) -> dict[str, float]:
    """Wall time of one pass of each named reference loop."""
    times = {}
    for name in sorted(names):
        t0 = time.perf_counter()
        REFERENCES[name][0]()
        times[name] = time.perf_counter() - t0
    return times


def import_suplab() -> dict:
    """Import suplab from the checkout's src/; returns {layer: module}."""
    sys.path.insert(0, str(ROOT / "src"))
    import suplab.cli

    src = (ROOT / "src").resolve()
    if src not in Path(suplab.cli.__file__).resolve().parents:
        raise ImportError(f"suplab was imported from {suplab.cli.__file__}, not {src}")
    return {layer: sys.modules[f"suplab.{layer}"] for layer in LAYERS}


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    """Runs rounds of one workload's ops and keeps what the metrics need."""

    def __init__(self, cli, plan, workdir: Path):
        self.cli = cli
        self.plan = plan
        self.workdir = workdir
        self.first_round: list[dict] | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_round(self, tracer=None) -> dict:
        gc.collect()
        sink = io.StringIO()
        summaries, seconds = [], []
        ops = self.plan.ops
        # Between two ops, the reference loops of both; one before the first
        # op and one after the last.
        refs = [time_references({ops[0].reference})]
        files = nbytes = 0
        for slot, op in enumerate(ops):
            out = self.workdir / "out" / f"{slot:02d}-{op.kind}"
            shutil.rmtree(out, ignore_errors=True)
            argv = op.argv + ["--out", os.path.relpath(out, ROOT)]
            sink.seek(0)
            sink.truncate()
            with redirect_stdout(sink), redirect_stderr(sink):
                t0 = time.perf_counter()
                try:
                    rc = tracer.op(self.attempted, self.cli.run, argv) if tracer else self.cli.run(argv)
                except Exception as exc:  # a traceback out of the CLI is a failed op
                    rc = f"raised {exc!r}"
                dt = time.perf_counter() - t0
            refs.append(time_references({op.reference, ops[min(slot + 1, len(ops) - 1)].reference}))
            self.attempted += 1
            seconds.append(dt)
            summary = None
            if rc != 0:
                error = f"exit {rc}: {sink.getvalue().strip()[-300:]}"
            else:
                try:
                    summary = getattr(checks, f"check_{op.check}")(out, **op.check_args)
                    error = None
                except Exception as exc:  # any malformed output fails the op
                    error = f"check: {exc}"
            if error is None and self.first_round is not None and summary != self.first_round[slot]:
                error = "outputs differ from the first round's"
            if error is not None:
                self.failed += 1
                self.errors.append(f"op {slot} ({op.kind}): {error}")
            summaries.append(summary)
            for p in out.iterdir() if out.is_dir() else ():
                files += 1
                nbytes += p.stat().st_size
        if self.first_round is None:
            self.first_round = summaries
        return {"op_seconds": seconds, "ref_seconds": refs, "files": files, "bytes": nbytes}


def best_op_seconds(rounds: list[dict]) -> list[float]:
    """Each op's fastest wall time over the rounds."""
    return [min(times) for times in zip(*(r["op_seconds"] for r in rounds))]


def op_ref_seconds(ops: list[Op], rounds: list[dict]) -> list[float]:
    """Each op's time in reference seconds.

    In every round an op's wall time is divided by the mean of its reference
    loop's times just before and just after it; the op's figure is the median
    of these ratios over the rounds, times the loop's nominal seconds.
    """
    figures = []
    for i, op in enumerate(ops):
        ref = op.reference
        ratios = [r["op_seconds"][i] / (0.5 * (r["ref_seconds"][i][ref] + r["ref_seconds"][i + 1][ref]))
                  for r in rounds]
        figures.append(REFERENCES[ref][1] * statistics.median(ratios))
    return figures


def set_up(name: str, seed: int, inputs: Path) -> float:
    """Make the workload's inputs in a fresh process; returns its wall time."""
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    t0 = time.perf_counter()
    # No timeout: with one, Popen.wait polls and adds up to 50 ms to the time.
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", name, "--seed", str(seed),
         "--inputs", os.path.relpath(inputs, ROOT)],
        cwd=ROOT, check=True,
    )
    return time.perf_counter() - t0


def tree_digest(top: Path) -> str:
    """SHA-256 over the names and contents of the files under top."""
    h = hashlib.sha256()
    for p in sorted(top.rglob("*")):
        if p.is_file():
            with p.open("rb") as fh:  # streamed: the process's peak memory is a metric
                h.update(str(p.relative_to(top)).encode() + b"\0"
                         + hashlib.file_digest(fh, "sha256").digest())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    inputs = workdir / "inputs"
    setup_times = [set_up(name, seed, inputs)]
    inputs_sha256 = tree_digest(inputs)

    def set_up_again() -> None:
        # Between rounds, so rewriting the inputs in place disturbs no op.
        setup_times.append(set_up(name, seed, inputs))
        if tree_digest(inputs) != inputs_sha256:
            raise RuntimeError(f"set-up {len(setup_times)} wrote other inputs than the first")

    raw = json.loads((inputs / "plan.json").read_text())
    plan = Plan([Op(**op) for op in raw["ops"]], raw["info"])
    modules = import_suplab()

    runner = Runner(modules["cli"], plan, workdir)
    tracer = tracing.Tracer() if trace else None
    untraced, traced, layer_rounds = [], [], []
    busy = 0.0  # seconds spent in rounds; the later set-ups come on top
    while True:
        t0 = time.perf_counter()
        untraced.append(runner.run_round())
        if tracer is not None:
            first_span = len(tracer.spans)
            tracer.install(modules)
            try:
                r = runner.run_round(tracer)
            finally:
                tracer.uninstall()
            traced.append(r)
            layer_rounds.append(tracing.layer_metrics(
                tracer.spans[first_span:], len(plan.ops), r["files"], r["bytes"]))
        round_time = time.perf_counter() - t0
        busy += round_time
        # The later set-ups are spread over the run, like the rounds, so that
        # one slow spell of the host cannot cover all of them.
        if len(setup_times) < SETUPS and busy >= seconds * len(setup_times) / SETUPS:
            set_up_again()
        if busy + round_time > seconds:
            break
    while len(setup_times) < SETUPS:
        set_up_again()

    costs = op_ref_seconds(plan.ops, untraced)
    run_s = sum(costs)
    best = best_op_seconds(untraced)
    round_seconds = [sum(r["op_seconds"]) for r in untraced]
    result = {
        "setup_seconds": setup_times,
        "inputs_sha256": inputs_sha256,
        "rounds": len(untraced),
        "ops_per_round": len(plan.ops),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_op_ratio": runner.failed / runner.attempted,
        "errors": runner.errors[:20],
        "round_seconds": round_seconds,
        "ref_ms_median": {
            name: 1e3 * statistics.median(t[name] for r in untraced for t in r["ref_seconds"] if name in t)
            for name in {op.reference for op in plan.ops}
        },
        # Raw wall times beside the reference-second figures: each op's
        # fastest, and the cold first and the median round, so a gain that
        # only warm repeats in one process get shows.
        "run_s_best_wall": sum(best),
        "run_s_first_round": round_seconds[0],
        "run_s_median_round": statistics.median(round_seconds),
        "op_ref_ms": [[op.kind, 1e3 * t] for op, t in zip(plan.ops, costs)],
        "op_best_ms": [[op.kind, 1e3 * t] for op, t in zip(plan.ops, best)],
        "op_first_ms": [[op.kind, 1e3 * t] for op, t in zip(plan.ops, untraced[0]["op_seconds"])],
        "summaries": [
            {"slot": i, "kind": op.kind, "summary": s}
            for i, (op, s) in enumerate(zip(plan.ops, runner.first_round))
        ],
        "end_to_end": {
            "run_s": run_s,
            "op_p50_ms": 1e3 * nearest_rank(costs, 0.5),
            "op_p90_ms": 1e3 * nearest_rank(costs, 0.9),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if "misses_requested" in plan.info:
        result["misses_per_s"] = plan.info["misses_requested"] / run_s
    if tracer is not None:
        result["traced_round_seconds"] = [sum(r["op_seconds"]) for r in traced]
        result["per_layer"] = tracing.best_of_rounds(layer_rounds)
        result["per_layer"]["trace_overhead_ratio"] = sum(op_ref_seconds(plan.ops, traced)) / run_s - 1.0
        tracer.write_jsonl(workdir / "spans.jsonl")
    return result


def git_rev() -> str | None:
    """HEAD's commit; None in a checkout without git."""
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over src/'s Python files, which identifies the code without git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def provenance(seed: int, threads_env: str | None) -> dict:
    import numpy

    return {
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "suplab_threads": "unset",
        "suplab_threads_in_caller_env": threads_env,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "suplab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no suplab source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    threads_env = os.environ.pop("SUPLAB_THREADS", None)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Exception as exc:  # set-up or the harness broke: no result line
        print(f"perfbench: run failed: {exc!r}", file=sys.stderr)
        return 2

    values = result["per_layer"] if args.trace else result["end_to_end"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result["provenance"] = provenance(args.seed, threads_env)
    result["metrics"] = metrics
    (workdir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    summaries = json.dumps(result["summaries"], sort_keys=True)
    extra = f" misses_per_s={result['misses_per_s']:.6g}" if "misses_per_s" in result else ""
    print(
        f"perfbench: workload={args.workload} seed={args.seed} rounds={result['rounds']}"
        f" ops={result['attempted']} failed_op_ratio={result['failed_op_ratio']:.6g}{extra}"
        f" summary_sha256={hashlib.sha256(summaries.encode()).hexdigest()}"
        f" result={workdir.relative_to(ROOT) / 'result.json'}"
    )
    for error in result["errors"]:
        print(f"perfbench: FAILED {error}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
