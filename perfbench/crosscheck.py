"""Compare a traced run's spans with the ROADMAP baseline table.

    python3 perfbench/run.py --workload tiersim_traces --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload counter_pipeline --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload interleave_latency --seed 1 --seconds 30 --trace 1
    python3 perfbench/crosscheck.py --seed 1

Each row takes the fastest matching span over the traced rounds and flags a
ratio to the baseline outside [1/2, 2].  The baseline table was measured at
the ROADMAP re-anchor on the full fixture traces; this benchmark cuts them
to about a seventh of their epochs (workloads.TRACE_EPOCHS), so per-miss
rates are compared, not times.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (row, workload, baseline value, unit) from the ROADMAP baseline table.
BASELINE = (
    ("simulate alto two_phase", "tiersim_traces", 198e3 / 0.20, "misses/s"),
    ("simulate alto deep_overlap", "tiersim_traces", 483e3 / 0.45, "misses/s"),
    ("simulate alto no_overlap", "tiersim_traces", 83e3 / 0.23, "misses/s"),
    ("ingest_counter_log CSV", "counter_pipeline", 21e3, "rows/s"),
    ("scan_ratios grid 101", "interleave_latency", 1.7e-3, "s"),
    ("sample_latencies 1M", "interleave_latency", 58e-3, "s"),
    ("latency_percentiles 1M", "interleave_latency", 12e-3, "s"),
)


def load(workload: str, seed: int):
    workdir = ROOT / ".perfbench_work" / f"{workload}-seed{seed}-trace1"
    result = json.loads((workdir / "result.json").read_text())
    kinds = [s["kind"] for s in result["summaries"]]
    ops = defaultdict(list)
    with (workdir / "spans.jsonl").open() as fh:
        for line in fh:
            span = json.loads(line)
            ops[span["op_id"]].append(span)
    return [(kinds[op_id % len(kinds)], spans) for op_id, spans in sorted(ops.items())]


def measure(row: str, ops) -> float:
    best = float("inf")
    for kind, spans in ops:
        named = defaultdict(list)
        for s in spans:
            named[s["name"]].append(s)
        if row.startswith("simulate alto"):
            if kind != "tiersim_" + row.split()[-1]:
                continue
            # One all-fast baseline, then compare_policies' and the CLI's runs
            # of first_touch, tpp and alto: alto is every third after the first.
            for s in named["tiersim.simulate"][3::3]:
                best = min(best, (s["end"] - s["start"]) / s["counts"]["n"])
        elif row.startswith("ingest"):
            if kind == "ingest_csv":
                for s in named["counters.ingest_counter_log"]:
                    best = min(best, (s["end"] - s["start"]) / s["counts"]["n"])
        elif row.startswith("scan_ratios"):
            for s in named["interleave.scan_ratios"]:
                if s["counts"]["n"] == 101:
                    best = min(best, s["end"] - s["start"])
        else:
            sampled = named["devmodel.sample_latencies"]
            if not sampled or sampled[0]["counts"]["n"] != 1_000_000:
                continue
            name = "devmodel." + row.split()[0]
            best = min(best, min(s["end"] - s["start"] for s in named[name]))
    return 1.0 / best if row.startswith(("simulate", "ingest")) else best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    cache = {}
    print("| row | baseline | this run | ratio |\n| --- | --- | --- | --- |")
    for row, workload, base, unit in BASELINE:
        if workload not in cache:
            cache[workload] = load(workload, args.seed)
        got = measure(row, cache[workload])
        ratio = got / base
        flag = "" if 0.5 <= ratio <= 2.0 else " **off by more than 2x**"
        print(f"| {row} | {base:.4g} {unit} | {got:.4g} {unit} | {ratio:.2f}{flag} |")


if __name__ == "__main__":
    main()
