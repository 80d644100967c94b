"""Spans recorded from outside suplab, around the public functions the CLI calls.

The traced run replaces module attributes (``suplab.tiersim.simulate`` and so
on) with timing wrappers and puts the originals back afterwards.  Calls made
through the module attribute are seen, which includes calls one suplab
function makes to another in the same module (``compare_policies`` calling
``simulate``, ``estimate_accuracy`` calling ``decompose``).  Names a module
imported with ``from x import y`` are not seen; that is the CLI's view of the
layers, which is what this benchmark measures.

Spans are kept in memory and written out when the run ends.  A span's self
time is its duration minus the durations of its direct children; calls are
sequential, so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


def _len_result(args, kwargs, result):
    return {"n": len(result)}


def _simulated(args, kwargs, result):
    trace = args[0] if args else kwargs["trace"]
    return {
        "n": sum(len(e.demand_misses) for e in trace.epochs),
        "promotions": result.promotions,
        "demotions": result.demotions,
    }


def _pairs_read(args, kwargs, result):
    return {"n": len(result[0])}


def _runs_fitted(args, kwargs, result):
    runs = args[0] if args else kwargs["runs"]
    return {"n": len(runs)}


# (layer, attribute, count function or None).  The layer is the suplab module
# of that name and the span name is "<layer>.<attribute>".  A count function
# maps (args, kwargs, result) to a dict of counts; "n" is the main one.
WRAPPED = (
    ("tiersim", "read_trace", None),
    ("tiersim", "compare_policies", None),
    ("tiersim", "simulate", _simulated),
    ("tiersim", "write_epoch_report_csv", None),
    ("counters", "ingest_counter_log", _len_result),
    ("counters", "read_run_pairs", _pairs_read),
    ("counters", "write_counter_log", None),
    ("breakdown", "decompose", None),
    ("breakdown", "estimate_accuracy", None),
    ("breakdown", "write_report_csv", None),
    ("breakdown", "write_report_long_csv", None),
    ("model", "predict", None),
    ("model", "write_predictions_csv", None),
    ("calibrate", "read_calibration_csv", _len_result),
    ("calibrate", "fit_sequential", _runs_fitted),
    ("calibrate", "fit_least_squares", None),
    ("interleave", "scan_ratios", _len_result),
    ("interleave", "forecast", None),
    ("interleave", "write_scan_csv", None),
    ("interleave", "write_forecast_csv", None),
    ("devmodel", "sample_latencies", _len_result),
    ("devmodel", "latency_percentiles", None),
    ("devmodel", "write_latency_samples_csv", None),
)

OP_SPAN = "cli.run"


class Span:
    __slots__ = ("span_id", "parent_id", "op_id", "name", "start", "end", "counts")

    def __init__(self, span_id, parent_id, op_id, name):
        self.span_id = span_id
        self.parent_id = parent_id
        self.op_id = op_id
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.counts = None

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id, "parent_id": self.parent_id, "op_id": self.op_id,
            "name": self.name, "start": self.start, "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Records nested spans in memory; one tracer per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op_id = None
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self._op_id, name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def op(self, op_id: int, fn, *args):
        """Run one CLI op under a root span; returns fn's result."""
        self._op_id = op_id
        span = self._open(OP_SPAN)
        span.start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._op_id = None

    def wrap(self, fn, name: str, count_fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if count_fn is not None:
                span.counts = count_fn(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every entry of WRAPPED on the given {layer: module} dict."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, attr, count_fn in WRAPPED:
            module = modules[layer]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, f"{layer}.{attr}", count_fn))

    def uninstall(self) -> None:
        """Put back every attribute install() replaced."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path: Path) -> None:
        with Path(path).open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: duration minus its direct children's durations."""
    child = defaultdict(float)
    for s in spans:
        if s.parent_id is not None:
            child[s.parent_id] += s.end - s.start
    return {s.span_id: (s.end - s.start) - child[s.span_id] for s in spans}


def _per_s(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def best_of_rounds(rounds: list[dict]) -> dict:
    """Each per-layer metric at its best over the traced rounds.

    Times take their minimum and rates their maximum, in wall seconds like
    run.best_op_seconds.  Counts repeat exactly from round to round, so either
    choice gives the same value.
    """
    return {
        k: (max if k.endswith("_per_s") else min)(r[k] for r in rounds)
        for k in rounds[0]
    }


def layer_metrics(spans: list[Span], ops: int, files_written: int, bytes_written: int) -> dict:
    """Per-layer metrics of one traced round, keyed by BENCHMARK.json names."""
    selft = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for s in spans:
        self_s[s.name] += selft[s.span_id]
        calls[s.name] += 1
        for key, value in (s.counts or {}).items():
            counts[s.name if key == "n" else f"{s.name}.{key}"] += value

    return {
        "cli.self_s": self_s[OP_SPAN],
        "cli.ops": ops,
        "cli.files_written": files_written,
        "cli.bytes_written": bytes_written,
        "tiersim.simulate_s": self_s["tiersim.simulate"],
        "tiersim.simulate_calls": calls["tiersim.simulate"],
        "tiersim.misses_simulated": counts["tiersim.simulate"],
        "tiersim.sim_misses_per_s": _per_s(counts["tiersim.simulate"], self_s["tiersim.simulate"]),
        "tiersim.read_trace_s": self_s["tiersim.read_trace"],
        "tiersim.compare_policies_s": self_s["tiersim.compare_policies"],
        "tiersim.write_epoch_report_csv_s": self_s["tiersim.write_epoch_report_csv"],
        "tiersim.promotions": counts["tiersim.simulate.promotions"],
        "tiersim.demotions": counts["tiersim.simulate.demotions"],
        "counters.ingest_counter_log_s": self_s["counters.ingest_counter_log"],
        "counters.rows_ingested": counts["counters.ingest_counter_log"],
        "counters.rows_per_s": _per_s(counts["counters.ingest_counter_log"],
                                      self_s["counters.ingest_counter_log"]),
        "counters.read_run_pairs_s": self_s["counters.read_run_pairs"],
        "counters.pairs_read": counts["counters.read_run_pairs"],
        "counters.write_counter_log_s": self_s["counters.write_counter_log"],
        "breakdown.decompose_s": self_s["breakdown.decompose"],
        "breakdown.decompose_calls": calls["breakdown.decompose"],
        "breakdown.decompose_per_pair": (
            calls["breakdown.decompose"] / counts["counters.read_run_pairs"]
            if counts["counters.read_run_pairs"] else 0.0
        ),
        "breakdown.estimate_accuracy_s": self_s["breakdown.estimate_accuracy"],
        "breakdown.write_csv_s": (self_s["breakdown.write_report_csv"]
                                  + self_s["breakdown.write_report_long_csv"]),
        "model.predict_s": self_s["model.predict"],
        "model.predict_calls": calls["model.predict"],
        "model.write_predictions_csv_s": self_s["model.write_predictions_csv"],
        "calibrate.read_calibration_csv_s": self_s["calibrate.read_calibration_csv"],
        "calibrate.fit_sequential_s": self_s["calibrate.fit_sequential"],
        "calibrate.fit_least_squares_s": self_s["calibrate.fit_least_squares"],
        "calibrate.runs_fitted": counts["calibrate.fit_sequential"],
        "interleave.scan_ratios_s": self_s["interleave.scan_ratios"],
        "interleave.scan_points": counts["interleave.scan_ratios"],
        "interleave.forecast_s": self_s["interleave.forecast"],
        "interleave.forecast_calls": calls["interleave.forecast"],
        "interleave.write_csv_s": (self_s["interleave.write_scan_csv"]
                                   + self_s["interleave.write_forecast_csv"]),
        "devmodel.sample_latencies_s": self_s["devmodel.sample_latencies"],
        "devmodel.samples_drawn": counts["devmodel.sample_latencies"],
        "devmodel.latency_percentiles_s": self_s["devmodel.latency_percentiles"],
        "devmodel.write_latency_samples_csv_s": self_s["devmodel.write_latency_samples_csv"],
    }
