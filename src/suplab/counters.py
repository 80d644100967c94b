"""Counter data model, log ingestion, and derived per-run metrics.

A :class:`CounterSnapshot` is one measurement window's PMU counter vector,
already delta'd (wraparound handling is out of scope).  All downstream
models consume either a single snapshot or a local/remote
:class:`RunPair`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    EmptyInput,
    InvariantViolation,
    MalformedRecord,
    MissingColumn,
    NegativeValue,
    NoDemandReads,
    ZeroDenominator,
)

# Canonical column order for the CSV/JSON interchange format.
COUNTER_FIELDS = (
    "total_cycles",
    "stall_cycles_total",
    "backend_stall_cycles",
    "mem_stall_cycles",
    "llc_miss_demand_stall_cycles",
    "l1_demand_hits",
    "lfb_hits",
    "store_buffer_full_stall_cycles",
    "stall_l1",
    "stall_l2",
    "stall_l3",
    "offcore_demand_requests",
    "offcore_demand_occupancy",
    "l1_prefetch_l3_miss",
    "l1_prefetch_total",
    "l2_prefetch_l3_miss",
    "l2_prefetch_l3_hit",
    "instructions",
)

STALL_SOURCES = ("store", "L1", "L2", "L3", "DRAM")


@dataclass(frozen=True)
class CounterSnapshot:
    """One run's counter vector over a measurement window.

    Counts are window-relative deltas.  Ingested logs carry unsigned
    integers; synthesized snapshots may carry exact real values.
    """

    total_cycles: float
    stall_cycles_total: float
    backend_stall_cycles: float
    mem_stall_cycles: float              # stalls bound on L2-or-beyond
    llc_miss_demand_stall_cycles: float  # demand-read LLC-miss stalls
    l1_demand_hits: float
    lfb_hits: float
    store_buffer_full_stall_cycles: float
    stall_l1: float
    stall_l2: float
    stall_l3: float
    offcore_demand_requests: float
    offcore_demand_occupancy: float      # cycles with demand reads outstanding
    l1_prefetch_l3_miss: float
    l1_prefetch_total: float
    l2_prefetch_l3_miss: float
    l2_prefetch_l3_hit: float
    instructions: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v < 0:
                raise InvariantViolation(f"{f.name} must be >= 0, got {v}")
        if self.stall_cycles_total > self.total_cycles * (1 + 1e-12):
            raise InvariantViolation("stall_cycles_total exceeds total_cycles")
        if self.backend_stall_cycles > self.stall_cycles_total * (1 + 1e-12):
            raise InvariantViolation("backend_stall_cycles exceeds stall_cycles_total")
        if self.llc_miss_demand_stall_cycles > self.mem_stall_cycles * (1 + 1e-12):
            raise InvariantViolation(
                "llc_miss_demand_stall_cycles exceeds mem_stall_cycles"
            )
        if self.mem_stall_cycles > self.backend_stall_cycles * (1 + 1e-12):
            raise InvariantViolation("mem_stall_cycles exceeds backend_stall_cycles")
        if self.offcore_demand_requests > 0 and (
            self.offcore_demand_occupancy < self.offcore_demand_requests
        ):
            raise InvariantViolation(
                "offcore_demand_occupancy below offcore_demand_requests "
                "(each request is outstanding for at least one cycle)"
            )

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in COUNTER_FIELDS}

    def scaled(self, factor: float) -> "CounterSnapshot":
        """Every counter multiplied by ``factor`` (window rescaling)."""
        return replace(self, **{k: v * factor for k, v in self.as_dict().items()})


def amortized_offcore_latency(s: CounterSnapshot) -> float:
    """Mean cycles an offcore demand read keeps the core waiting.

    Occupancy over request count; overlapped reads share occupancy cycles,
    so high memory-level parallelism drives this down.
    """
    if s.offcore_demand_requests == 0:
        raise NoDemandReads("no offcore demand reads in window")
    return s.offcore_demand_occupancy / s.offcore_demand_requests


def stall_fractions(s: CounterSnapshot) -> dict[str, float]:
    """Per-source stall cycles as fractions of total cycles."""
    c = s.total_cycles
    if c == 0:
        raise ZeroDenominator("total_cycles is zero")
    return {
        "store": s.store_buffer_full_stall_cycles / c,
        "L1": s.stall_l1 / c,
        "L2": s.stall_l2 / c,
        "L3": s.stall_l3 / c,
        "DRAM": s.llc_miss_demand_stall_cycles / c,
    }


def _coerce_count(raw: str, row: int, field: str) -> int:
    text = raw.strip()
    try:
        value = int(text)
    except ValueError:
        try:
            as_float = float(text)
        except ValueError:
            raise MalformedRecord(row, f"non-numeric {field}={raw!r}") from None
        if not as_float.is_integer():
            raise MalformedRecord(row, f"non-integer count {field}={raw!r}") from None
        value = int(as_float)
    if value < 0:
        raise NegativeValue(row, field)
    return value


def _snapshot_from_mapping(record: dict, row: int) -> CounterSnapshot:
    lowered = {str(k).strip().lower(): v for k, v in record.items()}
    values = {}
    for name in COUNTER_FIELDS:
        if name not in lowered or lowered[name] in (None, ""):
            raise MissingColumn(name)
        raw = lowered[name]
        if isinstance(raw, str):
            values[name] = _coerce_count(raw, row, name)
        else:
            if raw < 0:
                raise NegativeValue(row, name)
            values[name] = raw
    return CounterSnapshot(**values)


def ingest_counter_log(path: str | Path, format: str = "csv") -> list[CounterSnapshot]:
    """Parse a counter log into validated snapshots, one per row/record."""
    path = Path(path)
    if format == "csv":
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise EmptyInput(f"{path}: no header row")
            header = {h.strip().lower() for h in reader.fieldnames}
            for name in COUNTER_FIELDS:
                if name not in header:
                    raise MissingColumn(name)
            out = []
            for row_idx, record in enumerate(reader, start=1):
                if None in record or None in record.values():
                    raise MalformedRecord(row_idx, "wrong number of fields")
                out.append(_snapshot_from_mapping(record, row_idx))
            return out
    if format == "json":
        try:
            records = json.loads(path.read_text())
        except ValueError as exc:   # JSONDecodeError or UnicodeDecodeError
            raise MalformedRecord(0, f"{path} is not valid JSON: {exc}") from None
        if not isinstance(records, list):
            raise MalformedRecord(0, "top-level JSON value must be an array")
        out = []
        for idx, rec in enumerate(records, start=1):
            if not isinstance(rec, dict):
                raise MalformedRecord(idx, "record is not an object")
            out.append(_snapshot_from_mapping(rec, idx))
        return out
    raise ValueError(f"unknown format: {format!r}")


def _format_count(v: float) -> str:
    # Interchange schema carries unsigned integer counts.
    return str(int(round(v)))


def write_counter_log(
    snapshots: Sequence[CounterSnapshot], path: str | Path, format: str = "csv"
) -> None:
    path = Path(path)
    if format == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(COUNTER_FIELDS)
            for s in snapshots:
                writer.writerow([_format_count(getattr(s, f)) for f in COUNTER_FIELDS])
        return
    if format == "json":
        payload = [
            {f: int(round(getattr(s, f))) for f in COUNTER_FIELDS} for s in snapshots
        ]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    raise ValueError(f"unknown format: {format!r}")


@dataclass(frozen=True)
class RunPair:
    """The same workload phase measured on local memory and on a remote tier."""

    label: str
    local: CounterSnapshot
    remote: CounterSnapshot
    local_runtime: float
    remote_runtime: float

    def __post_init__(self):
        if self.local_runtime <= 0 or self.remote_runtime <= 0:
            raise InvariantViolation("runtimes must be > 0")
        ref = max(self.local.instructions, self.remote.instructions)
        if ref > 0:
            drift = abs(self.local.instructions - self.remote.instructions) / ref
            if drift > 0.01:
                raise InvariantViolation(
                    f"snapshots cover different phases: instruction counts differ by {drift:.1%}"
                )


PAIR_META_FIELDS = ("label", "local_runtime", "remote_runtime")


def _pair_header() -> list[str]:
    cols = list(PAIR_META_FIELDS)
    cols += [f"local_{f}" for f in COUNTER_FIELDS]
    cols += [f"remote_{f}" for f in COUNTER_FIELDS]
    return cols


def write_run_pairs(pairs: Sequence[RunPair], path: str | Path, extra: dict[str, Sequence[str]] | None = None) -> None:
    """Write pairs as CSV; ``extra`` adds leading columns (e.g. calibration kind)."""
    path = Path(path)
    extra = extra or {}
    header = list(extra.keys()) + _pair_header()
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, p in enumerate(pairs):
            row = [extra[k][i] for k in extra]
            row += [p.label, repr(float(p.local_runtime)), repr(float(p.remote_runtime))]
            row += [repr(float(getattr(p.local, f))) for f in COUNTER_FIELDS]
            row += [repr(float(getattr(p.remote, f))) for f in COUNTER_FIELDS]
            writer.writerow(row)


def read_run_pairs(path: str | Path, extra_columns: Iterable[str] = ()) -> tuple[list[RunPair], dict[str, list[str]]]:
    """Read a pairs CSV; returns (pairs, extra column values)."""
    path = Path(path)
    extra_columns = list(extra_columns)
    pairs: list[RunPair] = []
    extras: dict[str, list[str]] = {k: [] for k in extra_columns}
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyInput(f"{path}: no header row")
        lowered = {h.strip().lower() for h in reader.fieldnames}
        for col in extra_columns + list(PAIR_META_FIELDS):
            if col not in lowered:
                raise MissingColumn(col)
        for row_idx, record in enumerate(reader, start=1):
            rec = {str(k).strip().lower(): v for k, v in record.items()}
            try:
                local = CounterSnapshot(
                    **{f: float(rec[f"local_{f}"]) for f in COUNTER_FIELDS}
                )
                remote = CounterSnapshot(
                    **{f: float(rec[f"remote_{f}"]) for f in COUNTER_FIELDS}
                )
                pair = RunPair(
                    label=rec["label"],
                    local=local,
                    remote=remote,
                    local_runtime=float(rec["local_runtime"]),
                    remote_runtime=float(rec["remote_runtime"]),
                )
            except KeyError as exc:
                raise MissingColumn(str(exc)) from None
            except (TypeError, ValueError) as exc:
                raise MalformedRecord(row_idx, str(exc)) from None
            pairs.append(pair)
            for k in extra_columns:
                extras[k].append(rec[k])
    return pairs, extras
