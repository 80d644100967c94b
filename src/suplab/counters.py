"""Counter data model, log ingestion, and derived per-run metrics.

A :class:`CounterSnapshot` is one measurement window's PMU counter vector,
already delta'd (wraparound handling is out of scope).  All downstream
models consume either a single snapshot or a local/remote
:class:`RunPair`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import (
    EmptyInput,
    InvariantViolation,
    MalformedRecord,
    MissingColumn,
    NegativeValue,
    NoDemandReads,
    ZeroDenominator,
    require_finite,
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

# Each backend stall source and the counter that measures its stall cycles.
STALL_COUNTERS = {
    "store": "store_buffer_full_stall_cycles",
    "L1": "stall_l1",
    "L2": "stall_l2",
    "L3": "stall_l3",
    "DRAM": "llc_miss_demand_stall_cycles",
}
STALL_SOURCES = tuple(STALL_COUNTERS)


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
            if not 0 <= v < math.inf:   # negative, NaN or infinite
                require_finite(self)
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
    return {src: getattr(s, f) / c for src, f in STALL_COUNTERS.items()}


def _real(raw, row: int, field: str) -> float:
    """A finite, non-negative real from a CSV cell."""
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRecord(row, f"non-numeric {field}={raw!r}") from None
    if not math.isfinite(value):
        raise MalformedRecord(row, f"non-finite {field}={raw!r}")
    if value < 0:
        raise NegativeValue(row, field)
    return value


def _count(raw, row: int, field: str) -> int:
    """An unsigned integer count from a CSV cell or a JSON value, read as text:
    ``1e3`` is a count, while ``true``, ``null`` and ``2.5`` are not."""
    text = str(raw)
    try:
        value = int(text)
    except ValueError:
        value = _real(text, row, field)
        if not value.is_integer():
            raise MalformedRecord(row, f"non-integer count {field}={raw!r}") from None
        return int(value)
    if value < 0:
        raise NegativeValue(row, field)
    return value


def _snapshot(record: dict, row: int, convert=_count, prefix: str = "") -> CounterSnapshot:
    return CounterSnapshot(
        **{f: convert(record[prefix + f], row, prefix + f) for f in COUNTER_FIELDS}
    )


def _header(names: Iterable, required: Iterable[str]) -> list[str]:
    """Column names stripped and lower-cased, with every required one present
    and none repeated (a header error, reported as row 0)."""
    names = [str(n).strip().lower() for n in names]
    for name in required:
        if name not in names:
            raise MissingColumn(name)
    if len(set(names)) < len(names):
        repeated = next(n for i, n in enumerate(names) if n in names[:i])
        raise MalformedRecord(0, f"repeated column {repeated}")
    return names


def _csv_records(path: Path, required: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """(row number from 1, record) for each data row of a CSV file whose
    header holds every ``required`` column; a row with the wrong number of
    fields raises :class:`MalformedRecord`."""
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None:
                raise EmptyInput(f"{path}: no header row")
            reader.fieldnames = _header(reader.fieldnames, required)
            for row, record in enumerate(reader, start=1):
                if None in record or None in record.values():
                    raise MalformedRecord(row, "wrong number of fields")
                yield row, record
        except (UnicodeDecodeError, csv.Error) as exc:
            raise MalformedRecord(0, f"{path} is not a CSV text file: {exc}") from None


def _json_records(path: Path) -> Iterator[tuple[int, dict]]:
    """(row number from 1, record) for each object of a JSON array.  The
    first object's keys serve as the header: they must name every counter,
    and every object must have the same keys."""
    try:
        records = json.loads(path.read_text())
    except ValueError as exc:   # JSONDecodeError or UnicodeDecodeError
        raise MalformedRecord(0, f"{path} is not valid JSON: {exc}") from None
    if not isinstance(records, list):
        raise MalformedRecord(0, "top-level JSON value must be an array")
    header = None
    for row, rec in enumerate(records, start=1):
        if not isinstance(rec, dict):
            raise MalformedRecord(row, "record is not an object")
        keys = _header(rec, COUNTER_FIELDS if header is None else ())
        if header is None:
            header = set(keys)
        elif set(keys) != header:
            raise MalformedRecord(row, "keys differ from the first record's")
        yield row, dict(zip(keys, rec.values()))


def ingest_counter_log(path: str | Path, format: str = "csv") -> list[CounterSnapshot]:
    """Parse a counter log into validated snapshots, one per row/record."""
    path = Path(path)
    if format == "csv":
        records = _csv_records(path, COUNTER_FIELDS)
    elif format == "json":
        records = _json_records(path)
    else:
        raise ValueError(f"unknown format: {format!r}")
    return [_snapshot(record, row) for row, record in records]


def write_counter_log(
    snapshots: Sequence[CounterSnapshot], path: str | Path, format: str = "csv"
) -> None:
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format: {format!r}")
    # The interchange schema carries unsigned integer counts.
    rows = [[int(round(getattr(s, f))) for f in COUNTER_FIELDS] for s in snapshots]
    path = Path(path)
    if format == "json":
        payload = [dict(zip(COUNTER_FIELDS, row)) for row in rows]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNTER_FIELDS)
        writer.writerows(rows)


@dataclass(frozen=True)
class RunPair:
    """The same workload phase measured on local memory and on a remote tier."""

    label: str
    local: CounterSnapshot
    remote: CounterSnapshot
    local_runtime: float
    remote_runtime: float

    def __post_init__(self):
        require_finite(self)
        if self.local_runtime <= 0 or self.remote_runtime <= 0:
            raise InvariantViolation("runtimes must be > 0")
        ref = max(self.local.instructions, self.remote.instructions)
        if ref > 0:
            drift = abs(self.local.instructions - self.remote.instructions) / ref
            if drift > 0.01:
                raise InvariantViolation(
                    f"snapshots cover different phases: instruction counts differ by {drift:.1%}"
                )


PAIR_FIELDS = ["label", "local_runtime", "remote_runtime"] + [
    f"{side}_{f}" for side in ("local", "remote") for f in COUNTER_FIELDS
]


def write_run_pairs(pairs: Sequence[RunPair], path: str | Path, extra: dict[str, Sequence[str]] | None = None) -> None:
    """Write pairs as CSV; ``extra`` adds leading columns (e.g. calibration kind)."""
    path = Path(path)
    extra = extra or {}
    header = list(extra.keys()) + PAIR_FIELDS
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
    extra_columns = list(extra_columns)
    pairs: list[RunPair] = []
    extras: dict[str, list[str]] = {k: [] for k in extra_columns}
    for row, record in _csv_records(Path(path), extra_columns + PAIR_FIELDS):
        pairs.append(RunPair(
            label=record["label"],
            local=_snapshot(record, row, _real, "local_"),
            remote=_snapshot(record, row, _real, "remote_"),
            local_runtime=_real(record["local_runtime"], row, "local_runtime"),
            remote_runtime=_real(record["remote_runtime"], row, "remote_runtime"),
        ))
        for k in extra_columns:
            extras[k].append(record[k])
    return pairs, extras
