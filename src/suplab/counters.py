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
from collections import deque
from dataclasses import dataclass, fields, replace
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (FLOAT_MAX, LIMIT_OPS, EmptyInput, InvariantViolation, MalformedRecord,
                     MissingColumn, Checked, NegativeValue, NoDemandReads, SupLabError,
                     ZeroDenominator, dump_json, require_finite_values, write_table)

# Each backend stall source and the counter that measures its stall cycles.
STALL_COUNTERS = {
    "store": "store_buffer_full_stall_cycles",
    "L1": "stall_l1",
    "L2": "stall_l2",
    "L3": "stall_l3",
    "DRAM": "llc_miss_demand_stall_cycles",
}
STALL_SOURCES = tuple(STALL_COUNTERS)
EXACT_MAX = 2**53 - 1            # an integer count past it may not convert to float exactly

# CounterSnapshot's ordering invariants: each (field, bound) holds field <= bound * _SLACK.
_SLACK = 1 + 1e-12
_BOUNDED_BY = (("stall_cycles_total", "total_cycles"),
               ("backend_stall_cycles", "stall_cycles_total"),
               ("llc_miss_demand_stall_cycles", "mem_stall_cycles"),
               ("mem_stall_cycles", "backend_stall_cycles"))


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
        _enforce(_snapshot_rules(vars(self)))

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in COUNTER_FIELDS}

    def scaled(self, factor: float) -> "CounterSnapshot":
        """Every counter multiplied by ``factor`` (window rescaling)."""
        return replace(self, **{k: v * factor for k, v in self.as_dict().items()})


# Canonical column order for the CSV/JSON interchange format.
COUNTER_FIELDS = tuple(f.name for f in fields(CounterSnapshot))


def _snapshot_rules(c):
    """CounterSnapshot's rules in order, drawn lazily as (holds, message): ``c``
    maps each counter to a number (``holds`` a bool) or a column (a row mask);
    ``message()``, called before the next draw, is the error text."""
    for name in COUNTER_FIELDS:   # first, so no count past the float range meets _SLACK
        v = c[name]
        yield (0 <= v) & (v <= FLOAT_MAX), lambda: (
            f"CounterSnapshot.{name} must be finite, got {v}" if isinstance(v, float) and not math.isfinite(v)
            else f"{name} must be >= 0, got {v}" if v < 0 else f"{name} exceeds the float range")
    for name, bound in _BOUNDED_BY:
        yield c[name] <= c[bound] * _SLACK, lambda: f"{name} exceeds {bound}"
    yield c["offcore_demand_requests"] <= c["offcore_demand_occupancy"], lambda: (
        "offcore_demand_occupancy below offcore_demand_requests (each request is outstanding for at least one cycle)")


def _enforce(rules) -> None:
    """Raise the first of ``rules``, drawn on numbers, that fails, as an InvariantViolation."""
    for holds, message in rules:
        if not holds:
            raise InvariantViolation(message())


@np.errstate(over="ignore", invalid="ignore")   # a failing row may overflow or make a NaN
def _passing(rules) -> np.ndarray:
    """The mask of a table's rows that pass all of ``rules``, drawn on its columns."""
    return np.logical_and.reduce([holds for holds, _ in rules])


def amortized_offcore_latency(s: CounterSnapshot) -> float:
    """Mean cycles an offcore demand read keeps the core waiting.

    Occupancy over request count; overlapped reads share occupancy cycles,
    so high memory-level parallelism drives this down.
    """
    if s.offcore_demand_requests == 0:
        raise NoDemandReads("no offcore demand reads in window")
    return s.offcore_demand_occupancy / s.offcore_demand_requests


def cycle_share(s: CounterSnapshot, cycles: float) -> float:
    """``cycles`` as a fraction of the snapshot's total cycles."""
    if s.total_cycles == 0:
        raise ZeroDenominator("total_cycles is zero")
    return cycles / s.total_cycles


def stall_fractions(s: CounterSnapshot) -> dict[str, float]:
    """Per-source stall cycles as fractions of total cycles."""
    return {src: cycle_share(s, getattr(s, f)) for src, f in STALL_COUNTERS.items()}


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
    if value > FLOAT_MAX:
        raise MalformedRecord(row, f"count {field} exceeds the float range")
    return value


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


def _built(cls, names: Sequence[str], values: Iterable):
    """An object of the frozen dataclass ``cls`` with these field values, made
    without its ``__init__`` and so without its checks: for a checked table.
    Fields are assigned one by one, as ``__init__`` does: filling ``__dict__``
    at once is faster but gives every object a dict of its own."""
    obj = object.__new__(cls)
    deque(map(object.__setattr__, repeat(obj), names, values), maxlen=0)
    return obj


def _csv_table(path: Path, required: Iterable[str]) -> tuple[list[str], list[list[str]], SupLabError | None]:
    """(header, data rows, defect) of a CSV file whose header holds every
    ``required`` column.  Blank lines are skipped and data rows count from 1;
    the first row with the wrong number of fields, or that is not CSV text,
    ends the rows and is the defect."""
    names, rows, defect = None, [], None
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader, None)
            if names is None:
                raise EmptyInput(f"{path}: no header row")
            names = _header(names, required)
            for cells in filter(None, reader):
                if len(cells) != len(names):
                    defect = MalformedRecord(len(rows) + 1, "wrong number of fields")
                    break
                rows.append(cells)
        except (UnicodeDecodeError, csv.Error) as exc:
            defect = MalformedRecord(0, f"{path} is not a CSV text file: {exc}")
            if names is None:
                raise defect from None
    return names, rows, defect


def _json_table(path: Path) -> tuple[list[tuple], SupLabError | None]:
    """(rows, defect) of a JSON array of objects: each object's COUNTER_FIELDS
    values, in that order.  The first object's keys serve as the header: they
    must name every counter, and every object must have the same keys."""
    try:
        records = json.loads(path.read_text())
    except ValueError as exc:   # JSONDecodeError or UnicodeDecodeError
        raise MalformedRecord(0, f"{path} is not valid JSON: {exc}") from None
    if not isinstance(records, list):
        raise MalformedRecord(0, "top-level JSON value must be an array")
    rows, first, header, get = [], None, None, None
    for row, rec in enumerate(records, start=1):
        try:
            if not isinstance(rec, dict):
                raise MalformedRecord(row, "record is not an object")
            if rec.keys() == first:   # the first object's keys, so its checked header
                rows.append(get(rec))
                continue
            names = _header(rec, COUNTER_FIELDS if header is None else ())
            if header is None:
                first, header = rec.keys(), set(names)
            elif set(names) != header:
                raise MalformedRecord(row, "keys differ from the first record's")
            pick = itemgetter(*map(dict(zip(names, rec)).__getitem__, COUNTER_FIELDS))
            get = get or pick
            rows.append(pick(rec))
        except SupLabError as exc:
            return rows, exc
    return rows, None


def _table(rows: Sequence[Sequence], plain, width: int) -> tuple[list, np.ndarray]:
    """(values, table): ``plain(cells)`` for each of a reader's rows and their float64
    table, which numpy fills as ``float()`` reads each value, text too.  A row that
    ``plain`` refuses (an empty row or a ValueError) or that float() cannot read is all
    NaN, so no rule passes it.  Every reader keeps one rule: a row that the
    constructors' rules pass, checked on the whole table, comes from the table; every
    other row goes through _count or _real and the constructors, in file order, which
    build it exactly or raise their error."""
    values, table = [], np.empty((len(rows), width))
    for i, cells in enumerate(rows):
        try:
            table[i] = value = plain(cells)
        except (ValueError, OverflowError):   # text, the wrong length, or an int past the float range
            table[i] = value = [math.nan] * width
        values.append(value)
    return values, table


def ingest_counter_log(path: str | Path, format: str = "csv") -> list[CounterSnapshot]:
    """Parse a counter log into validated snapshots, one per row/record, by _table's
    rule; plain cells are integer text or JSON integers (never bools) up to EXACT_MAX."""
    path = Path(path)
    if format == "csv":
        names, rows, defect = _csv_table(path, COUNTER_FIELDS)
        rows = list(map(itemgetter(*map(names.index, COUNTER_FIELDS)), rows))
        counts, table = _table(rows, lambda cells: [*map(int, cells)], len(COUNTER_FIELDS))
    elif format == "json":
        rows, defect = _json_table(path)
        counts, table = _table(rows, lambda values: values if {*map(type, values)} == {int} else (),
                               len(COUNTER_FIELDS))
    else:
        raise ValueError(f"unknown format: {format!r}")
    exact = (table <= EXACT_MAX).all(1)   # so float64 holds every count exactly
    snapshots = [_built(CounterSnapshot, COUNTER_FIELDS, c) for c in counts]
    for i in np.flatnonzero(~(_passing(_snapshot_rules(dict(zip(COUNTER_FIELDS, table.T)))) & exact)).tolist():
        snapshots[i] = CounterSnapshot(*[_count(v, i + 1, f) for f, v in zip(COUNTER_FIELDS, rows[i])])
    if defect:
        raise defect
    return snapshots


def write_counter_log(snapshots: Sequence[CounterSnapshot], path: str | Path,
                      format: str = "csv") -> None:
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format: {format!r}")
    rows = list(map(attrgetter(*COUNTER_FIELDS), snapshots))
    if not set(map(type, chain.from_iterable(rows))) <= {int}:   # the schema's integer counts
        rows = [[int(round(v)) for v in row] for row in rows]
    if format == "json":
        dump_json(path, [dict(zip(COUNTER_FIELDS, row)) for row in rows])
    else:
        write_table(path, COUNTER_FIELDS, list(zip(*rows)))


def write_derived_json(snapshots: Sequence[CounterSnapshot], path: str | Path) -> None:
    """Per snapshot its row, amortized offcore latency and stall fractions, ``null``
    where undefined: :func:`dump_json`'s bytes without its pure-Python indenting encoder."""
    keys = sorted(STALL_SOURCES)
    get = itemgetter(*keys)
    lats = [amortized_offcore_latency(s) if s.offcore_demand_requests > 0 else None
            for s in snapshots]
    fracs = [get(stall_fractions(s)) if s.total_cycles > 0 else None for s in snapshots]
    require_finite_values(path, "amortized_offcore_latency", [v for v in lats if v is not None])
    require_finite_values(path, "stall_fractions", [v for f in fracs if f for v in f])
    template = "{\n" + ",\n".join(f'      "{k}": %r' for k in keys) + "\n    }"
    records = ",\n".join(
        f'  {{\n    "amortized_offcore_latency": {"null" if lat is None else repr(lat)},\n'
        f'    "row": {i},\n    "stall_fractions": {"null" if f is None else template % f}\n  }}'
        for i, (lat, f) in enumerate(zip(lats, fracs)))
    Path(path).write_text(f"[\n{records}\n]\n" if records else "[]\n")


@dataclass(frozen=True)
class RunPair(Checked):
    """The same workload phase measured on local memory and on a remote tier."""

    label: str
    local: CounterSnapshot
    remote: CounterSnapshot
    local_runtime: float
    remote_runtime: float

    _BOUNDS = {"local_runtime": ((">", 0),), "remote_runtime": ((">", 0),)}

    def __post_init__(self):
        super().__post_init__()
        _enforce(_drift_rules(self.local.instructions, self.remote.instructions))


def _drift_rules(li, ri):
    """RunPair's rule beyond its fields', drawn as _snapshot_rules': instruction drift <= 1 %."""
    ref = (li >= ri) * li + (li < ri) * ri   # max(li, ri); ints stay Python ints
    drift = abs(li - ri) / (ref + (ref == 0))   # 0 where both are 0
    yield drift <= 0.01, lambda: f"snapshots cover different phases: instruction counts differ by {drift:.1%}"


PAIR_FIELDS = ["label", "local_runtime", "remote_runtime"] + [
    f"{side}_{f}" for side in ("local", "remote") for f in COUNTER_FIELDS
]
# The numeric columns in the order a pair's cells convert: local, remote, runtimes.
_PAIR_NUMBERS = PAIR_FIELDS[3:] + PAIR_FIELDS[1:3]
_RUN_PAIR_FIELDS = tuple(f.name for f in fields(RunPair))


def _valid_pairs(table: np.ndarray) -> np.ndarray:
    """The mask of the pairs in ``table`` (_PAIR_NUMBERS order) that pass their objects'
    rules: both snapshots', then the runtimes' finite and RunPair._BOUNDS, then drift."""
    n = len(COUNTER_FIELDS)
    local, remote = (dict(zip(COUNTER_FIELDS, table[:, i:i + n].T)) for i in (0, n))
    runtimes = dict(zip(_PAIR_NUMBERS[2 * n:], table[:, 2 * n:].T))
    bounds = (((runtimes[name] <= FLOAT_MAX) & LIMIT_OPS[op](runtimes[name], limit), None)
              for name, limits in RunPair._BOUNDS.items() for op, limit in limits)
    return _passing(chain(_snapshot_rules(local), _snapshot_rules(remote), bounds,
                          _drift_rules(local["instructions"], remote["instructions"])))


def pairs_table(pairs: Sequence[RunPair]) -> np.ndarray:
    """The pairs' numbers as an ``(n, 38)`` float64 table in _PAIR_NUMBERS order."""
    counts = attrgetter(*COUNTER_FIELDS)
    return np.array([(*counts(p.local), *counts(p.remote), p.local_runtime, p.remote_runtime)
                     for p in pairs], dtype=float).reshape(-1, len(_PAIR_NUMBERS))


def write_run_pairs(pairs: Sequence[RunPair], path: str | Path, extra: dict[str, Sequence[str]] | None = None) -> None:
    """Write pairs as CSV; ``extra`` adds leading columns (e.g. calibration kind)."""
    extra = extra or {}
    numbers = pairs_table(pairs)
    write_table(path, [*extra, *PAIR_FIELDS],
                [*extra.values(), [p.label for p in pairs], *numbers[:, -2:].T, *numbers[:, :-2].T])


def read_pairs_table(path: str | Path, extra_columns: Iterable[str] = ()) -> tuple[list[str], np.ndarray, dict[str, list[str]]]:
    """Read a pairs CSV; returns (labels, checked pairs table in _PAIR_NUMBERS
    order, extra column values)."""
    extra_columns = list(extra_columns)
    names, rows, defect = _csv_table(Path(path), extra_columns + PAIR_FIELDS)
    label = names.index("label")
    numbers = itemgetter(*map(names.index, _PAIR_NUMBERS))
    _, table = _table(rows, numbers, len(_PAIR_NUMBERS))
    for row in np.flatnonzero(~_valid_pairs(table)).tolist():   # the first one's objects raise
        cell, n = iter(zip(_PAIR_NUMBERS, numbers(rows[row]))), len(COUNTER_FIELDS)
        sides = [CounterSnapshot(*[_real(c, row + 1, f) for f, c in islice(cell, n)]) for _ in range(2)]
        RunPair(rows[row][label], *sides, *[_real(c, row + 1, f) for f, c in cell])
    if defect:
        raise defect
    extras = {k: list(map(itemgetter(names.index(k)), rows)) for k in extra_columns}
    return list(map(itemgetter(label), rows)), table, extras


def read_run_pairs(path: str | Path, extra_columns: Iterable[str] = ()) -> tuple[list[RunPair], dict[str, list[str]]]:
    """Read a pairs CSV; returns (pairs, extra column values)."""
    labels, table, extras = read_pairs_table(path, extra_columns)
    n = len(COUNTER_FIELDS)
    pairs = [_built(RunPair, _RUN_PAIR_FIELDS,
                    (label, _built(CounterSnapshot, COUNTER_FIELDS, v[:n]),
                     _built(CounterSnapshot, COUNTER_FIELDS, v[n:2 * n]), *v[2 * n:]))
             for label, v in zip(labels, table.tolist())]
    return pairs, extras
