"""Counter data model, log ingestion, and derived per-run metrics.

A :class:`CounterSnapshot` is one measurement window's PMU counter vector,
already delta'd (wraparound handling is out of scope).  A counter log reads
as one :class:`CounterLog`, a checked table with a row per window: its exact
counts as int64 (as Python values if int64 cannot hold them all), from the
reader to the writer, whose one loop formats CSV lines or JSON records a chunk
of rows at a time, and as float64 for the kernels (:func:`amortized_offcore_latency`,
:func:`stall_fractions`, the model's metrics), written once for a snapshot's
numbers and a log's columns; :func:`by_row` gives them the rows float64 cannot
hold exactly.  :func:`write_derived_json` formats their columns from one table.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, fields, replace
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (FLOAT_MAX, LIMIT_OPS, TABLE_CHUNK, EmptyInput, InvariantViolation,
                     MalformedRecord, MissingColumn, Checked, NegativeValue, NoDemandReads,
                     SupLabError, ZeroDenominator, require_finite_values, write_table)

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


def select(cond, if_true, if_false):
    """``if_true()`` where ``cond`` holds and ``if_false()`` elsewhere, for a number
    or per row of a column.  A branch no row takes is not called, so each may
    assume its own rows (a number's branch may divide by what the other excludes)."""
    if not isinstance(cond, np.ndarray):
        return if_true() if cond else if_false()
    taken = if_true() if cond.any() else None
    other = if_false() if taken is None or not cond.all() else taken
    return np.where(cond, other if taken is None else taken, other)


def _any(mask) -> bool:
    """Whether a number's bool, or any row of a column's mask, holds."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def by_row(kernel):
    """``kernel``, written for a CounterSnapshot's numbers and a CounterLog's columns,
    run on a log's float64 columns with numpy's floating-point warnings off; then
    each row ``exact`` leaves out is computed again from its numbers, as the
    snapshot it is, and replaces that row of each column the kernel returned.
    Each column's dtype must hold every row's value: a float or bool column, not
    text that numpy sizes by the values the float64 rows gave."""
    @functools.wraps(kernel)
    def run(s, *args):
        if not isinstance(s, CounterLog):
            return kernel(s, *args)
        with np.errstate(all="ignore"):
            out = kernel(s, *args)
        for i in np.flatnonzero(~s.exact).tolist():
            value = kernel(s.row(i), *args)
            for column, v in zip(out.values(), value.values()) if isinstance(out, dict) else [(out, value)]:
                column[i] = v
        return out
    return run


@by_row
def amortized_offcore_latency(s) -> float:
    """Mean cycles an offcore demand read keeps the core waiting.

    Occupancy over request count; overlapped reads share occupancy cycles,
    so high memory-level parallelism drives this down.
    """
    if _any(s.offcore_demand_requests == 0):
        raise NoDemandReads("no offcore demand reads in window")
    return s.offcore_demand_occupancy / s.offcore_demand_requests


def cycle_share(s, cycles):
    """``cycles`` as a fraction of the snapshot's total cycles (of each row's, for a
    log, whose first row without cycles the error names)."""
    idle = s.total_cycles == 0
    if _any(idle):
        where = f"{s.source}: row {idle.argmax() + 1}: " if isinstance(s, CounterLog) else ""
        raise ZeroDenominator(f"{where}total_cycles is zero")
    return cycles / s.total_cycles


@by_row
def stall_fractions(s) -> dict[str, float]:
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


@dataclass(frozen=True, eq=False)
class CounterLog:
    """A checked counter log, one row per measurement window.

    ``counts`` holds each row's counts exactly as an ``(n, counters)`` table,
    in COUNTER_FIELDS order, for the writers: int64, or ``object`` holding the
    Python values if int64 cannot hold them all (a count past it, or one that
    is not an int).  ``table`` holds the same counts as float64, for the
    kernels, which read a counter's column as ``log.<counter>`` where they read
    a snapshot's number; ``exact`` the rows on which float64 arithmetic gives
    what Python's gives on the exact counts (see :func:`_exact`; derived from
    ``table``).  ``source`` names the log in errors.
    """

    counts: np.ndarray
    table: np.ndarray
    source: str

    @functools.cached_property
    def exact(self) -> np.ndarray:
        return _exact(self.table)

    def __len__(self) -> int:
        return len(self.counts)

    def __getattr__(self, name: str) -> np.ndarray:   # called for names that are not fields
        if name not in _COLUMNS:
            raise AttributeError(name)
        return self.table[:, _COLUMNS[name]]

    def __getitem__(self, rows) -> "CounterLog":
        """The log of the rows a slice, or a row mask, selects; the log itself for
        a mask that selects every row, so that no table is copied."""
        if isinstance(rows, np.ndarray) and rows.dtype == bool and len(rows) == len(self) and rows.all():
            return self
        return CounterLog(self.counts[rows], self.table[rows], self.source)

    def row(self, i: int) -> CounterSnapshot:
        return CounterSnapshot(*self.counts[i].tolist())


_COLUMNS = {name: i for i, name in enumerate(COUNTER_FIELDS)}


@np.errstate(over="ignore")   # counts near FLOAT_MAX sum to inf, which is not exact either
def _exact(table: np.ndarray) -> np.ndarray:
    """The rows of a float64 counter table with every count, and the two sums
    metric_cache takes, at most EXACT_MAX.  There float64 holds each count and
    sum exactly, so its quotients are Python's correctly rounded int quotients.
    Summing in float64 decides this too: a sum past EXACT_MAX rounds to 2**53
    or more."""
    c = dict(zip(COUNTER_FIELDS, table.T))
    return ((table <= EXACT_MAX).all(1) & (c["l1_demand_hits"] + c["lfb_hits"] <= EXACT_MAX)
            & (c["l2_prefetch_l3_miss"] + c["l2_prefetch_l3_hit"] <= EXACT_MAX))


def _int64(rows: Sequence[Sequence]) -> np.ndarray | None:
    """Rows of counts as an int64 table, or None if any is not an int in int64's range."""
    if {*map(type, chain.from_iterable(rows))} <= {int}:
        with suppress(OverflowError):   # a count past int64
            return np.array(rows, np.int64).reshape(-1, len(COUNTER_FIELDS))
    return None


def _counts(rows: Sequence[Sequence]) -> np.ndarray:
    """A CounterLog's ``counts`` for rows of exact values: int64 if int64 holds
    every value, else an ``object`` table of the values themselves."""
    counts = _int64(rows)
    return np.array(rows, object).reshape(-1, len(COUNTER_FIELDS)) if counts is None else counts


def counter_log(snapshots: Sequence[CounterSnapshot]) -> CounterLog:
    """The snapshots as one CounterLog."""
    rows = list(map(attrgetter(*COUNTER_FIELDS), snapshots))
    return CounterLog(_counts(rows), np.array(rows, dtype=float).reshape(-1, len(COUNTER_FIELDS)), "snapshots")


# The cells np.loadtxt reads as int() (int64) or float() (float64) reads them, with
# ",": ASCII digits and signs, and blanks for int or "." and "e" for float.  Past
# them np.loadtxt reads text the builtins refuse ("\x1c1", some non-ASCII letters
# as digits), the builtins read text np.loadtxt refuses ("1_0"), and a CR ends a row.
_PLAIN_CELLS = {np.int64: b"0123456789+-, \t", np.float64: b"0123456789.eE+-,"}
_PLAIN_TEXT = bytes(range(0x20, 0x7f)).replace(b'"', b"")   # cells csv.reader keeps as they are
_PLAIN_HEADER = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_, \t"


def _plain_table(path: Path, text_columns: Sequence[str], numbers: Sequence[str], dtype):
    """(header, data lines, text columns, table) of a plain CSV file: its leading
    ``text_columns`` split off once per line, and all its other cells parsed by
    one np.loadtxt call into a ``dtype`` table of the ``numbers`` columns, in that
    order.  None, and _csv_table reads the file, unless its header passes _header
    and is of _PLAIN_HEADER, its lines end in LF or CRLF and none is blank, the
    text columns lead (as the writers put them) and are of _PLAIN_TEXT, and every
    other cell is of the dtype's _PLAIN_CELLS and converts."""
    head, _, body = path.read_bytes().partition(b"\n")
    head, k = head.removesuffix(b"\r"), len(text_columns)
    if head.translate(None, _PLAIN_HEADER):
        return None
    try:
        names, body = _header(head.decode().split(","), [*text_columns, *numbers]), body.decode()
        lines = body.removesuffix("\n").split("\n") if body else []
        if "\r" in body:   # a CR before an LF ends a line; any other is in no plain cell
            lines = [line.removesuffix("\r") for line in lines]
        split = zip(*(line.split(",", k) for line in lines), strict=True) if k else [lines]
        *text, cells = [*split] or [()] * (k + 1)   # no lines: k empty text columns, no cells
        if ("" in cells or names[:k] != list(text_columns)
                or ",".join(chain(*text)).encode().translate(None, _PLAIN_TEXT)
                or ",".join(cells).encode().translate(None, _PLAIN_CELLS[dtype])):
            return None
        width = len(names) - k
        table = np.loadtxt(cells, dtype, delimiter=",", comments=None, ndmin=2) if cells else np.empty((0, width), dtype)
    except (SupLabError, ValueError, OverflowError):   # _csv_table finds the same fault
        return None
    if table.shape != (len(cells), width):
        return None
    return names, lines, text, table[:, [names.index(f) - k for f in numbers]]


def ingest_counter_log(path: str | Path, format: str = "csv") -> CounterLog:
    """Parse a counter log into a checked CounterLog.  Plain cells are integer
    text or JSON integers (never bools): a CSV log of plain ASCII text parses in
    one np.loadtxt call, and a JSON log whose every count is an int in int64
    converts at once; either table is the log's ``counts``.  By _table's rule, a
    row of plain cells that the rules pass and _exact keeps comes from the table;
    every other row goes through _count and CounterSnapshot, in file order,
    which build it exactly or raise."""
    path, width, defect, counts = Path(path), len(COUNTER_FIELDS), None, None
    if format == "csv":
        plain = _plain_table(path, (), COUNTER_FIELDS, np.int64)
        if plain:
            counts = plain[-1]
        else:
            names, cells, defect = _csv_table(path, COUNTER_FIELDS)
            cells = list(map(itemgetter(*map(names.index, COUNTER_FIELDS)), cells))
            rows, table = _table(cells, lambda c: [*map(int, c)], width)
    elif format == "json":
        cells, defect = _json_table(path)
        counts = _int64(cells)
        if counts is None:
            rows, table = _table(cells, lambda values: values if {*map(type, values)} == {int} else (), width)
    else:
        raise ValueError(f"unknown format: {format!r}")
    if counts is not None:   # its failing rows are checked and, if inexact, kept as they are
        cells, table = counts, counts.astype(float)
    for i in np.flatnonzero(~(_passing(_snapshot_rules(dict(zip(COUNTER_FIELDS, table.T)))) & _exact(table))).tolist():
        snapshot = CounterSnapshot(*[_count(v, i + 1, f) for f, v in zip(COUNTER_FIELDS, cells[i])])
        if counts is None:
            rows[i] = table[i] = attrgetter(*COUNTER_FIELDS)(snapshot)
    if defect:
        raise defect
    return CounterLog(_counts(rows) if counts is None else counts, table, str(path))


def write_counter_log(log: CounterLog | Sequence[CounterSnapshot], path: str | Path,
                      format: str = "csv") -> None:
    """Write a CounterLog, or snapshots, as a CSV or JSON counter log: rows of
    ``counts`` a TABLE_CHUNK at a time, each chunk through one ``%d`` row template
    and one ``%``, as CSV lines or as JSON records in the layout of every JSON file
    written.  An ``object`` table's values are rounded to ints (half to even), as
    the schema's counts are integers."""
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format: {format!r}")
    if not isinstance(log, CounterLog):
        log = counter_log(log)
    ints = (lambda values: values) if log.counts.dtype == np.int64 else (lambda values: [*map(round, values)])
    if format == "csv":   # a header line, then the rows' CRLF lines
        head, sep, end, columns = ",".join(COUNTER_FIELDS) + "\r\n", "", "", slice(None)
        row = ",".join(["%d"] * len(COUNTER_FIELDS)) + "\r\n"
    else:   # an array of records with sorted keys, in text-mode newlines as every JSON file
        keys = sorted(COUNTER_FIELDS)
        head, sep, end, columns = "[", ",", "\n]\n" if len(log) else "]\n", [*map(_COLUMNS.get, keys)]
        row = "\n  {\n" + ",\n".join(f'    "{k}": %d' for k in keys) + "\n  }"
    with Path(path).open("w", newline="" if format == "csv" else None) as fh:
        fh.write(head)
        for lo in range(0, len(log), TABLE_CHUNK):
            chunk = log.counts[lo:lo + TABLE_CHUNK, columns]
            fh.write(sep * (lo > 0))
            fh.write(sep.join([row] * len(chunk)) % tuple(ints(chunk.ravel().tolist())))
        fh.write(end)


def write_derived_json(log: CounterLog, path: str | Path) -> None:
    """Per row its index, amortized offcore latency and stall fractions, ``null``
    where undefined, in the layout of every JSON file written: one value table,
    formatted a TABLE_CHUNK of rows at a time, each chunk in one ``%``."""
    keys = sorted(STALL_SOURCES)
    reads, windows = log.offcore_demand_requests > 0, log.total_cycles > 0
    lats = amortized_offcore_latency(log[reads])
    fracs = np.column_stack(itemgetter(*keys)(stall_fractions(log[windows])))
    require_finite_values(path, "amortized_offcore_latency", lats)
    require_finite_values(path, "stall_fractions", fracs)
    values = np.empty((len(log), 7))   # per row: latency, row ("%d" prints it whole), fractions
    values[reads, 0], values[:, 1], values[windows, 2:] = lats, np.arange(len(log)), fracs
    del lats, fracs   # the value table holds them now
    kinds = 2 * reads + windows
    lat = ("null", "%r")
    frac = ("null", "{\n" + ",\n".join(f'      "{k}": %r' for k in keys) + "\n    }")
    templates = [f'  {{\n    "amortized_offcore_latency": {lat[r]},\n    "row": %d,\n'
                 f'    "stall_fractions": {frac[w]}\n  }}' for r in (0, 1) for w in (0, 1)]
    present = np.array([[r, 1, *[w] * len(keys)] for r in (0, 1) for w in (0, 1)], bool)   # the values each takes
    with Path(path).open("w") as fh:
        start = "[\n"
        for lo in range(0, len(log), TABLE_CHUNK):
            rows = slice(lo, lo + TABLE_CHUNK)
            records = ",\n".join(map(templates.__getitem__, kinds[rows].tolist()))
            fh.write(start + records % tuple(values[rows][present[kinds[rows]]].tolist()))
            start = ",\n"
        fh.write("\n]\n" if len(log) else "[]\n")


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
    order, extra column values).  A plain file, as write_run_pairs writes it
    (see _plain_table: ASCII text without quotes, no blank line, the extra
    columns and the label first, every other cell real-number text), parses in
    one np.loadtxt call; over that alphabet np.loadtxt reads a cell exactly as
    float() does.  Any other file goes through _csv_table and _table.  Either
    way, the first pair _valid_pairs flags is rebuilt from its cells through
    _real and the constructors, which raise its error."""
    path, text = Path(path), [*extra_columns, "label"]
    plain = _plain_table(path, text, _PAIR_NUMBERS, np.float64)
    if plain:
        names, lines, columns, table = plain
        cells, defect = (lambda row: lines[row].split(",")), None
    else:
        names, rows, defect = _csv_table(path, text[:-1] + PAIR_FIELDS)
        _, table = _table(rows, itemgetter(*map(names.index, _PAIR_NUMBERS)), len(_PAIR_NUMBERS))
        columns, cells = [list(map(itemgetter(names.index(c)), rows)) for c in text], rows.__getitem__
    numbers, n = itemgetter(*map(names.index, _PAIR_NUMBERS)), len(COUNTER_FIELDS)
    for row in np.flatnonzero(~_valid_pairs(table)).tolist():   # the first one's objects raise
        cell = iter(zip(_PAIR_NUMBERS, numbers(cells(row))))
        sides = [CounterSnapshot(*[_real(c, row + 1, f) for f, c in islice(cell, n)]) for _ in range(2)]
        RunPair(columns[-1][row], *sides, *[_real(c, row + 1, f) for f, c in cell])
    if defect:
        raise defect
    return list(columns[-1]), table, dict(zip(text[:-1], map(list, columns)))


def read_run_pairs(path: str | Path, extra_columns: Iterable[str] = ()) -> tuple[list[RunPair], dict[str, list[str]]]:
    """Read a pairs CSV; returns (pairs, extra column values)."""
    labels, table, extras = read_pairs_table(path, extra_columns)
    n = len(COUNTER_FIELDS)
    pairs = [_built(RunPair, _RUN_PAIR_FIELDS,
                    (label, _built(CounterSnapshot, COUNTER_FIELDS, v[:n]),
                     _built(CounterSnapshot, COUNTER_FIELDS, v[n:2 * n]), *v[2 * n:]))
             for label, v in zip(labels, table.tolist())]
    return pairs, extras
