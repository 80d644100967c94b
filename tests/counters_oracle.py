"""Reference counter readers and rules: the ``csv.DictReader`` and
per-record JSON readers that ``suplab.counters`` replaced with parse-once,
whole-table code, and the checks ``CounterSnapshot`` and ``RunPair`` made
before one rule set served objects and tables alike.

Kept unchanged as the oracle the readers and rules are checked against
(``test_counters.py``): for any file, ``suplab.counters.ingest_counter_log``
and ``read_run_pairs`` must return equal values of the same Python types as
the functions here, or raise the same error with the same message; for any
field values, suplab's constructors must accept what :func:`snapshot` and
:func:`run_pair` accept, and raise what they raise.  Cell conversion
(``_count``, ``_real``), the header check and the dataclasses are suplab's
own; the reading loops and the object checks live here.

:class:`RowLog`, :func:`row_log`, :func:`ingest_row_log` and
:func:`write_row_log` are ``suplab.counters``' ``CounterLog``, ``counter_log``,
``ingest_counter_log`` and ``write_counter_log`` as they were when a log kept
every row as a list of exact Python values, before it kept them as an int64
table: for any log, suplab's must give the same table, exact mask, rows,
selections and written bytes.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, compress
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from suplab.counters import (
    COUNTER_FIELDS,
    PAIR_FIELDS,
    CounterSnapshot,
    RunPair,
    _COLUMNS,
    _count,
    _csv_table,
    _exact,
    _header,
    _json_table,
    _passing,
    _plain_table,
    _real,
    _snapshot_rules,
    _table,
)
from suplab.errors import (FLOAT_MAX, EmptyInput, InvariantViolation, MalformedRecord,
                           check_fields, dump_json, write_table)

_SLACK = 1 + 1e-12
_BOUNDED_BY = (("stall_cycles_total", "total_cycles"),
               ("backend_stall_cycles", "stall_cycles_total"),
               ("llc_miss_demand_stall_cycles", "mem_stall_cycles"),
               ("mem_stall_cycles", "backend_stall_cycles"))
_RUN_PAIR_BOUNDS = {"local_runtime": ((">", 0),), "remote_runtime": ((">", 0),)}


def check_snapshot(self) -> None:
    """``CounterSnapshot.__post_init__`` as it was."""
    for name in COUNTER_FIELDS:
        v = getattr(self, name)
        if not 0 <= v <= FLOAT_MAX:   # negative, NaN, infinite or past the float range
            if isinstance(v, float) and not math.isfinite(v):
                raise InvariantViolation(f"CounterSnapshot.{name} must be finite, got {v}")
            raise InvariantViolation(f"{name} must be >= 0, got {v}" if v < 0
                                     else f"{name} exceeds the float range")
    for name, bound in _BOUNDED_BY:
        if getattr(self, name) > getattr(self, bound) * _SLACK:
            raise InvariantViolation(f"{name} exceeds {bound}")
    if self.offcore_demand_requests > self.offcore_demand_occupancy:
        raise InvariantViolation("offcore_demand_occupancy below offcore_demand_requests "
                                 "(each request is outstanding for at least one cycle)")


def check_run_pair(self) -> None:
    """``RunPair.__post_init__`` as it was, its ``super().__post_init__()``
    being ``check_fields`` with RunPair's bounds."""
    check_fields(self, _RUN_PAIR_BOUNDS)
    ref = max(self.local.instructions, self.remote.instructions)
    if ref > 0:
        drift = abs(self.local.instructions - self.remote.instructions) / ref
        if drift > 0.01:
            raise InvariantViolation(
                f"snapshots cover different phases: instruction counts differ by {drift:.1%}"
            )


def _checked(cls, check, values: dict):
    """An object of the frozen dataclass ``cls``, made without its own checks
    and then put through ``check``."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    check(obj)
    return obj


def snapshot(**values) -> CounterSnapshot:
    return _checked(CounterSnapshot, check_snapshot, values)


def run_pair(label, local, remote, local_runtime, remote_runtime) -> RunPair:
    return _checked(RunPair, check_run_pair, {
        "label": label, "local": local, "remote": remote,
        "local_runtime": local_runtime, "remote_runtime": remote_runtime})


def _snapshot(record: dict, row: int, convert=_count, prefix: str = "") -> CounterSnapshot:
    return snapshot(
        **{f: convert(record[prefix + f], row, prefix + f) for f in COUNTER_FIELDS}
    )


def _csv_records(path: Path, required: Iterable[str]) -> Iterator[tuple[int, dict]]:
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
    try:
        records = json.loads(path.read_text())
    except ValueError as exc:
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
    path = Path(path)
    records = _csv_records(path, COUNTER_FIELDS) if format == "csv" else _json_records(path)
    return [_snapshot(record, row) for row, record in records]


def read_run_pairs(path: str | Path, extra_columns: Iterable[str] = ()) -> tuple[list[RunPair], dict[str, list[str]]]:
    extra_columns = list(extra_columns)
    pairs: list[RunPair] = []
    extras: dict[str, list[str]] = {k: [] for k in extra_columns}
    for row, record in _csv_records(Path(path), extra_columns + PAIR_FIELDS):
        pairs.append(run_pair(
            label=record["label"],
            local=_snapshot(record, row, _real, "local_"),
            remote=_snapshot(record, row, _real, "remote_"),
            local_runtime=_real(record["local_runtime"], row, "local_runtime"),
            remote_runtime=_real(record["remote_runtime"], row, "remote_runtime"),
        ))
        for k in extra_columns:
            extras[k].append(record[k])
    return pairs, extras


@dataclass(frozen=True, eq=False)
class RowLog:
    """``CounterLog`` with ``rows``, each row's counts exactly in COUNTER_FIELDS order."""

    rows: Sequence[Sequence]
    table: np.ndarray
    exact: np.ndarray
    source: str

    def __len__(self) -> int:
        return len(self.rows)

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in _COLUMNS:
            raise AttributeError(name)
        return self.table[:, _COLUMNS[name]]

    def __getitem__(self, rows) -> "RowLog":
        kept = self.rows[rows] if isinstance(rows, slice) else list(compress(self.rows, rows.tolist()))
        return RowLog(kept, self.table[rows], self.exact[rows], self.source)

    def row(self, i: int) -> CounterSnapshot:
        return CounterSnapshot(*self.rows[i])


def row_log(snapshots: Sequence[CounterSnapshot]) -> RowLog:
    rows = list(map(attrgetter(*COUNTER_FIELDS), snapshots))
    table = np.array(rows, dtype=float).reshape(-1, len(COUNTER_FIELDS))
    return RowLog(rows, table, _exact(table), "snapshots")


def ingest_row_log(path: str | Path, format: str = "csv") -> RowLog:
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
        if {*map(type, chain.from_iterable(cells))} <= {int}:
            with suppress(OverflowError):
                counts = np.array(cells, np.int64).reshape(-1, width)
        if counts is None:
            rows, table = _table(cells, lambda values: values if {*map(type, values)} == {int} else (), width)
    else:
        raise ValueError(f"unknown format: {format!r}")
    if counts is not None:
        cells = rows = counts.tolist()
        table = counts.astype(float)
    for i in np.flatnonzero(~(_passing(_snapshot_rules(dict(zip(COUNTER_FIELDS, table.T)))) & _exact(table))).tolist():
        snapshot = CounterSnapshot(*[_count(v, i + 1, f) for f, v in zip(COUNTER_FIELDS, cells[i])])
        rows[i] = table[i] = attrgetter(*COUNTER_FIELDS)(snapshot)
    if defect:
        raise defect
    return RowLog(rows, table, _exact(table), str(path))


def write_row_log(log: RowLog | Sequence[CounterSnapshot], path: str | Path, format: str = "csv") -> None:
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format: {format!r}")
    rows = log.rows if isinstance(log, RowLog) else list(map(attrgetter(*COUNTER_FIELDS), log))
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        rows = [[int(round(v)) for v in row] for row in rows]
    if format == "json":
        dump_json(path, [dict(zip(COUNTER_FIELDS, row)) for row in rows])
    else:
        write_table(path, COUNTER_FIELDS, list(zip(*rows)))
