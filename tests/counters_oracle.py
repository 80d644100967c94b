"""Reference counter readers: the ``csv.DictReader`` and per-record JSON
readers that ``suplab.counters`` replaced with parse-once, whole-table code.

Kept unchanged as the oracle the readers are checked against
(``test_counters.py``): for any file, ``suplab.counters.ingest_counter_log``
and ``read_run_pairs`` must return equal values of the same Python types as
the functions here, or raise the same error with the same message.  Cell
conversion (``_count``, ``_real``), the header check and the domain objects
are suplab's own; only the reading loops live here.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Iterator

from suplab.counters import (
    COUNTER_FIELDS,
    PAIR_FIELDS,
    CounterSnapshot,
    RunPair,
    _count,
    _header,
    _real,
)
from suplab.errors import EmptyInput, MalformedRecord


def _snapshot(record: dict, row: int, convert=_count, prefix: str = "") -> CounterSnapshot:
    return CounterSnapshot(
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
