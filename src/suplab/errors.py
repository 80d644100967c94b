"""Exception types shared across the package; the field rule and the two bases
of every checked dataclass, :class:`Checked` and :class:`JsonConfig` (the one
JSON config reader and writer); and the writers every output goes through:
JSON, and CSV tables.

Every error raised on bad data or bad configuration derives from
:class:`SupLabError` so callers (and the CLI) can distinguish data problems
(exit code 2) from usage problems (exit code 1).
"""

from __future__ import annotations

import json
import math
import operator
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

TABLE_CHUNK = 4_096         # rows formatted per write by write_table: ~0.75 MB a float column
FLOAT_MAX = sys.float_info.max   # a number past it does not convert to a float
LIMIT_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float)}   # a JSON int is a float too
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')   # the characters csv.writer quotes a field for


class SupLabError(Exception):
    """Base class for all data/model errors raised by this package."""


class InvariantViolation(SupLabError):
    """A domain object failed one of its structural invariants."""


class MissingColumn(SupLabError):
    def __init__(self, name: str):
        super().__init__(f"missing column: {name}")
        self.name = name


class NegativeValue(SupLabError):
    def __init__(self, row: int, field: str):
        super().__init__(f"negative value in row {row}, field {field}")
        self.row = row
        self.field = field


class MalformedRecord(SupLabError):
    def __init__(self, row: int, detail: str = ""):
        msg = f"malformed record at row {row}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.row = row


class ZeroDenominator(SupLabError):
    """A ratio's denominator (total cycles, runtime or occupancy) is zero."""


class NoDemandReads(SupLabError):
    """Raised where a per-request latency is undefined (zero offcore reads)."""


class EmptyInput(SupLabError):
    pass


class MissingKind(SupLabError):
    def __init__(self, kind: str):
        super().__init__(f"calibration needs at least one '{kind}' run")
        self.kind = kind


class DegenerateMetric(SupLabError):
    """A fit step would divide by a metric that is (numerically) zero."""


class InsufficientMlpSpread(SupLabError):
    """All pointer-chase runs sit at one amortized latency; p and q are unidentifiable."""


class RankDeficient(SupLabError):
    def __init__(self, column: str):
        super().__init__(f"least-squares design matrix is rank deficient (degenerate column: {column})")
        self.column = column


class LoadOutOfRange(SupLabError):
    pass


class InconsistentProfile(SupLabError):
    pass


class MissingFit(SupLabError):
    pass


class EmptyTrace(SupLabError):
    pass


class MalformedTrace(SupLabError):
    """A trace CSV cannot be parsed (a bad JSON header is a :class:`MalformedConfig`)."""


class MalformedConfig(SupLabError):
    """A JSON config file is not valid JSON or does not fit its dataclass."""


def check_fields(obj, bounds) -> None:
    """Check each ``str``, ``int`` and ``float`` field of the dataclass ``obj``
    (a field of any other type is not read): a ``str`` field holds a string,
    an ``int`` one an integer in int64, a ``float`` one a finite real (an int in
    the float range included), and a bool is no number; then its limits in
    ``bounds``, ``{field: ((op, limit), ...)}``, op one of ``> >= < <=``.  The
    first failure is an :class:`InvariantViolation` naming the class and field."""
    # Not fields(obj), which builds a tuple per call: a ClassVar or InitVar
    # entry here has no scalar type, so the filter skips it.
    for f in type(obj).__dataclass_fields__.values():
        if f.type not in _FIELD_TYPES:   # f.type is text
            continue
        v, where = getattr(obj, f.name), f"{type(obj).__name__}.{f.name}"
        if isinstance(v, bool) or not isinstance(v, _FIELD_TYPES[f.type]):
            raise InvariantViolation(f"{where} must be {f.type}, got {v!r:.40}")
        if f.type == "int" and not -2**63 <= v < 2**63:   # simulate computes in int64
            raise InvariantViolation(f"{where} does not fit in a 64-bit integer")
        if f.type == "float" and not -FLOAT_MAX <= v <= FLOAT_MAX:   # NaN, inf or a long int
            raise InvariantViolation(f"{where} must be finite, got " + (
                repr(v) if isinstance(v, float) else "an integer past the float range"))
        for op, limit in bounds.get(f.name, ()):
            if not LIMIT_OPS[op](v, limit):   # a float field's long int shows as a float
                got = float(v) if f.type == "float" else v
                raise InvariantViolation(f"{where} must be {op} {limit!r}, got {got!r}")


class Checked:
    """Base of a dataclass whose fields :func:`check_fields` checks at
    construction against the class's ``_BOUNDS``.  A subclass with more rules
    calls ``super().__post_init__()`` first."""

    _BOUNDS = {}

    def __post_init__(self):
        check_fields(self, self._BOUNDS)


class JsonConfig(Checked):
    """A checked dataclass read from and written to a flat JSON object."""

    def to_json(self, path: str | Path) -> None:
        dump_json(path, asdict(self))

    @classmethod
    def from_json(cls, path: str | Path, many: bool = False):
        """Build the class from the JSON object in ``path``.

        With ``many`` the file may hold one object or an array of them, and a
        list is returned.  Malformed JSON, a non-object value, an unknown or
        missing key, or a value the constructor rejects raises
        :class:`MalformedConfig` naming the file (and the key, if any).
        """
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except ValueError as exc:   # JSONDecodeError or UnicodeDecodeError
            raise MalformedConfig(f"{path}: malformed JSON: {exc}") from None
        items = raw if many and isinstance(raw, list) else [raw]
        if not items or not all(isinstance(item, dict) for item in items):   # [] holds none
            raise MalformedConfig(f"{path}: expected a JSON object")
        try:
            objs = [cls(**item) for item in items]
        except (TypeError, SupLabError) as exc:
            raise MalformedConfig(f"{path}: {exc}") from None
        return objs if many else objs[0]


def dump_json(path: str | Path, payload) -> None:
    """Write ``payload`` to ``path`` as JSON with sorted keys, two-space
    indents and a final newline: the one layout of every JSON file written.
    A NaN or an infinity in it is an :class:`InvariantViolation` naming the file."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InvariantViolation(f"{Path(path).name}: {_non_finite(payload) or exc}") from None
    Path(path).write_text(text + "\n")


def _non_finite(value, at: str = "") -> str | None:
    """Where the first NaN or infinity in ``value`` lies in the order
    :func:`dump_json` writes it, keys sorted, as ``[1].runtime_s is inf``."""
    if isinstance(value, float):
        return None if math.isfinite(value) else f"{at or 'the value'} is {value!r}"
    items = (((f"{at}.{k}" if at else str(k), v) for k, v in sorted(value.items()))
             if isinstance(value, dict) else ((f"{at}[{i}]", v) for i, v in enumerate(value))
             if isinstance(value, (list, tuple)) else ())
    return next(filter(None, (_non_finite(v, where) for where, v in items)), None)


def require_finite_values(path: str | Path, column: str, values) -> None:
    """A NaN or an infinity in a column is an :class:`InvariantViolation` naming
    the file and the column.  An array is checked by its min and max, with no
    mask: a NaN propagates through both and an infinity is one of them.  An empty
    array has neither, and ``min`` would raise on it."""
    if not (values.size == 0 or (np.isfinite(values.min()) and np.isfinite(values.max()))
            if isinstance(values, np.ndarray) else all(map(math.isfinite, values))):
        raise InvariantViolation(f"{Path(path).name}: {column} holds a NaN or an infinity")


def _fields(values) -> list[str]:
    """Column values as ``csv.writer`` writes them: numbers as their ``repr``,
    text quoted where ``csv.writer`` quotes it."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if not values or not isinstance(values[0], str):
        return list(map(repr, values))
    text = "".join(values)
    if not any(c in text for c in ',"\r\n'):   # _NEEDS_QUOTES, ten times faster on long text
        return list(values)
    return ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in values]


def write_table(path: str | Path, header, columns, newline: str = "\r\n") -> None:
    """Write a CSV table given column by column under ``header``, a chunk of
    rows per write.  A column whose first value is a string is text; any other
    holds numbers, and when the first is a float it goes through
    :func:`require_finite_values` first.  Lines end in ``newline``, CRLF as
    ``csv.writer``'s."""
    for name, col in zip(header, columns):
        if len(col) and isinstance(col[0], float):
            require_finite_values(path, name, col)
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(_fields(header)) + newline)
        for i in range(0, len(columns[0]) if columns else 0, TABLE_CHUNK):
            cells = [_fields(col[i:i + TABLE_CHUNK]) for col in columns]
            rows = cells[0] if len(cells) == 1 else map(",".join, zip(*cells))
            fh.write(newline.join(rows) + newline)
