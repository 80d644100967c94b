"""Exception types shared across the package, and the JSON file reader and writer.

Every error raised on bad data or bad configuration derives from
:class:`SupLabError` so callers (and the CLI) can distinguish data problems
(exit code 2) from usage problems (exit code 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path


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


class CapacityUnderflow(SupLabError):
    pass


class EmptyTrace(SupLabError):
    pass


class MalformedTrace(SupLabError):
    """A trace CSV or its JSON header cannot be parsed."""


class MalformedConfig(SupLabError):
    """A JSON config file is not valid JSON or does not fit its dataclass."""


def require_finite(obj) -> None:
    """Raise :class:`InvariantViolation` naming the first float field of the
    dataclass ``obj`` that is NaN or infinite."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, float) and not math.isfinite(v):
            raise InvariantViolation(f"{type(obj).__name__}.{f.name} must be finite, got {v}")


def load_json_object(cls, path: str | Path, many: bool = False):
    """Build the dataclass ``cls`` from the JSON object in ``path``.

    With ``many`` the file may hold one object or an array of them, and a
    list is returned.  Malformed JSON, a non-object value, an unknown or
    missing key, or a value the constructor cannot compare raises
    :class:`MalformedConfig` naming the file (and the key, if any).
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except ValueError as exc:   # JSONDecodeError or UnicodeDecodeError
        raise MalformedConfig(f"{path}: malformed JSON: {exc}") from None
    items = raw if many and isinstance(raw, list) else [raw]
    if not all(isinstance(item, dict) for item in items):
        raise MalformedConfig(f"{path}: expected a JSON object")
    try:
        objs = [cls(**item) for item in items]
    except TypeError as exc:
        raise MalformedConfig(f"{path}: {exc}") from None
    return objs if many else objs[0]


def dump_json(path: str | Path, payload) -> None:
    """Write ``payload`` to ``path`` as JSON with sorted keys, two-space
    indents and a final newline: the one layout of every JSON file written."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
