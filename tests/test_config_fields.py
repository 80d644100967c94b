"""The field rule of every checked class: each build either raises a
SupLabError naming the class and field, or gives an object whose every scalar
field has its type and meets the bounds the README documents."""

from __future__ import annotations

import dataclasses
import importlib
import math
import operator
import pkgutil
import sys

from hypothesis import given, settings, strategies as st

import suplab
from suplab import counters as cnt
from suplab import devmodel as dm
from suplab import interleave as il
from suplab import model as mdl
from suplab import tiersim as ts
from suplab.errors import Checked, SupLabError

# Import every module, so checked_classes also finds a class that no test imports.
for module in pkgutil.iter_modules(suplab.__path__):
    importlib.import_module(f"suplab.{module.name}")

# The documented bounds, written out here rather than read from the classes.
BOUNDS = {
    dm.DeviceProfile: {"base_latency_ns": ((">", 0),), "bandwidth_cap_gbs": ((">", 0),),
                       "tail_prob": ((">=", 0), ("<", 0.1)), "tail_scale_ns": ((">=", 0),),
                       "jitter_sigma_ns": ((">=", 0),), "numa_hop_extra_ns": ((">=", 0),)},
    dm.WorkloadProfile: {"instructions": ((">", 0),), "demand_miss_rate": ((">=", 0),),
                         "mlp_depth": ((">=", 1),), "prefetch_reliance": ((">=", 0), ("<=", 1)),
                         "store_intensity": ((">=", 0), ("<=", 1)),
                         "read_bandwidth_demand_gbs": ((">=", 0),)},
    mdl.ModelParams: {"k1": ((">", 0),), "p": ((">=", 0),), "q": ((">", 0),),
                      "offcore_threshold": ((">", 0),)},
    il.InterleaveFit: {},
    ts.PolicyConfig: {"fast_capacity": ((">=", 1),), "promo_threshold_accesses": ((">=", 1),),
                      "max_promo_rate": ((">=", 0),), "alto_steps": ((">=", 1),),
                      "migration_cost_us": ((">=", 0),)},
    cnt.RunPair: {"local_runtime": ((">", 0),), "remote_runtime": ((">", 0),)},
    ts.TierTrace: {"page_count": ((">=", 1),), "wss_pages": ((">=", 0),),
                   "epoch_instructions": ((">=", 1),)},
    ts.TraceHeader: {"epochs": ((">=", 0), ("<=", 200_000)), "page_count": ((">=", 1),),
                     "wss_pages": ((">=", 0),), "epoch_instructions": ((">=", 1),)},
    il.InterleaveRatio: {"remote_fraction": ((">=", 0), ("<=", 1))},
}
SCALARS = ("str", "int", "float")   # the field types the rule checks
OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}

# One valid build of each class; the test changes up to three of its scalar fields.
SNAPSHOT = cnt.CounterSnapshot(*[0.0] * len(cnt.COUNTER_FIELDS))
VALID = {
    dm.DeviceProfile: dict(name="d", base_latency_ns=100.0, bandwidth_cap_gbs=30.0),
    dm.WorkloadProfile: dict(name="w", instructions=1e9, demand_miss_rate=2.0),
    mdl.ModelParams: dict(k1=1.0, k2=1.0, k3=1.0, k4=0.0, p=0.5, q=0.5, offcore_threshold=40.0),
    il.InterleaveFit: dict(platform="p", ratio_slope=0.1, ratio_intercept=0.0,
                           speedup_slope=0.1, speedup_intercept=0.0),
    ts.PolicyConfig: dict(policy="alto", fast_capacity=100),
    cnt.RunPair: dict(label="x", local=SNAPSHOT, remote=SNAPSHOT, local_runtime=1.0,
                      remote_runtime=1.5),
    ts.TierTrace: dict(epochs=[ts.TraceEpoch([(0, 1)])], page_count=1, wss_pages=1),
    ts.TraceHeader: dict(epochs=1, page_count=1, wss_pages=1),
    il.InterleaveRatio: dict(remote_fraction=0.5),
}
for cls, kw in VALID.items():
    kw.update({f.name: f.default for f in dataclasses.fields(cls)
               if f.default is not dataclasses.MISSING and f.name not in kw})

FLOAT_MAX = sys.float_info.max
SPECIAL = [True, False, "1", "tpp", None, 0, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
           math.nan, math.inf, -math.inf, 2**63 - 1, 2**63, -2**63, -2**63 - 1,
           10**308, 10**400, -10**400, int(FLOAT_MAX), int(FLOAT_MAX) + 1, 40.0, 100.0]
# each bound, one ulp (or, as an int, one) either side of it
EDGES = sorted({v for bounds in BOUNDS.values() for limits in bounds.values()
                for _, limit in limits
                for v in (limit, limit - 1, limit + 1, float(limit),
                          math.nextafter(limit, -math.inf), math.nextafter(limit, math.inf))})
VALUES = st.one_of(st.sampled_from(SPECIAL + EDGES),
                   st.integers(-2**64, 2**64), st.floats(-1e3, 1e3))


def has_type(kind: str, v) -> bool:
    if kind == "str":
        return type(v) is str
    if kind == "int":
        return type(v) is int and -2**63 <= v < 2**63
    return type(v) is float and math.isfinite(v) or type(v) is int and abs(v) <= FLOAT_MAX


def scalar_fields(cls) -> list[dataclasses.Field]:
    """The fields the rule checks; snapshots, epochs and arrays it does not read."""
    return [f for f in dataclasses.fields(cls) if f.type in SCALARS]


def meets_rules(cls, kw: dict) -> bool:
    for f in scalar_fields(cls):
        v = kw[f.name]
        if not has_type(f.type, v):
            return False
        if not all(OPS[op](v, limit) for op, limit in BOUNDS[cls].get(f.name, ())):
            return False
    if cls is ts.PolicyConfig:
        return kw["policy"] in ts.POLICIES and kw["alto_lower"] < kw["alto_upper"]
    return True


@st.composite
def builds(draw):
    cls = draw(st.sampled_from(list(VALID)))
    names = [f.name for f in scalar_fields(cls)]
    changed = draw(st.dictionaries(st.sampled_from(names), VALUES, min_size=1, max_size=3))
    return cls, {**VALID[cls], **changed}


@settings(max_examples=300, deadline=None)
@given(builds())
def test_constructors_keep_the_field_rules(build):
    cls, kw = build
    try:
        obj = cls(**kw)
    except SupLabError as exc:
        message = str(exc)
        assert not meets_rules(cls, kw), message
        assert message.startswith(f"{cls.__name__}.") and "\n" not in message
        assert len(message) < 200   # a long integer is described, not printed
    else:
        assert meets_rules(cls, kw)
        assert all(getattr(obj, name) is kw[name] for name in kw)


def checked_classes(base=Checked):
    """Every dataclass of the package that derives from ``base``."""
    for cls in base.__subclasses__():
        if dataclasses.is_dataclass(cls) and cls.__module__.startswith("suplab."):
            yield cls
        yield from checked_classes(cls)


def misplaced_bounds(cls) -> list[str]:
    """The keys of ``cls._BOUNDS`` that name no int or float field, or hold an
    op other than ``> >= < <=``: rules that would never be checked."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    return [f"{cls.__name__}.{name}" for name, limits in cls._BOUNDS.items()
            if types.get(name) not in ("int", "float") or any(op not in OPS for op, _ in limits)]


def test_bounds_tables_name_numeric_fields():
    classes = set(checked_classes())
    assert classes == set(BOUNDS)
    assert [bad for cls in classes for bad in misplaced_bounds(cls)] == []

    @dataclasses.dataclass(frozen=True)
    class Misspelled(Checked):
        runtime: float
        count: int = 1
        _BOUNDS = {"runtme": ((">", 0),), "count": (("=>", 1),)}

    assert misplaced_bounds(Misspelled) == ["Misspelled.runtme", "Misspelled.count"]
