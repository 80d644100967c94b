"""The queueing curve, the ratio scan and its minimum against their scalar
forms in ``interleave_oracle``: the same curve, compared NaN-aware through the
``repr`` of its Python floats, or the same error, for every generated
workload, device profile, grid and jitter; the same queueing delay at each
load, as a float or an array; and the same best point on every curve."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interleave_oracle as oracle
from suplab import devmodel as dm
from suplab import interleave as il
from suplab.errors import EmptyInput, LoadOutOfRange


def _outcome(scan, *args, **kwargs):
    """The curve as ``(x, runtime)`` tuples of Python floats, whose ``repr``
    keeps every digit (an array's ``repr`` rounds), or the error."""
    try:
        return repr([tuple(p) for p in np.asarray(scan(*args, **kwargs)).tolist()])
    except Exception as exc:   # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


def _magnitudes(low: float, high: float = 1e308) -> st.SearchStrategy[float]:
    """Finite floats in [low, high], small, typical and near-overflow alike."""
    return st.one_of(st.floats(low, min(high, 1e4)), st.floats(low, high))


WORKLOADS = st.one_of(
    st.sampled_from([*dm.make_workload_suite(8, seed=1),
                     *dm.make_bandwidth_bound_suite(8, seed=1, local=dm.PRESETS["local-emr"])]),
    st.builds(
        dm.WorkloadProfile,
        name=st.just("w"),
        instructions=_magnitudes(1e-300),
        demand_miss_rate=_magnitudes(0.0),
        mlp_depth=_magnitudes(1.0),
        prefetch_reliance=st.floats(0.0, 1.0),
        store_intensity=st.floats(0.0, 1.0),
        read_bandwidth_demand_gbs=st.one_of(st.just(0.0), _magnitudes(0.0)),
    ),
)
DEVICES = st.one_of(
    st.sampled_from(list(dm.PRESETS.values())),
    st.builds(
        dm.DeviceProfile,
        name=st.just("d"),
        base_latency_ns=_magnitudes(5e-324),
        bandwidth_cap_gbs=st.one_of(_magnitudes(1e-300), st.floats(1e-300, 1e-3)),
        tail_prob=st.floats(0.0, 0.1, exclude_max=True),
        tail_scale_ns=_magnitudes(0.0),
        numa_hop_extra_ns=st.one_of(st.just(0.0), _magnitudes(0.0)),
    ),
)


@settings(max_examples=60, deadline=None)
@given(WORKLOADS, DEVICES, DEVICES, st.integers(2, 1001), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.01]))
def test_scan_matches_the_per_point_loop(w, local, remote, grid, seed, jitter_rel):
    args = (w, local, remote)
    kwargs = {"grid": grid, "seed": seed, "jitter_rel": jitter_rel}
    assert _outcome(il.scan_ratios, *args, **kwargs) == _outcome(oracle.scan_ratios, *args, **kwargs)


RUNTIMES = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 2.0, float("inf"), float("-inf")]),
                     st.floats(allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), RUNTIMES),
                min_size=1, max_size=12))
def test_best_point_matches_the_python_key_minimum(points):
    # x rises along a scan's grid, so the curves here are sorted by x; ties in
    # runtime, -0.0 beside 0.0 (in x or runtime) and infinite runtimes included
    points.sort(key=lambda pt: pt[0])
    best = il.best_scan_point(np.array(points, dtype=float))
    assert repr(best) == repr(oracle.best_scan_point(points))


def test_best_point_of_an_empty_curve():
    with pytest.raises(EmptyInput, match="^empty scan curve$"):
        il.best_scan_point(np.empty((0, 2)))


KNEE = dm.OVERLOAD_KNEE
LOADS = [0.0, -0.0, -1e-300, -1.0, -1e308, 5e-324, 0.5, np.nextafter(KNEE, 0.0), KNEE,
         np.nextafter(KNEE, 2.0), 1.0, 2.0, 1e300, 1e308, float("inf"), float("nan")]
CURVE_DEVICES = [dm.PRESETS["cxl-b"],
                 dm.DeviceProfile(name="tiny", base_latency_ns=5e-324, bandwidth_cap_gbs=1.0),
                 dm.DeviceProfile(name="huge", base_latency_ns=1e308, bandwidth_cap_gbs=1.0)]


@pytest.mark.parametrize("dev", CURVE_DEVICES, ids=lambda d: d.name)
def test_queueing_curve_on_floats_and_arrays(dev):
    expected = [repr(oracle.queueing_delay_ns(dev, float(load))) for load in LOADS]
    with np.errstate(over="ignore", invalid="ignore"):   # 0.0 * inf on the tiny device
        assert [repr(float(dm.queueing_delay_ns(dev, float(load)))) for load in LOADS] == expected
        assert list(map(repr, dm.queueing_delay_ns(dev, np.array(LOADS)).tolist())) == expected


def test_negative_load_rejected_as_float_or_in_an_array():
    dev = dm.PRESETS["cxl-b"]
    for load in (-1.0, np.array([0.5, -1.0, 0.2])):
        with pytest.raises(LoadOutOfRange, match=r"^load must be >= 0, got -1\.0$"):
            dm.mean_latency_ns(dev, load)
    assert dm.mean_latency_ns(dev, np.array([0.0, 0.5])).tolist() == \
        [oracle.mean_latency_ns(dev, 0.0), oracle.mean_latency_ns(dev, 0.5)]
