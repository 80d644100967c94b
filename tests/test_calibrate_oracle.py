"""The table-driven sequential fit against the per-kind step functions in
``calibrate_oracle``: ``repr``-equal ``ModelParams``, or the same error with
the same message, on generated run sets."""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

import calibrate_oracle as oracle
from suplab import calibrate as cal
from suplab import devmodel as dm
from suplab.errors import SupLabError

LOCAL = dm.PRESETS["local-emr"]
REMOTE = dm.PRESETS["cxl-b"]

# Counter edits that zero one step's divisor: the store metric (P7/P1) and,
# through the LFB-hit share, the cache metric.
_ZEROED = {"store_bound": {"store_buffer_full_stall_cycles": 0.0},
           "list_traversal": {"lfb_hits": 0.0}}


def _edited(run: cal.CalibrationRun, **counters) -> cal.CalibrationRun:
    """``run`` with ``counters`` replaced in its local snapshot."""
    local = dataclasses.replace(run.pair.local, **counters)
    return cal.CalibrationRun(run.kind, dataclasses.replace(run.pair, local=local))


def _outcome(fit, runs):
    try:
        return repr(fit(runs))
    except SupLabError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def run_sets(draw):
    truth = dm.make_reference_params(
        LOCAL, REMOTE, q=draw(st.floats(0.2, 0.8)), k2_scale=draw(st.floats(0.5, 2.0)),
        k3_scale=draw(st.floats(0.5, 2.0)), k4=draw(st.sampled_from((0.0, 0.02))))
    runs = dm.make_calibration_runs(LOCAL, REMOTE, truth, seed=draw(st.integers(0, 2**20)),
                                    noise=draw(st.sampled_from((0.0, 0.01, 0.05))))
    if draw(st.booleans()):
        runs = [r for r in runs if r.kind != "mixed"]
    leak = draw(st.sampled_from((0.0, 0.2, 0.9)))
    if leak:   # list traversals gain store stalls, so the k2 step subtracts the k3 term
        runs = [_edited(r, store_buffer_full_stall_cycles=leak * (
            r.pair.local.backend_stall_cycles - r.pair.local.mem_stall_cycles))
            if r.kind == "list_traversal" else r for r in runs]
    kind = draw(st.sampled_from((None, *_ZEROED)))
    if kind:   # one run of that kind loses its step's metric
        i = draw(st.sampled_from([i for i, r in enumerate(runs) if r.kind == kind]))
        runs[i] = _edited(runs[i], **_ZEROED[kind])
    return draw(st.permutations(runs))


@settings(max_examples=150, deadline=None)
@given(run_sets())
def test_fit_matches_oracle(runs):
    assert _outcome(cal.fit_sequential, runs) == _outcome(oracle.fit_sequential, runs)


def test_zeroed_metrics_name_their_run():
    runs = dm.make_calibration_runs(LOCAL, REMOTE, dm.make_reference_params(LOCAL, REMOTE))
    for kind, edit in _ZEROED.items():
        i = next(i for i, r in enumerate(runs) if r.kind == kind)
        bad = [*runs[:i], _edited(runs[i], **edit), *runs[i + 1:]]
        metric = "store" if kind == "store_bound" else "cache"
        want = ("DegenerateMetric", f"{kind} run {runs[i].pair.label!r} has zero {metric} metric")
        assert _outcome(cal.fit_sequential, bad) == _outcome(oracle.fit_sequential, bad) == want
