"""The array-backed simulator and trace builders against the reference loop
in ``tiersim_oracle``: equal ``PolicyOutcome``s, with plain Python scalars,
on generated small traces and on the full fixture traces."""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiersim_oracle as oracle
from suplab import devmodel as dm
from suplab import tiersim as ts

LOCAL = dm.PRESETS["local-emr"]
REMOTE = dm.PRESETS["cxl-b"]

MAKERS = ("two_phase", "deep_overlap", "no_overlap")


def assert_python_scalars(o: ts.PolicyOutcome) -> None:
    assert type(o.simulated_runtime) is float and type(o.allfast_runtime) is float
    assert type(o.promotions) is int and type(o.demotions) is int
    assert all(type(x) is int for x in o.promo_rate_series)
    for series in (o.amortized_latency_series, o.slow_tier_access_fraction_series,
                   o.gate_series, o.est_slowdown_series):
        assert all(type(x) is float for x in series)


def assert_matches_oracle(trace: ts.TierTrace, cfg: ts.PolicyConfig,
                          oracle_trace: ts.TierTrace | None = None) -> ts.PolicyOutcome:
    """``oracle_trace``, if given, is the same trace with list-of-pairs epochs."""
    got = ts.simulate(trace, cfg, LOCAL, REMOTE)
    assert got == oracle.simulate(trace if oracle_trace is None else oracle_trace, cfg, LOCAL, REMOTE)
    assert_python_scalars(got)
    return got


@st.composite
def configs(draw, page_count: int):
    return ts.PolicyConfig(
        policy=draw(st.sampled_from(ts.POLICIES)),
        fast_capacity=draw(st.integers(1, page_count)),
        promo_threshold_accesses=draw(st.integers(1, 3)),
        max_promo_rate=draw(st.integers(1, 20)),
    )


@st.composite
def traces_and_configs(draw):
    page_count = draw(st.integers(1, 64))
    touched = draw(st.integers(1, page_count))   # fewer pages touched: more reuse
    miss = st.tuples(st.integers(0, touched - 1), st.integers(1, 32))
    epochs = draw(st.lists(st.lists(miss, max_size=40), min_size=1, max_size=8)
                  .filter(lambda es: any(es)))
    trace = ts.TierTrace(epochs=[ts.TraceEpoch(demand_misses=e) for e in epochs],
                         page_count=page_count, wss_pages=page_count)
    return trace, draw(configs(page_count))


def spread(trace: ts.TierTrace, stride: int) -> ts.TierTrace:
    """The same trace with page id p renamed p * stride + 1."""
    return ts.TierTrace(
        epochs=[ts.TraceEpoch(demand_misses=[(p * stride + 1, g) for p, g in e.demand_misses])
                for e in trace.epochs],
        page_count=trace.page_count * stride + 1, wss_pages=trace.wss_pages)


@settings(max_examples=400, deadline=None)
@given(traces_and_configs())
def test_generated_traces_match_oracle(case):
    assert_matches_oracle(*case)


@st.composite
def gapped_traces_and_configs(draw):
    """A generated trace with runs of empty epochs around its epochs, and a
    config that is tpp, or alto with a gate that may be open at latency 0.0."""
    trace, cfg = draw(traces_and_configs())
    gap = st.integers(0, 5).map(lambda n: [ts.TraceEpoch(demand_misses=[])] * n)
    epochs = [epoch for e in trace.epochs for epoch in (*draw(gap), e)] + draw(gap)
    trace = ts.TierTrace(epochs=epochs, page_count=trace.page_count, wss_pages=trace.wss_pages)
    cfg = dataclasses.replace(cfg, policy=draw(st.sampled_from(("tpp", "alto"))))
    if cfg.policy == "alto" and draw(st.booleans()):   # the gate of an idle epoch is above 0
        cfg = dataclasses.replace(cfg, alto_lower=draw(st.floats(-200.0, -1.0)),
                                  alto_upper=draw(st.floats(1.0, 600.0)))
    return trace, cfg


@settings(max_examples=100, deadline=None)
@given(gapped_traces_and_configs())
def test_empty_epoch_runs_match_oracle(case):
    assert_matches_oracle(*case)


def test_promoted_then_demoted_in_one_epoch_ends_slow():
    # One fast slot: page 1 is promoted (evicting page 0), then evicted by
    # page 2's promotion in the same epoch, so its next miss is slow.
    epochs = [[(0, 1)], [(1, 1), (1, 1), (2, 1), (2, 1)], [(1, 1)]]
    trace = ts.TierTrace(epochs=[ts.TraceEpoch(demand_misses=e) for e in epochs],
                         page_count=3, wss_pages=3)
    cfg = ts.PolicyConfig(policy="tpp", fast_capacity=1, max_promo_rate=20)
    got = assert_matches_oracle(trace, cfg)
    assert got.promo_rate_series == [0, 2, 0] and got.demotions == 2
    assert got.slow_tier_access_fraction_series[2] == 1.0


def test_victim_may_be_page_promoted_earlier_in_epoch():
    # Pages 0 and 1 fill the fast tier, then are used after page 2's last
    # miss, so page 3's promotion evicts page 2, not page 1.
    epochs = [[(0, 1), (1, 1)], [(2, 1), (2, 1), (0, 1), (1, 1), (3, 1), (3, 1)], [(2, 1)]]
    trace = ts.TierTrace(epochs=[ts.TraceEpoch(demand_misses=e) for e in epochs],
                         page_count=4, wss_pages=4)
    cfg = ts.PolicyConfig(policy="tpp", fast_capacity=2, max_promo_rate=20)
    got = assert_matches_oracle(trace, cfg)
    assert got.slow_tier_access_fraction_series[2] == 1.0


def test_state_sized_by_pages_used_not_page_count():
    # A header may claim far more pages than the trace touches.
    epochs = [[(0, 1), (1, 1)], [(2, 1), (2, 1), (3, 1)]]
    trace = ts.TierTrace(epochs=[ts.TraceEpoch(demand_misses=e) for e in epochs],
                         page_count=10**15, wss_pages=4)
    assert_matches_oracle(trace, ts.PolicyConfig(policy="tpp", fast_capacity=1))


@settings(max_examples=100, deadline=None)
@given(traces_and_configs(), st.integers(2**21, 10**12))
def test_sparse_page_ids_match_oracle(case, stride):
    # Ids far apart: the simulator renumbers them densely instead of sizing
    # its per-page state by the largest id, and nothing else changes.
    trace, cfg = case
    assert assert_matches_oracle(spread(trace, stride), cfg) == ts.simulate(trace, cfg, LOCAL, REMOTE)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.one_of(st.just(1), st.integers(2**21, 10**12)))
def test_one_trace_under_several_configs_matches_oracle(data, stride):
    # The first simulation of a trace groups its misses by page (renumbering
    # sparse ids); the later ones, under other configs, reuse that grouping.
    trace, cfg = data.draw(traces_and_configs())
    cfgs = [cfg, *data.draw(st.lists(configs(trace.page_count), min_size=1, max_size=3))]
    trace = spread(trace, stride)
    for cfg in cfgs:
        assert_matches_oracle(trace, cfg)


@settings(max_examples=50, deadline=None)
@given(traces_and_configs(), st.lists(st.sampled_from(sorted(dm.PRESETS)), min_size=2, max_size=4))
def test_one_trace_under_several_local_devices_matches_oracle(case, names):
    # The all-fast stall sums a trace keeps are per fast-tier latency.
    trace, cfg = case
    for name in names:
        local = dm.PRESETS[name]
        assert ts.simulate(trace, cfg, local, REMOTE) == oracle.simulate(trace, cfg, local, REMOTE)


def assert_grouping_matches_oracle(trace: ts.TierTrace) -> None:
    got, want = trace._grouping, oracle.grouping(trace)
    assert got[1] == want[1] and len(got[2]) == len(want[2])
    for g, w in zip((got[0], *(x for epoch in got[2] for x in epoch)),
                    (want[0], *(x for epoch in want[2] for x in epoch))):
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        else:
            assert type(g) is type(w) and g == w


# Sizes on both sides of a power of two, since the longest epoch sets the bits
# that a packed sort key keeps for a miss's index.
EPOCH_SIZES = sorted({max(0, 2**k + d) for k in range(8) for d in (-1, 0, 1)})


@st.composite
def grouping_traces(draw):
    """Epochs of the sizes above, some empty, over few pages (so repeats) or
    many; their ids are spread past the renumbering threshold or not."""
    page_count = draw(st.sampled_from((1, 3, 40, 5000)))
    sizes = draw(st.lists(st.sampled_from(EPOCH_SIZES), min_size=1, max_size=8).filter(any))
    epochs = [draw(st.lists(st.integers(0, page_count - 1), min_size=n, max_size=n)) for n in sizes]
    trace = ts.TierTrace(epochs=[ts.TraceEpoch(demand_misses=[(p, 1) for p in e]) for e in epochs],
                         page_count=page_count, wss_pages=page_count)
    stride = draw(st.one_of(st.just(1), st.integers(2**21, 10**12)))
    return spread(trace, stride) if stride > 1 else trace


@settings(max_examples=300, deadline=None)
@given(grouping_traces())
def test_grouping_matches_argsort_oracle(trace):
    assert_grouping_matches_oracle(trace)


@pytest.mark.parametrize("name", MAKERS)
def test_fixture_grouping_matches_argsort_oracle(name):
    assert_grouping_matches_oracle(getattr(ts, f"make_{name}_trace")(1))


def test_sort_keys_at_the_63_bit_bound():
    # Two misses take one index bit, so pages below 2**62 leave every key
    # below 2**63: the largest is exactly 2**63 - 1.  One more page and the
    # keys are refused.
    offsets, sizes = np.array([0, 2]), np.array([2])
    keys, b = ts._sort_keys(np.array([0, 2**62 - 1]), 2**62, offsets, sizes)
    assert b == 1 and keys.tolist() == [0, 2**63 - 1]
    assert ts._sort_keys(np.array([0, 2**62]), 2**62 + 1, offsets, sizes)[0] is None
    # No trace of at most 2**29 misses is refused: past renumbering, n_pages
    # <= 8 * misses + 2**20, and its longest epoch is at most all its misses.
    misses = 2**29
    assert (8 * misses + 2**20 - 1).bit_length() + (misses - 1).bit_length() <= 63


@settings(max_examples=50, deadline=None)
@given(grouping_traces())
def test_grouping_without_sort_keys_matches_oracle(trace):
    # A trace whose keys could pass 2**63 is grouped by argsort, epoch by epoch.
    sort_keys = ts._sort_keys
    with mock.patch.object(ts, "_sort_keys", lambda *args: (None, sort_keys(*args)[1])):
        assert_grouping_matches_oracle(trace)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", MAKERS)
def test_fixture_traces_match_oracle(name, seed):
    trace = getattr(ts, f"make_{name}_trace")(seed)
    reference = getattr(oracle, f"make_{name}_trace")(seed)
    cfgs = [ts.PolicyConfig(policy="first_touch", fast_capacity=2500)]
    cfgs += [
        ts.PolicyConfig(policy=policy, fast_capacity=2500,
                        promo_threshold_accesses=threshold, max_promo_rate=rate)
        for policy in ("tpp", "alto") for threshold in (1, 2, 3) for rate in (500, 2000)
    ]
    for cfg in cfgs:
        assert_matches_oracle(trace, cfg, reference)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", MAKERS)
def test_builders_match_oracle_builders(name, seed):
    got = getattr(ts, f"make_{name}_trace")(seed)
    want = getattr(oracle, f"make_{name}_trace")(seed)
    assert (got.page_count, got.wss_pages, got.epoch_instructions) == \
        (want.page_count, want.wss_pages, want.epoch_instructions)
    assert len(got.epochs) == len(want.epochs)
    for g, w in zip(got.epochs, want.epochs):
        assert np.array_equal(g.demand_misses, np.array(w.demand_misses))
    for field in ("page_ids", "group_sizes", "epoch_offsets"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
