"""Relations the tiering simulator must satisfy, checked without the oracle.

The regulated policy gives exact relations: a promotion gate that is always
fully open is TPP, and one that never opens is first-touch placement.  Every
tie-break is by miss index, never by page id, so relabelling the pages changes
no outcome; and with a fast tier big enough for every page, first-touch runs
all-fast.  An epoch without misses changes no state, so inserting idle epochs
only inserts idle values into the series; and each cost parameter reaches one
output: ``epoch_instructions`` only the estimated slowdowns, and
``migration_cost_us`` only the simulated runtime.  These hold bit for bit, so
they check the kernel on generated traces far larger than the reference loop
in ``tiersim_oracle`` can run, and on the fixture traces.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suplab import devmodel as dm
from suplab import tiersim as ts

LOCAL = dm.PRESETS["local-emr"]
REMOTE = dm.PRESETS["cxl-b"]

GATE_OPEN = {"alto_lower": -2.0, "alto_upper": -1.0}     # no latency is below -1
GATE_SHUT = {"alto_lower": 1e300, "alto_upper": 2e300}   # no finite latency reaches 1e300


def flat_trace(pages: np.ndarray, groups: np.ndarray, offsets: np.ndarray,
               page_count: int, epoch_instructions: float = 1e9) -> ts.TierTrace:
    """A trace whose epoch i holds the misses ``offsets[i]:offsets[i + 1]``."""
    misses = np.column_stack((pages, groups))
    return ts.TierTrace(epochs=[ts.TraceEpoch(misses[lo:hi]) for lo, hi in
                                zip(offsets[:-1], offsets[1:])],
                        page_count=page_count, wss_pages=page_count,
                        epoch_instructions=epoch_instructions)


def relabelled(trace: ts.TierTrace, permutation: np.ndarray) -> ts.TierTrace:
    """The same trace with page p renamed ``permutation[p]``."""
    return flat_trace(permutation[trace.page_ids], trace.group_sizes, trace.epoch_offsets,
                      trace.page_count)


def with_idle_epochs(trace: ts.TierTrace,
                     rng: np.random.Generator) -> tuple[ts.TierTrace, np.ndarray]:
    """The trace with runs of 0-3 empty epochs inserted before, between and after
    its epochs, each epoch twice as long, and the new index of each old epoch."""
    inserted = rng.integers(0, 4, len(trace.epoch_offsets))
    busy_at = np.arange(len(inserted) - 1) + np.cumsum(inserted[:-1])
    offsets = trace.epoch_offsets
    new_offsets = np.concatenate([np.repeat(offsets, inserted), offsets])
    new_offsets.sort(kind="stable")
    return flat_trace(trace.page_ids, trace.group_sizes, new_offsets, trace.page_count,
                      2 * trace.epoch_instructions), busy_at


SERIES = ("promo_rate_series", "amortized_latency_series", "slow_tier_access_fraction_series",
          "gate_series", "est_slowdown_series")


def without(outcome: ts.PolicyOutcome, *names: str) -> dict:
    """The outcome's fields but ``names``, not copied (``asdict`` would deep-copy
    every series, element by element)."""
    return {name: value for name, value in vars(outcome).items() if name not in names}


def all_but_policy(outcome: ts.PolicyOutcome) -> dict:
    return without(outcome, "policy")


def check_gate_and_capacity(trace: ts.TierTrace, run, outcomes: dict, *capacities: int) -> None:
    """Gate always open equals tpp, gate always shut equals first_touch, and
    first_touch with a fast tier of each of ``capacities`` pages runs all-fast;
    ``run(trace, policy, **changes)`` simulates, ``outcomes`` holds tpp's and
    first_touch's outcomes."""
    assert all_but_policy(run(trace, "alto", **GATE_OPEN)) == all_but_policy(outcomes["tpp"])
    assert all_but_policy(run(trace, "alto", **GATE_SHUT)) == \
        all_but_policy(outcomes["first_touch"])
    for capacity in capacities:
        big = run(trace, "first_touch", fast_capacity=capacity)
        assert big.simulated_runtime == big.allfast_runtime


def runner(**cfg):
    """``run(trace, policy, **changes)``: simulate under the policy config
    fields ``cfg``, updated by ``changes``."""
    def run(tr: ts.TierTrace, policy: str, **changes) -> ts.PolicyOutcome:
        return ts.simulate(tr, ts.PolicyConfig(policy=policy, **{**cfg, **changes}), LOCAL, REMOTE)
    return run


def check_relations(trace: ts.TierTrace, seed: int, **cfg) -> None:
    """The six relations on one trace, under the policy config fields ``cfg``."""
    def config(policy: str, **changes) -> ts.PolicyConfig:
        return ts.PolicyConfig(policy=policy, **{**cfg, **changes})

    run = runner(**cfg)
    outcomes = {policy: run(trace, policy) for policy in ts.POLICIES}
    check_gate_and_capacity(trace, run, outcomes, trace.page_count, 2 * trace.page_count)

    other = relabelled(trace, np.random.default_rng(seed).permutation(trace.page_count))
    for policy in ts.POLICIES:
        assert run(other, policy) == outcomes[policy], policy

    # Idle epochs inserted, and each epoch twice as long: the same totals; at the
    # busy epochs the same series but for the estimated slowdowns, which halve;
    # at the idle epochs the idle values.
    idle, busy_at = with_idle_epochs(trace, np.random.default_rng(seed))
    idle_at = np.setdiff1d(np.arange(len(idle.epoch_offsets) - 1), busy_at)
    for policy, outcome in outcomes.items():
        got = run(idle, policy)
        assert without(got, *SERIES) == without(outcome, *SERIES), policy
        idle_gate = ts.alto_gate(0.0, config(policy)) if policy == "alto" else float(policy == "tpp")
        for name, idle_value in zip(SERIES, (0, 0.0, 0.0, idle_gate, 0.0)):
            expected = getattr(outcome, name)
            if name == "est_slowdown_series":
                expected = [v / 2 for v in expected]
            series = np.array(getattr(got, name))
            assert series[busy_at].tolist() == expected, (policy, name)
            assert (series[idle_at] == idle_value).all(), (policy, name)

    # A dearer migration changes the simulated runtime only, and only if a page moved.
    for policy, outcome in outcomes.items():
        got = run(trace, policy, migration_cost_us=2 * config(policy).migration_cost_us + 1.0)
        assert without(got, "simulated_runtime") == without(outcome, "simulated_runtime")
        assert (got.simulated_runtime > outcome.simulated_runtime) == (outcome.promotions > 0)


@st.composite
def traces(draw) -> tuple[ts.TierTrace, int]:
    """A trace of up to 50,000 misses over up to 1,000 epochs, some of them
    idle, and a seed.  Pages are drawn with a skew toward low ids, so some are
    hot enough to cross a promotion threshold."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_misses = draw(st.integers(1, 50_000))
    n_epochs = draw(st.integers(1, 1_000))
    page_count = draw(st.integers(1, 5_000))
    touched = draw(st.sampled_from([page_count, max(1, page_count // 8)]))
    skew = draw(st.sampled_from([1.0, 4.0]))
    max_group = draw(st.sampled_from([1, 4, 32]))
    rng = np.random.default_rng(seed)
    epoch_of_miss = np.sort(rng.integers(0, n_epochs, n_misses))
    offsets = np.searchsorted(epoch_of_miss, np.arange(n_epochs + 1))
    pages = (touched * rng.random(n_misses) ** skew).astype(np.int64)
    groups = rng.integers(1, max_group + 1, n_misses)
    return flat_trace(pages, groups, offsets, page_count), seed


@settings(max_examples=12, deadline=None)
@given(traces(), st.integers(1, 3), st.sampled_from([1, 50, 2000]), st.data())
def test_relations_on_generated_traces(case, threshold, rate, data):
    trace, seed = case
    capacity = data.draw(st.integers(1, trace.page_count), label="fast_capacity")
    check_relations(trace, seed, fast_capacity=capacity, promo_threshold_accesses=threshold,
                    max_promo_rate=rate)


@pytest.mark.parametrize("threshold", [1, 2, 3])
@pytest.mark.parametrize("name", ["two_phase", "deep_overlap", "no_overlap"])
def test_relations_on_fixture_traces(name, threshold):
    trace = getattr(ts, f"make_{name}_trace")(1)
    check_relations(trace, seed=threshold, fast_capacity=2500,
                    promo_threshold_accesses=threshold, max_promo_rate=2000)


def deep_overlap_trace(stream_epochs: int, seed: int) -> ts.TierTrace:
    """``tiersim.make_deep_overlap_trace(seed)`` streaming over ``stream_epochs``
    epochs of 4,000 pages, each missed twice, instead of 60."""
    page_count, hot = 40000, 2500
    cursor = int(np.random.default_rng(seed).integers(0, page_count - hot))
    stream = hot + (cursor + np.arange(stream_epochs * 4000)) % (page_count - hot)
    pages = np.concatenate([np.arange(hot), np.repeat(stream, 2)])
    offsets = np.concatenate([[0], hot + 8000 * np.arange(stream_epochs + 1)])
    return flat_trace(pages, np.full(len(pages), 16), offsets, page_count)


def test_gate_and_capacity_relations_at_ten_times_deep_overlap():
    fixture, built = ts.make_deep_overlap_trace(1), deep_overlap_trace(60, seed=1)
    for name in ("page_ids", "group_sizes", "epoch_offsets"):
        assert getattr(built, name).tolist() == getattr(fixture, name).tolist(), name
    # 600 stream epochs, 4.8M misses.  Only the three cheap relations run at this
    # size: all six take about 5 s, past the suite's time budget.
    trace = deep_overlap_trace(600, seed=1)
    run = runner(fast_capacity=2500, promo_threshold_accesses=2, max_promo_rate=2000)
    outcomes = {policy: run(trace, policy) for policy in ("tpp", "first_touch")}
    assert outcomes["tpp"].promotions > 0
    check_gate_and_capacity(trace, run, outcomes, trace.page_count)


def test_gate_and_capacity_relations_at_max_epochs(tmp_path):
    # MAX_EPOCHS epochs, 1,000 of them busy with 20 misses each, on pages skewed
    # toward low ids: written as trace files, read back, then the three cheap relations.
    rng = np.random.default_rng(1)
    epochs = np.repeat(np.sort(rng.choice(ts.MAX_EPOCHS, 1_000, replace=False)), 20)
    pages = (2_000 * rng.random(20_000) ** 4).astype(np.int64)
    groups = rng.integers(1, 5, 20_000)
    np.savetxt(tmp_path / "t.csv", np.column_stack((epochs, pages, groups)), fmt="%d",
               delimiter=",", header="epoch,page_id,group_size", comments="")
    (tmp_path / "t.json").write_text(json.dumps(
        {"epochs": ts.MAX_EPOCHS, "page_count": 2_000, "wss_pages": 2_000}))
    trace = ts.read_trace(tmp_path / "t.csv", tmp_path / "t.json")
    offsets = np.searchsorted(epochs, np.arange(ts.MAX_EPOCHS + 1))
    for name, want in (("page_ids", pages), ("group_sizes", groups), ("epoch_offsets", offsets)):
        assert np.array_equal(getattr(trace, name), want), name
    run = runner(fast_capacity=100, promo_threshold_accesses=2, max_promo_rate=2000)
    outcomes = {policy: run(trace, policy) for policy in ("tpp", "first_touch")}
    assert outcomes["tpp"].promotions > 0
    assert len(outcomes["tpp"].gate_series) == ts.MAX_EPOCHS
    check_gate_and_capacity(trace, run, outcomes, trace.page_count)
