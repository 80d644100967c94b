from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suplab import devmodel as dm
from suplab import tiersim as ts
from suplab.errors import EmptyTrace, InvariantViolation, dump_json

from test_tiersim_oracle import traces_and_configs

LOCAL = dm.PRESETS["local-emr"]
REMOTE = dm.PRESETS["cxl-b"]

CFG_KW = dict(fast_capacity=2500, promo_threshold_accesses=2, max_promo_rate=2000)


def cfg(policy: str, **kw) -> ts.PolicyConfig:
    merged = {**CFG_KW, **kw}
    return ts.PolicyConfig(policy=policy, **merged)


def small_trace(groups=(1, 1, 1), pages=(0, 1, 2), page_count=10) -> ts.TierTrace:
    epochs = [ts.TraceEpoch(demand_misses=list(zip(pages, groups)))]
    return ts.TierTrace(epochs=epochs, page_count=page_count, wss_pages=page_count)


class TestAltoGate:
    LOW, HIGH = 40.0, 100.0

    def test_below_lower_disabled(self):
        c = cfg("alto")
        for lam in (0.0, 10.0, 39.999):
            assert ts.alto_gate(lam, c) == 0.0

    def test_at_or_above_upper_unthrottled(self):
        c = cfg("alto")
        for lam in (100.0, 100.0001, 500.0):
            assert ts.alto_gate(lam, c) == 1.0

    def test_five_steps_on_ramp(self):
        c = cfg("alto")
        ramp = [30.0 + 8.0 * i for i in range(11)]  # 30 .. 110
        gates = [ts.alto_gate(lam, c) for lam in ramp]
        assert sorted(set(gates)) == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

    def test_nondecreasing(self):
        c = cfg("alto")
        lams = [i * 0.5 for i in range(0, 260)]
        gates = [ts.alto_gate(lam, c) for lam in lams]
        assert all(b >= a for a, b in zip(gates, gates[1:]))

    def test_quantized_to_steps(self):
        c = cfg("alto")
        for lam in (40.0, 47.0, 55.0, 69.9, 70.0, 84.9, 85.0, 99.9):
            g = ts.alto_gate(lam, c)
            assert g in (0.2, 0.4, 0.6, 0.8)

    def test_admit_first_two_of_every_ten(self):
        admitted = ts._admit(np.arange(25), 0.2)
        assert admitted.tolist() == [0, 1, 10, 11, 20, 21]


class TestTraceValidation:
    def test_empty_trace_rejected(self):
        with pytest.raises(EmptyTrace):
            ts.TierTrace(epochs=[], page_count=10, wss_pages=5)

    def test_all_empty_epochs_rejected(self):
        with pytest.raises(EmptyTrace):
            ts.TierTrace(epochs=[ts.TraceEpoch(demand_misses=[])], page_count=10,
                         wss_pages=5)

    def test_page_out_of_range(self):
        with pytest.raises(InvariantViolation, match=r"^epoch 0: page 99 out of range$"):
            small_trace(pages=(0, 99, 2))

    def test_group_size_positive(self):
        with pytest.raises(InvariantViolation, match=r"^epoch 0: group_size must be >= 1$"):
            small_trace(groups=(1, 0, 1))

    @pytest.mark.parametrize("value", [0, -1e9, float("nan"), float("inf")])
    def test_epoch_instructions_finite_positive(self, value):
        with pytest.raises(InvariantViolation):
            ts.TierTrace(epochs=small_trace().epochs, page_count=10, wss_pages=10,
                         epoch_instructions=value)

    def test_config_thresholds_ordered(self):
        with pytest.raises(InvariantViolation):
            cfg("alto", alto_lower=100.0, alto_upper=40.0)

    @pytest.mark.parametrize("field", ["promo_threshold_accesses", "max_promo_rate",
                                       "fast_capacity", "alto_steps"])
    def test_config_counts_are_integers(self, field):
        for value in (2.0, 2.5, True):
            with pytest.raises(InvariantViolation):
                cfg("tpp", **{field: value})


class TestSimulate:
    def test_fast_only_trace_identical_across_policies(self):
        trace = small_trace(page_count=10)
        runtimes = set()
        for policy in ts.POLICIES:
            o = ts.simulate(trace, cfg(policy, fast_capacity=10), LOCAL, REMOTE)
            assert o.promotions == 0 and o.demotions == 0
            runtimes.add(o.simulated_runtime)
        assert len(runtimes) == 1

    def test_determinism(self):
        trace = ts.make_two_phase_trace(seed=2)
        a = ts.simulate(trace, cfg("alto"), LOCAL, REMOTE)
        b = ts.simulate(trace, cfg("alto"), LOCAL, REMOTE)
        assert a == b

    def test_amortized_latency_semantics(self):
        # one epoch, two misses on slow pages with group sizes 1 and 3
        epochs = [
            ts.TraceEpoch(demand_misses=[(0, 1)]),  # page 0 -> fast (first touch)
            ts.TraceEpoch(demand_misses=[(1, 1), (2, 3)]),
        ]
        trace = ts.TierTrace(epochs=epochs, page_count=3, wss_pages=3)
        o = ts.simulate(trace, cfg("first_touch", fast_capacity=1), LOCAL, REMOTE)
        slow = dm.mean_latency_ns(REMOTE) * dm.CLOCK_GHZ
        assert o.amortized_latency_series[1] == pytest.approx((slow + slow / 3) / 2)

    def test_capacity_respected_and_conserved(self):
        trace = ts.make_two_phase_trace(seed=1)
        o = ts.simulate(trace, cfg("tpp"), LOCAL, REMOTE)
        # promotions that displace resident pages must demote one-for-one
        assert o.demotions >= o.promotions - CFG_KW["fast_capacity"]

    def test_alto_never_promotes_more_than_tpp(self):
        for seed in (0, 1, 2):
            for maker in (ts.make_two_phase_trace, ts.make_deep_overlap_trace,
                          ts.make_no_overlap_trace):
                trace = maker(seed)
                tpp = ts.simulate(trace, cfg("tpp"), LOCAL, REMOTE)
                alto = ts.simulate(trace, cfg("alto"), LOCAL, REMOTE)
                assert alto.promotions <= tpp.promotions

    def test_promotion_rate_peaks_at_cap(self):
        trace = ts.make_deep_overlap_trace(seed=0)
        o = ts.simulate(trace, cfg("tpp", max_promo_rate=500), LOCAL, REMOTE)
        assert max(o.promo_rate_series) == 500

    def test_free_promotion_helps_stable_hot_trace(self):
        # all-hot stable slow working set, zero migration cost
        epochs = [ts.TraceEpoch(demand_misses=[(p, 1) for p in range(4)])]
        for _ in range(10):
            epochs.append(ts.TraceEpoch(demand_misses=[(4 + (p % 4), 1) for p in range(8)]))
        trace = ts.TierTrace(epochs=epochs, page_count=8, wss_pages=8)
        kw = dict(fast_capacity=4, promo_threshold_accesses=2, max_promo_rate=100,
                  migration_cost_us=0.0)
        ft = ts.simulate(trace, ts.PolicyConfig(policy="first_touch", **kw), LOCAL, REMOTE)
        tpp = ts.simulate(trace, ts.PolicyConfig(policy="tpp", **kw), LOCAL, REMOTE)
        assert tpp.simulated_runtime <= ft.simulated_runtime


class TestFixtureBehaviors:
    def test_two_phase_alto_beats_tpp_and_tracks_first_touch(self):
        trace = ts.make_two_phase_trace(seed=1)
        ft = ts.simulate(trace, cfg("first_touch"), LOCAL, REMOTE)
        tpp = ts.simulate(trace, cfg("tpp"), LOCAL, REMOTE)
        alto = ts.simulate(trace, cfg("alto"), LOCAL, REMOTE)
        assert alto.simulated_runtime < tpp.simulated_runtime
        assert alto.simulated_runtime <= 1.06 * ft.simulated_runtime
        # phase 1 overlap gates alto promotions to ~zero while tpp runs hot
        assert sum(alto.promo_rate_series[:16]) == 0
        assert sum(tpp.promo_rate_series[:16]) > 1000

    def test_deep_overlap_alto_beats_tpp_by_1p5x(self):
        trace = ts.make_deep_overlap_trace(seed=1)
        tpp = ts.simulate(trace, cfg("tpp"), LOCAL, REMOTE)
        alto = ts.simulate(trace, cfg("alto"), LOCAL, REMOTE)
        assert tpp.simulated_runtime / alto.simulated_runtime >= 1.5

    def test_no_overlap_alto_tracks_tpp(self):
        trace = ts.make_no_overlap_trace(seed=1)
        tpp = ts.simulate(trace, cfg("tpp"), LOCAL, REMOTE)
        alto = ts.simulate(trace, cfg("alto"), LOCAL, REMOTE)
        assert alto.simulated_runtime == pytest.approx(tpp.simulated_runtime, rel=0.05)

    def test_two_phase_amortized_latency_profile(self):
        trace = ts.make_two_phase_trace(seed=1)
        o = ts.simulate(trace, cfg("alto"), LOCAL, REMOTE)
        phase1 = o.amortized_latency_series[1:16]
        phase2 = o.amortized_latency_series[16:]
        assert max(phase1) < 40.0
        assert min(phase2) > 100.0


class TestComparePolicies:
    def test_baseline_normalizes_to_one(self):
        trace = small_trace(page_count=5)
        rows, _ = ts.compare_policies(
            trace, [ts.PolicyConfig(policy="first_touch", fast_capacity=5)],
            LOCAL, REMOTE,
        )
        assert rows[0]["normalized_runtime"] == pytest.approx(1.0)

    @pytest.mark.parametrize("maker", [
        ts.make_two_phase_trace, ts.make_deep_overlap_trace, ts.make_no_overlap_trace,
    ])
    def test_baseline_equals_simulated_all_fast_run(self, maker):
        # Oracle: the explicit all-fast simulation compare_policies used to run.
        trace = maker(0)
        baseline = ts.simulate(
            trace, ts.PolicyConfig(policy="first_touch", fast_capacity=trace.page_count),
            LOCAL, REMOTE,
        )
        rows, outcomes = ts.compare_policies(trace, [cfg(p) for p in ts.POLICIES], LOCAL, REMOTE)
        for row, outcome in zip(rows, outcomes):
            assert outcome.allfast_runtime == baseline.simulated_runtime
            assert row["normalized_runtime"] == outcome.simulated_runtime / baseline.simulated_runtime

    def test_rows_cover_policies(self):
        trace = ts.make_no_overlap_trace(seed=0)
        rows, _ = ts.compare_policies(trace, [cfg(p) for p in ts.POLICIES], LOCAL, REMOTE)
        assert [r["policy"] for r in rows] == list(ts.POLICIES)


class TestGroupingShared:
    def test_grouped_once_per_trace(self, monkeypatch):
        # The per-epoch grouping of a trace's misses is made on its first
        # simulation and reused by every later one, whatever the policy; so
        # are its all-fast stall sums, once per fast-tier latency.
        groupings, sims, allfast = [], [], []
        prop = vars(ts.TierTrace)["_grouping"]
        group, simulate = prop.func, ts.simulate

        def counting_group(trace):
            groupings.append(id(trace))
            return group(trace)

        def counting_simulate(trace, c, *args, **kwargs):
            sims.append(c.policy)
            return simulate(trace, c, *args, **kwargs)

        class CountingCache(dict):
            def __setitem__(self, fast_lat, sums):
                allfast.append(fast_lat)
                super().__setitem__(fast_lat, sums)

        monkeypatch.setattr(prop, "func", counting_group)
        monkeypatch.setattr(ts, "simulate", counting_simulate)
        trace = ts.make_no_overlap_trace(seed=0)
        trace.__dict__["_allfast_cache"] = CountingCache()
        ts.compare_policies(trace, [cfg(p) for p in ts.POLICIES], LOCAL, REMOTE)
        assert sims == list(ts.POLICIES)
        assert groupings == [id(trace)]
        assert allfast == [dm.latency_cycles(LOCAL)]
        ts.simulate(trace, cfg("alto", max_promo_rate=7), LOCAL, REMOTE)
        assert groupings == [id(trace)] and len(allfast) == 1
        numa = dm.PRESETS["numa"]
        ts.simulate(trace, cfg("first_touch"), numa, REMOTE)
        assert groupings == [id(trace)]
        assert allfast == [dm.latency_cycles(LOCAL), dm.latency_cycles(numa)]
        other = ts.TierTrace(epochs=trace.epochs, page_count=trace.page_count,
                             wss_pages=trace.wss_pages)
        ts.simulate(other, cfg("tpp"), LOCAL, REMOTE)
        assert groupings == [id(trace), id(other)]


class TestEpochReport:
    def test_single_epoch_single_row(self, tmp_path):
        o = ts.simulate(small_trace(page_count=5), cfg("first_touch", fast_capacity=5),
                        LOCAL, REMOTE)
        ts.write_epoch_report_csv(o, tmp_path / "epochs.csv")
        assert len((tmp_path / "epochs.csv").read_text().splitlines()[1:]) == 1

    def test_gate_series_steps_through_ramp(self):
        # synthetic ramp of amortized latency from ~30 to ~110 cycles via
        # group sizes against the slow tier
        slow_cyc = dm.mean_latency_ns(REMOTE) * dm.CLOCK_GHZ
        targets = [30.0, 46.0, 62.0, 78.0, 94.0, 110.0]
        epochs = [ts.TraceEpoch(demand_misses=[(0, 1)])]  # page 0 fast
        for t in targets:
            g = max(1, round(slow_cyc / t))
            epochs.append(ts.TraceEpoch(demand_misses=[(1, g)] * 50))
        trace = ts.TierTrace(epochs=epochs, page_count=2, wss_pages=2)
        o = ts.simulate(
            trace,
            ts.PolicyConfig(policy="alto", fast_capacity=1,
                            promo_threshold_accesses=10**9),
            LOCAL, REMOTE,
        )
        assert sorted(set(o.gate_series[1:])) == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

    def test_report_csv(self, tmp_path):
        o = ts.simulate(small_trace(page_count=5), cfg("first_touch", fast_capacity=5),
                        LOCAL, REMOTE)
        path = tmp_path / "epochs.csv"
        ts.write_epoch_report_csv(o, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,amortized_latency,promo_rate,slow_fraction,est_slowdown"
        assert len(lines) == 2


class TestTraceIo:
    def test_roundtrip(self, tmp_path):
        trace = ts.make_no_overlap_trace(seed=3)
        ts.write_trace(trace, tmp_path / "t.csv", tmp_path / "t.json")
        back = ts.read_trace(tmp_path / "t.csv", tmp_path / "t.json")
        assert (back.page_count, back.wss_pages, back.epoch_instructions) == \
            (trace.page_count, trace.wss_pages, trace.epoch_instructions)
        for field in ("page_ids", "group_sizes", "epoch_offsets"):
            assert np.array_equal(getattr(back, field), getattr(trace, field))
        assert all(e.demand_misses.base is not None for e in back.epochs)   # views, not copies

    @pytest.mark.parametrize("name", ["two_phase", "deep_overlap", "no_overlap"])
    def test_header_bytes(self, tmp_path, name):
        # the documented four-key header, written out here rather than through TraceHeader
        trace = getattr(ts, f"make_{name}_trace")(1)
        ts.write_trace(trace, tmp_path / "t.csv", tmp_path / "t.json")
        dump_json(tmp_path / "want.json", {
            "page_count": trace.page_count, "wss_pages": trace.wss_pages,
            "epoch_instructions": trace.epoch_instructions, "epochs": len(trace.epochs)})
        assert (tmp_path / "t.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(traces_and_configs(), st.randoms(use_true_random=False))
    def test_file_order_does_not_matter(self, tmp_path_factory, case, rnd):
        # Rows shuffled across epochs, each epoch's rows kept in order, read the
        # same as the sorted file write_trace writes.
        trace, config = case
        d = tmp_path_factory.mktemp("order")
        ts.write_trace(trace, d / "sorted.csv", d / "t.json")
        head, *rows = (d / "sorted.csv").read_text().splitlines()
        labels = [row.split(",")[0] for row in rows]
        by_epoch = {e: iter([r for r, label in zip(rows, labels) if label == e]) for e in labels}
        rnd.shuffle(labels)
        (d / "shuffled.csv").write_text("\n".join([head] + [next(by_epoch[e]) for e in labels]) + "\n")
        got, want = (ts.read_trace(d / name, d / "t.json") for name in ("shuffled.csv", "sorted.csv"))
        for field in ("page_ids", "group_sizes", "epoch_offsets"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert [len(e.demand_misses) for e in got.epochs] == \
            [len(e.demand_misses) for e in want.epochs] == \
            [len(e.demand_misses) for e in trace.epochs]
        for policy in ts.POLICIES:
            c = dataclasses.replace(config, policy=policy)
            assert ts.simulate(got, c, LOCAL, REMOTE) == ts.simulate(want, c, LOCAL, REMOTE)
