from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from suplab import breakdown as bd
from suplab import counters as cnt
from suplab import model as mdl
from suplab.errors import EmptyInput, InvariantViolation, SupLabError, ZeroDenominator

from conftest import snapshot

PARAMS = mdl.ModelParams(
    k1=0.6, k2=1.0, k3=2.0, k4=0.01, p=0.004, q=0.2, offcore_threshold=250.0
)


class TestModelParams:
    @pytest.mark.parametrize(
        "field,value",
        [("k1", 0.0), ("k1", -1.0), ("p", -0.1), ("q", 0.0), ("offcore_threshold", 0.0)],
    )
    def test_invalid_params_rejected(self, field, value):
        kwargs = dict(k1=1.0, k2=1.0, k3=1.0, k4=0.0, p=0.1, q=0.5, offcore_threshold=100.0)
        kwargs[field] = value
        with pytest.raises(InvariantViolation):
            mdl.ModelParams(**kwargs)

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "params.json"
        PARAMS.to_json(path)
        assert mdl.ModelParams.from_json(path) == PARAMS


class TestMetricDram:
    def test_zero_llc_stalls_zero_metric(self):
        s = snapshot(llc_miss_demand_stall_cycles=0)
        assert mdl.metric_dram(s, PARAMS) == 0.0

    def test_arithmetic(self):
        # P4/P1 = 0.4, amortized latency 200 cycles, p = 0.004, q = 0.2
        s = snapshot(
            total_cycles=10_000, stall_cycles_total=4_800, backend_stall_cycles=4_600,
            mem_stall_cycles=4_500, llc_miss_demand_stall_cycles=4_000,
            offcore_demand_requests=20, offcore_demand_occupancy=4_000,
        )
        expected = 0.4 * 1.0 / (0.004 * (1.0 / 200.0) + 0.2)
        assert mdl.metric_dram(s, PARAMS) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.9998, abs=1e-4)

    def test_overlap_suppresses_prediction(self):
        # equal P4/P1; amortized 40 vs 300 cycles
        deep = snapshot(offcore_demand_requests=100, offcore_demand_occupancy=4_000)
        shallow = snapshot(offcore_demand_requests=100, offcore_demand_occupancy=30_000)
        assert mdl.metric_dram(deep, PARAMS) < mdl.metric_dram(shallow, PARAMS)

    def test_no_demand_reads_collapses_to_1_over_q(self):
        s = snapshot(offcore_demand_requests=0, offcore_demand_occupancy=0)
        base = s.llc_miss_demand_stall_cycles / s.total_cycles
        assert mdl.metric_dram(s, PARAMS) == pytest.approx(base / PARAMS.q)

    def test_monotone_in_amortized_latency(self):
        lams = [20.0 + 15.0 * i for i in range(20)]
        vals = [
            mdl.metric_dram(
                snapshot(offcore_demand_requests=100,
                         offcore_demand_occupancy=100 * lam),
                PARAMS,
            )
            for lam in lams
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestMetricCache:
    def test_prefetchers_off_zero(self):
        s = snapshot(l1_prefetch_total=0, l1_prefetch_l3_miss=0)
        assert mdl.metric_cache(s) == 0.0

    def test_no_l2_side_stalls_zero(self):
        s = snapshot(mem_stall_cycles=1_500)  # equal to llc-miss stalls
        assert mdl.metric_cache(s) == 0.0

    def test_half_factors(self):
        s = snapshot(
            total_cycles=10_000, stall_cycles_total=6_800, backend_stall_cycles=6_600,
            mem_stall_cycles=6_500, llc_miss_demand_stall_cycles=1_500,
            l1_demand_hits=5_000, lfb_hits=5_000,
            l1_prefetch_total=1_000, l1_prefetch_l3_miss=500,
            l2_prefetch_l3_miss=600, l2_prefetch_l3_hit=600,
        )
        assert mdl.metric_cache(s) == pytest.approx(0.5 ** 4)

    def test_no_l2_prefetch_traffic_zero(self):
        s = snapshot(l2_prefetch_l3_miss=0, l2_prefetch_l3_hit=0)
        assert mdl.metric_cache(s) == 0.0


class TestMetricStore:
    def test_zero(self):
        assert mdl.metric_store(snapshot(store_buffer_full_stall_cycles=0)) == 0.0

    def test_direct_ratio(self):
        s = snapshot(store_buffer_full_stall_cycles=1_500, total_cycles=10_000)
        assert mdl.metric_store(s) == pytest.approx(0.15)


class TestZeroCycles:
    """A window with zero total cycles is a data error, not a ZeroDivisionError."""

    IDLE = dict(
        stall_cycles_total=0, backend_stall_cycles=0, mem_stall_cycles=0,
        llc_miss_demand_stall_cycles=0, store_buffer_full_stall_cycles=0,
        stall_l1=0, stall_l2=0, stall_l3=0, total_cycles=0,
    )

    @pytest.mark.parametrize("fn", [
        lambda s: mdl.metric_dram(s, PARAMS), mdl.metric_cache, mdl.metric_store,
        cnt.stall_fractions,
        lambda s: bd.decompose(cnt.RunPair(label="idle", local=s, remote=s,
                                           local_runtime=1.0, remote_runtime=1.0)),
    ])
    def test_raises_zero_denominator(self, fn):
        with pytest.raises(ZeroDenominator) as exc:
            fn(snapshot(**self.IDLE))
        assert isinstance(exc.value, SupLabError)
        assert not isinstance(exc.value, ZeroDivisionError)


class TestPredict:
    def test_zero_metrics_zero_prediction(self):
        s = snapshot(
            llc_miss_demand_stall_cycles=0, mem_stall_cycles=0,
            store_buffer_full_stall_cycles=0, l1_prefetch_total=0,
            l1_prefetch_l3_miss=0,
        )
        params = mdl.ModelParams(k1=0.6, k2=1.0, k3=2.0, k4=0.0, p=0.004, q=0.2,
                                 offcore_threshold=250.0)
        assert mdl.predict(s, params).s_pred == 0.0

    def test_affine_combination(self, base_snapshot):
        pred = mdl.predict(base_snapshot, PARAMS)
        expected = (
            PARAMS.k1 * pred.m_dram + PARAMS.k2 * pred.m_cache
            + PARAMS.k3 * pred.m_store + PARAMS.k4
        )
        assert pred.s_pred == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "kname,metric,bump",
        [
            # bumping P4 alone would also move the cache metric through
            # (P3 - P4); bump P3 alongside to isolate the DRAM metric
            ("k1", "m_dram", {"llc_miss_demand_stall_cycles": 1600, "mem_stall_cycles": 2100}),
            ("k2", "m_cache", {"mem_stall_cycles": 2400}),
            ("k3", "m_store", {"store_buffer_full_stall_cycles": 700}),
        ],
    )
    def test_finite_difference_sensitivities(self, base_snapshot, kname, metric, bump):
        before = mdl.predict(base_snapshot, PARAMS)
        after = mdl.predict(snapshot(**bump), PARAMS)
        dm_ = getattr(after, metric) - getattr(before, metric)
        assert dm_ != 0
        for other in ("m_dram", "m_cache", "m_store"):
            if other != metric:
                assert getattr(after, other) == getattr(before, other)
        slope = (after.s_pred - before.s_pred) / dm_
        assert slope == pytest.approx(getattr(PARAMS, kname), abs=1e-9)


class TestScaleInvariance:
    @pytest.mark.parametrize("lam", [2, 10, 1000])
    def test_metrics_invariant_under_counter_scaling(self, base_snapshot, lam):
        scaled = base_snapshot.scaled(lam)
        assert mdl.metric_dram(scaled, PARAMS) == pytest.approx(
            mdl.metric_dram(base_snapshot, PARAMS), rel=1e-12
        )
        assert mdl.metric_cache(scaled) == pytest.approx(
            mdl.metric_cache(base_snapshot), rel=1e-12
        )
        assert mdl.metric_store(scaled) == pytest.approx(
            mdl.metric_store(base_snapshot), rel=1e-12
        )


class TestClassifySensitivity:
    def test_boundary_is_latency_bound(self):
        s = snapshot(offcore_demand_requests=100, offcore_demand_occupancy=25_000)
        assert mdl.classify_sensitivity(s, PARAMS) == "latency_bound"  # exactly 250

    def test_above_threshold_bandwidth_bound(self):
        s = snapshot(offcore_demand_requests=100, offcore_demand_occupancy=25_100)
        assert mdl.classify_sensitivity(s, PARAMS) == "bandwidth_bound"

    def test_no_demand_reads_latency_bound_with_flag(self):
        s = snapshot(offcore_demand_requests=0, offcore_demand_occupancy=0)
        assert mdl.classify_sensitivity(s, PARAMS) == "latency_bound"
        assert mdl.predict(s, PARAMS).sensitivity == "latency_bound"

    def test_saturated_devmodel_run_is_bandwidth_bound(self):
        from suplab import devmodel as dm

        local = dm.PRESETS["local-emr"]
        params = dm.make_reference_params(local, dm.PRESETS["cxl-b"])
        w = dm.WorkloadProfile(
            name="sat", instructions=1e9, demand_miss_rate=10.0, mlp_depth=4.0,
            read_bandwidth_demand_gbs=0.95 * local.bandwidth_cap_gbs,
        )
        snap = dm.local_snapshot(w, local)
        assert mdl.classify_sensitivity(snap, params) == "bandwidth_bound"

    def test_pointer_chase_is_latency_bound(self):
        from suplab import devmodel as dm

        local = dm.PRESETS["local-emr"]
        params = dm.make_reference_params(local, dm.PRESETS["cxl-b"])
        w = dm.WorkloadProfile(name="ptr", instructions=1e9, demand_miss_rate=15.0,
                               mlp_depth=1.0)
        snap = dm.local_snapshot(w, local)
        assert mdl.classify_sensitivity(snap, params) == "latency_bound"


class TestEvaluateAccuracy:
    def test_perfect_points(self):
        pts = [(0.1, 0.1), (0.2, 0.2), (0.5, 0.5)]
        stats = mdl.evaluate_accuracy(pts)
        assert stats.pearson == pytest.approx(1.0)
        assert all(v == 1.0 for v in stats.within.values())

    def test_outlier_counting(self):
        pts = [(0.1 * i, 0.1 * i) for i in range(1, 10)] + [(1.0, 1.2)]
        stats = mdl.evaluate_accuracy(pts)
        assert stats.within[0.05] == pytest.approx(0.9)

    def test_constant_series_flagged(self):
        stats = mdl.evaluate_accuracy([(0.5, 0.1), (0.5, 0.2)])
        assert math.isnan(stats.pearson)

    def test_too_few_points(self):
        with pytest.raises(EmptyInput):
            mdl.evaluate_accuracy([(0.1, 0.1)])

    def test_pearson_anchor_suite(self):
        from suplab import devmodel as dm

        pts = dm.make_accuracy_suite(150, seed=5, tier="znuma",
                                     noise=dm.PEARSON_ANCHOR_NOISE)
        stats = mdl.evaluate_accuracy(pts)
        assert stats.pearson == pytest.approx(0.965, abs=0.02)


@given(lam=st.floats(min_value=1.0, max_value=1e6, allow_nan=False))
def test_mlp_correction_bounded(lam):
    f = mdl.mlp_correction(lam, PARAMS)
    assert 0 < f <= 1.0 / PARAMS.q + 1e-12
