from __future__ import annotations

import tracemalloc

import pytest

from suplab import breakdown as bd
from suplab import devmodel as dm
from suplab import interleave as il
from suplab.errors import EmptyInput, InconsistentProfile, InvariantViolation, MissingFit

SKX_LOCAL = dm.DeviceProfile(name="skx-local", base_latency_ns=90.0, bandwidth_cap_gbs=50.0)
SKX_ZNUMA = dm.DeviceProfile(name="skx-znuma", base_latency_ns=140.0, bandwidth_cap_gbs=30.0)
SKX_PARAMS = dm.make_reference_params(SKX_LOCAL, SKX_ZNUMA)


@pytest.fixture(scope="module")
def skx_fit():
    wls = dm.make_bandwidth_bound_suite(8, seed=17, local=SKX_LOCAL)
    return il.fit_interleave(wls, SKX_LOCAL, SKX_ZNUMA, SKX_PARAMS, grid=101, seed=4)


class TestInterleaveRatio:
    def test_out_of_range_rejected(self):
        with pytest.raises(InvariantViolation):
            il.InterleaveRatio(1.5)


class TestForecastInvariant:
    def test_beneficial_requires_positive_speedup(self):
        with pytest.raises(InvariantViolation):
            il.InterleaveForecast(
                label="x", r_dram=1.0, r_cache=0.0, r_store=0.0,
                best_ratio=il.InterleaveRatio(0.3), predicted_speedup=0.0,
                beneficial=True,
            )


class TestSlowdownAt:
    def _components(self, total: float) -> bd.SlowdownReport:
        per = total / 5.0
        return bd.SlowdownReport(
            label="x", total_measured=total, total_stall_estimate=total,
            total_backend_estimate=total,
            components={k: per for k in ("store", "L1", "L2", "L3", "DRAM")},
            residual=0.0,
        )

    def test_zero_ratio(self):
        assert il.slowdown_at(0.0, self._components(0.4)) == 0.0

    def test_full_remote_endpoint(self):
        rep = self._components(0.4)
        assert il.slowdown_at(1.0, rep) == pytest.approx(0.4)

    def test_halfway(self):
        rep = self._components(0.30)
        assert il.slowdown_at(0.5, rep) == pytest.approx(0.15)

    def test_linearity(self):
        rep = self._components(0.8)
        for alpha in (0.1, 0.25, 0.7):
            assert il.slowdown_at(alpha * 0.9, rep) == pytest.approx(
                alpha * il.slowdown_at(0.9, rep)
            )


class TestScanRatios:
    def test_grid_too_small(self):
        w = dm.make_workload_suite(1, seed=0)[0]
        with pytest.raises(InvariantViolation):
            il.scan_ratios(w, SKX_LOCAL, SKX_ZNUMA, grid=1, seed=0)

    def test_grid_cap_checked_before_scanning(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        w = dm.make_workload_suite(1, seed=0)[0]
        monkeypatch.setattr(il, "_runtimes", reached)
        with pytest.raises(InvariantViolation, match=f"grid must be in \\[2, {il.MAX_GRID}\\]"):
            il.scan_ratios(w, SKX_LOCAL, SKX_ZNUMA, grid=il.MAX_GRID + 1, seed=0)
        with pytest.raises(Reached):
            il.scan_ratios(w, SKX_LOCAL, SKX_ZNUMA, grid=il.MAX_GRID, seed=0)

    def test_identical_tiers_flat_curve(self):
        # identical unloaded tiers: splitting pages changes nothing
        w = dm.WorkloadProfile(name="flat", instructions=1e9, demand_miss_rate=5.0,
                               mlp_depth=2.0)
        curve = il.scan_ratios(w, SKX_LOCAL, SKX_LOCAL, grid=11, seed=0)
        runtimes = [rt for _, rt in curve]
        assert max(runtimes) == pytest.approx(min(runtimes), rel=1e-12)

    def test_identical_tiers_flat_within_jitter(self):
        w = dm.WorkloadProfile(name="flat-j", instructions=1e9, demand_miss_rate=5.0,
                               mlp_depth=2.0)
        curve = il.scan_ratios(w, SKX_LOCAL, SKX_LOCAL, grid=11, seed=0, jitter_rel=0.002)
        runtimes = [rt for _, rt in curve]
        assert max(runtimes) <= min(runtimes) * (1 + 5 * 0.002)

    def test_endpoints_match_uniform_simulations(self):
        w = dm.make_bandwidth_bound_suite(1, seed=2, local=SKX_LOCAL)[0]
        curve = il.scan_ratios(w, SKX_LOCAL, SKX_ZNUMA, grid=101, seed=5)
        all_local = il.simulate_ratio_point(
            w, SKX_LOCAL, SKX_ZNUMA, 0.0, seed=il.scan_point_seed(5, 0)
        )
        all_remote = il.simulate_ratio_point(
            w, SKX_LOCAL, SKX_ZNUMA, 1.0, seed=il.scan_point_seed(5, 100)
        )
        assert curve[0][1] == all_local
        assert curve[-1][1] == all_remote

    @pytest.mark.parametrize("jitter_rel", [0.0, 0.01])
    def test_every_point_matches_its_simulation(self, jitter_rel):
        local, remote = dm.PRESETS["local-emr"], dm.PRESETS["cxl-a"]
        for w in dm.make_bandwidth_bound_suite(3, seed=6, local=local, **dm.CXLA_SUITE_KWARGS):
            curve = il.scan_ratios(w, local, remote, grid=51, seed=3, jitter_rel=jitter_rel)
            points = [tuple(p) for p in curve.tolist()]
            assert points == [
                (x, il.simulate_ratio_point(
                    w, local, remote, x,
                    seed=il.scan_point_seed(3, j) if jitter_rel > 0.0 else 0,
                    jitter_rel=jitter_rel))
                for j, (x, _) in enumerate(points)
            ]

    def test_latency_evaluations_do_not_grow_with_grid(self, monkeypatch):
        # the whole grid is one array expression: as many queueing-curve
        # evaluations at 1001 points as at 11
        calls = []
        queueing_delay_ns = dm.queueing_delay_ns
        monkeypatch.setattr(dm, "queueing_delay_ns",
                            lambda *args: calls.append(args) or queueing_delay_ns(*args))
        w = dm.make_bandwidth_bound_suite(1, seed=2, local=SKX_LOCAL)[0]

        def evaluations(grid: int) -> int:
            calls.clear()
            il.scan_ratios(w, SKX_LOCAL, SKX_ZNUMA, grid=grid, seed=0)
            return len(calls)

        assert evaluations(11) == evaluations(1001) > 0

    def test_bandwidth_bound_argmin_in_band(self):
        for w in dm.make_bandwidth_bound_suite(6, seed=9, local=SKX_LOCAL):
            curve = il.scan_ratios(w, SKX_LOCAL, SKX_ZNUMA, grid=101, seed=4)
            best_x, best_rt = il.best_scan_point(curve)
            gain = (curve[0][1] - best_rt) / curve[0][1]
            if gain > 0.05:
                assert 0.34 <= best_x <= 0.40

    def test_latency_bound_monotone_nondecreasing(self):
        for w in dm.make_latency_bound_suite(6, seed=3, local=SKX_LOCAL):
            curve = il.scan_ratios(w, SKX_LOCAL, SKX_ZNUMA, grid=51, seed=4)
            runtimes = [rt for _, rt in curve]
            assert all(b >= a - 1e-15 for a, b in zip(runtimes, runtimes[1:]))

    def test_scan_best_point_and_csv_memory(self, tmp_path):
        # the curve is one (grid, 2) array from the kernel to the CSV: at grid
        # 100,001 a list of (x, runtime) tuples, its Python-key minimum and its
        # transpose back into columns peaked at about 18 MiB, the array at about 6
        w = dm.make_bandwidth_bound_suite(1, seed=2, local=SKX_LOCAL)[0]
        tracemalloc.start()
        try:
            curve = il.scan_ratios(w, SKX_LOCAL, SKX_ZNUMA, grid=100_001, seed=0)
            il.best_scan_point(curve)
            il.write_scan_csv(curve, tmp_path / "scan.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_infeasible_demand_rejected(self):
        w = dm.WorkloadProfile(name="hog", instructions=1e9, demand_miss_rate=10.0,
                               read_bandwidth_demand_gbs=100.0)
        with pytest.raises(InconsistentProfile):
            il.scan_ratios(w, SKX_LOCAL, SKX_ZNUMA, grid=11, seed=0)


class TestForecast:
    def test_latency_bound_not_beneficial(self):
        w = dm.make_latency_bound_suite(1, seed=1, local=SKX_LOCAL)[0]
        snap = dm.local_snapshot(w, SKX_LOCAL)
        fc = il.forecast(snap, SKX_LOCAL, SKX_ZNUMA, SKX_PARAMS, fit=None, label="lat")
        assert not fc.beneficial
        assert fc.best_ratio.remote_fraction == 0.0

    def test_bandwidth_bound_requires_fit(self):
        w = dm.make_bandwidth_bound_suite(1, seed=1, local=SKX_LOCAL)[0]
        snap = dm.local_snapshot(w, SKX_LOCAL)
        with pytest.raises(MissingFit):
            il.forecast(snap, SKX_LOCAL, SKX_ZNUMA, SKX_PARAMS, fit=None)

    def test_oracle_equivalence_on_band_platform(self, skx_fit):
        for w in dm.make_bandwidth_bound_suite(10, seed=9, local=SKX_LOCAL):
            snap = dm.local_snapshot(w, SKX_LOCAL)
            fc = il.forecast(snap, SKX_LOCAL, SKX_ZNUMA, SKX_PARAMS, skx_fit, label=w.name)
            assert fc.beneficial
            curve = il.scan_ratios(w, SKX_LOCAL, SKX_ZNUMA, grid=101, seed=4)
            best_x, _ = il.best_scan_point(curve)
            assert abs(fc.best_ratio.remote_fraction - best_x) <= 0.03

    def test_cxla_fixture_speedups_in_band(self):
        emr, cxla = dm.PRESETS["local-emr"], dm.PRESETS["cxl-a"]
        params = dm.make_reference_params(emr, cxla)
        fit_wls = dm.make_bandwidth_bound_suite(8, seed=17, local=emr,
                                                **dm.CXLA_SUITE_KWARGS)
        fit = il.fit_interleave(fit_wls, emr, cxla, params, grid=101, seed=4)
        for w in dm.make_bandwidth_bound_suite(10, seed=9, local=emr,
                                               **dm.CXLA_SUITE_KWARGS):
            snap = dm.local_snapshot(w, emr)
            fc = il.forecast(snap, emr, cxla, params, fit, label=w.name)
            curve = il.scan_ratios(w, emr, cxla, grid=101, seed=4)
            _, best_rt = il.best_scan_point(curve)
            gain = (curve[0][1] - best_rt) / curve[0][1]
            assert -0.005 <= fc.predicted_speedup <= 0.13
            assert abs(fc.predicted_speedup - gain) <= 0.03

    def test_fit_needs_three_workloads(self):
        wls = dm.make_bandwidth_bound_suite(2, seed=1, local=SKX_LOCAL)
        with pytest.raises(EmptyInput):
            il.fit_interleave(wls, SKX_LOCAL, SKX_ZNUMA, SKX_PARAMS)

    def test_fit_json_roundtrip(self, tmp_path, skx_fit):
        path = tmp_path / "fit.json"
        skx_fit.to_json(path)
        assert il.InterleaveFit.from_json(path) == skx_fit

