from __future__ import annotations

import dataclasses
import random
import warnings

import numpy as np
import pytest

from suplab import calibrate as cal
from suplab import devmodel as dm
from suplab.breakdown import measure_slowdown
from suplab.counters import RunPair
from suplab.errors import (
    InsufficientMlpSpread,
    InvariantViolation,
    MissingKind,
    RankDeficient,
)
from suplab.model import metric_dram

LOCAL = dm.PRESETS["local-emr"]
REMOTE = dm.PRESETS["cxl-b"]
TRUTH = dm.make_reference_params(LOCAL, REMOTE)

FIT_KEYS = ("k1", "k2", "k3", "p", "q", "offcore_threshold")


def rel_err(fit, truth, key):
    t = getattr(truth, key)
    return abs(getattr(fit, key) - t) / abs(t)


@pytest.fixture(scope="module")
def clean_runs():
    return dm.make_calibration_runs(LOCAL, REMOTE, TRUTH, seed=11)


class TestCalibrationRun:
    def test_pointer_chase_purity_enforced(self, base_snapshot):
        pair = RunPair("impure", base_snapshot, base_snapshot, 1.0, 1.5)
        with pytest.raises(InvariantViolation):
            cal.CalibrationRun(kind="pointer_chase", pair=pair)

    def test_unknown_kind(self, base_snapshot):
        pair = RunPair("x", base_snapshot, base_snapshot, 1.0, 1.5)
        with pytest.raises(InvariantViolation):
            cal.CalibrationRun(kind="matrix_multiply", pair=pair)

    def test_generated_pointer_chase_is_pure(self, clean_runs):
        for r in clean_runs:
            if r.kind == "pointer_chase":
                from suplab.model import metric_cache, metric_store

                assert metric_cache(r.pair.local) <= 1e-3
                assert metric_store(r.pair.local) <= 1e-3


class TestFitSequential:
    def test_roundtrip_noiseless(self, clean_runs):
        fit = cal.fit_sequential(clean_runs)
        for key in FIT_KEYS:
            assert rel_err(fit, TRUTH, key) < 1e-9, key
        assert abs(fit.k4 - TRUTH.k4) < 1e-9

    def test_roundtrip_other_params(self):
        # the sequential recipe assumes pointer-chase slowdown is purely
        # DRAM-sourced, i.e. no constant offset; k4 recovery belongs to the
        # least-squares path
        truth = dm.make_reference_params(LOCAL, REMOTE, q=0.3, k2_scale=1.7,
                                         k3_scale=0.5)
        runs = dm.make_calibration_runs(LOCAL, REMOTE, truth, seed=5)
        fit = cal.fit_sequential(runs)
        for key in FIT_KEYS + ("k4",):
            assert abs(getattr(fit, key) - getattr(truth, key)) <= 1e-9 * max(
                abs(getattr(truth, key)), 1.0
            ), key

    def test_nonzero_intercept_recovered_by_least_squares(self):
        truth = dm.make_reference_params(LOCAL, REMOTE, q=0.3, k2_scale=1.7,
                                         k3_scale=0.5, k4=0.02)
        runs = dm.make_calibration_runs(LOCAL, REMOTE, truth, seed=5)
        refit = cal.fit_least_squares(runs, truth)
        for key in ("k1", "k2", "k3", "k4"):
            assert getattr(refit, key) == pytest.approx(getattr(truth, key), abs=1e-9)

    def test_single_step_division(self):
        # one pointer-chase pair with S = 0.4, M_DRAM = 0.5 at the anchor
        # (correction factor 1) gives k1 = 0.8
        runs = dm.make_calibration_runs(LOCAL, REMOTE, TRUTH, seed=11,
                                        mlp_depths=(1.0, 4.0))
        pc = [r for r in runs if r.kind == "pointer_chase"]
        anchor = max(
            pc,
            key=lambda r: r.pair.local.offcore_demand_occupancy
            / r.pair.local.offcore_demand_requests,
        )
        fit = cal.fit_sequential(runs)
        s = measure_slowdown(anchor.pair)
        m = metric_dram(anchor.pair.local, fit)
        assert fit.k1 == pytest.approx(s / m, rel=1e-12)

    def test_missing_kind(self, clean_runs):
        runs = [r for r in clean_runs if r.kind != "store_bound"]
        with pytest.raises(MissingKind) as exc:
            cal.fit_sequential(runs)
        assert exc.value.kind == "store_bound"

    def test_insufficient_mlp_spread(self, clean_runs):
        keep = [r for r in clean_runs if r.kind != "pointer_chase"]
        one_depth = [r for r in clean_runs if r.kind == "pointer_chase"][:1]
        with pytest.raises(InsufficientMlpSpread):
            cal.fit_sequential(keep + one_depth * 2)

    def test_spread_that_underflows_is_insufficient(self, clean_runs):
        # amortized latencies near 1e200: their reciprocals' spread squares to 0.0
        runs = []
        for i, r in enumerate(clean_runs):
            if r.kind == "pointer_chase":
                local = dataclasses.replace(r.pair.local, offcore_demand_occupancy=(
                    r.pair.local.offcore_demand_requests * 1e200 * (i + 1)))
                r = cal.CalibrationRun(r.kind, dataclasses.replace(r.pair, local=local))
            runs.append(r)
        with pytest.raises(InsufficientMlpSpread):
            cal.fit_sequential(runs)

    @pytest.mark.parametrize("eps", [2e-9, 5e-9, 1e-8, 3e-8])
    def test_close_depths_recover_q(self, eps):
        # two pointer chases a hair apart: the slope needs centred sums
        runs = dm.make_calibration_runs(LOCAL, REMOTE, TRUTH, mlp_depths=(1.0, 1.0 + eps))
        assert abs(cal.fit_sequential(runs).q - TRUTH.q) < 1e-6

    def test_permutation_invariance(self, clean_runs):
        fit_a = cal.fit_sequential(clean_runs)
        shuffled = list(clean_runs)
        random.Random(99).shuffle(shuffled)
        fit_b = cal.fit_sequential(shuffled)
        assert fit_a == fit_b

    def test_noisy_recovery_median_within_5pct(self):
        errs = {k: [] for k in ("k1", "k2", "k3", "p", "q")}
        for seed in range(100):
            runs = dm.make_calibration_runs(LOCAL, REMOTE, TRUTH, seed=seed, noise=0.02)
            fit = cal.fit_sequential(runs)
            for k in errs:
                errs[k].append(rel_err(fit, TRUTH, k))
        for k, v in errs.items():
            assert float(np.median(v)) <= 0.05, (k, float(np.median(v)))


class TestFitLeastSquares:
    def test_exact_interpolation(self, clean_runs):
        init = cal.fit_sequential(clean_runs)
        refit = cal.fit_least_squares(clean_runs, init)
        assert cal.residual_sse(clean_runs, refit) <= 1e-18
        for key in ("k1", "k2", "k3"):
            assert rel_err(refit, TRUTH, key) < 1e-6, key

    def test_needs_five_runs(self, clean_runs):
        from suplab.errors import EmptyInput

        with pytest.raises(EmptyInput):
            cal.fit_least_squares(clean_runs[:4], TRUTH)

    def test_noisy_residual_small(self):
        runs = []
        for seed in range(5):
            runs.extend(
                dm.make_calibration_runs(LOCAL, REMOTE, TRUTH, seed=1000 + seed, noise=0.01)
            )
        init = cal.fit_sequential(runs)
        refit = cal.fit_least_squares(runs, init)
        rms = (cal.residual_sse(runs, refit) / len(runs)) ** 0.5
        assert rms <= 0.015

    def test_never_worse_than_sequential(self):
        for seed in (3, 17, 59):
            runs = dm.make_calibration_runs(LOCAL, REMOTE, TRUTH, seed=seed, noise=0.02)
            seq = cal.fit_sequential(runs)
            refit = cal.fit_least_squares(runs, seq)
            assert cal.residual_sse(runs, refit) <= cal.residual_sse(runs, seq) + 1e-15

    def test_huge_metric_column_raises_no_warning(self, clean_runs):
        # a list traversal's l1_prefetch_l3_miss of 1e308 makes an m_cache whose
        # square overflows: the fit ends in a result or a SupLabError, not a warning
        i = next(i for i, r in enumerate(clean_runs) if r.kind == "list_traversal")
        local = dataclasses.replace(clean_runs[i].pair.local, l1_prefetch_l3_miss=1e308)
        runs = [*clean_runs[:i], dataclasses.replace(clean_runs[i], pair=dataclasses.replace(
            clean_runs[i].pair, local=local)), *clean_runs[i + 1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RankDeficient):
                cal.fit_least_squares(runs, TRUTH)

    def test_rank_deficiency_reported(self, clean_runs):
        # pointer-chase plus store-bound runs only: the cache column is dead
        runs = [r for r in clean_runs if r.kind in ("pointer_chase", "store_bound")]
        with pytest.raises(RankDeficient) as exc:
            cal.fit_least_squares(runs, TRUTH)
        assert exc.value.column == "m_cache"


class TestCsvRoundtrip:
    def test_calibration_csv(self, tmp_path, clean_runs):
        path = tmp_path / "runs.csv"
        cal.write_calibration_csv(clean_runs, path)
        back = cal.read_calibration_csv(path)
        assert [r.kind for r in back] == [r.kind for r in clean_runs]
        fit_a = cal.fit_sequential(clean_runs)
        fit_b = cal.fit_sequential(back)
        for key in FIT_KEYS:
            assert getattr(fit_b, key) == pytest.approx(getattr(fit_a, key), rel=1e-9)
