"""Acceptance harness: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines inline, or plain ``pytest`` (captured output is shown on failure).
"""

from __future__ import annotations

import functools
import hashlib
import math
import shutil
import time

import numpy as np
import pytest

from suplab import breakdown as bd
from suplab import calibrate as cal
from suplab import cli
from suplab import devmodel as dm
from suplab import interleave as il
from suplab import model as mdl
from suplab import tiersim as ts

LOCAL = dm.PRESETS["local-emr"]
REMOTE = dm.PRESETS["cxl-b"]
PARAMS = dm.make_reference_params(LOCAL, REMOTE)

SKX_LOCAL = dm.DeviceProfile(name="skx-local", base_latency_ns=90.0, bandwidth_cap_gbs=50.0)
SKX_ZNUMA = dm.DeviceProfile(name="skx-znuma", base_latency_ns=140.0, bandwidth_cap_gbs=30.0)
SKX_PARAMS = dm.make_reference_params(SKX_LOCAL, SKX_ZNUMA)

TIER_CFG_KW = dict(fast_capacity=2500, promo_threshold_accesses=2, max_promo_rate=2000)

# Frozen after the first verified run of the fixture traces (seed 1);
# determinism makes these exact.
TIERSIM_GOLDENS = {
    ("two_phase", "first_touch"): (0.03386422003125073, 0),
    ("two_phase", "tpp"): (0.021442097681250757, 2500),
    ("two_phase", "alto"): (0.016774245631250687, 500),
    ("deep_overlap", "first_touch"): (0.008160976218749274, 0),
    ("deep_overlap", "tpp"): (0.36816097621874927, 120000),
    ("deep_overlap", "alto"): (0.008160976218749274, 0),
}


def criterion(num: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL  {title}")
                raise
            print(f"ACCEPTANCE {num:02d} PASS  {title}")

        return wrapper

    return deco


@criterion(1, "breakdown conservation over 1000 generated pairs (1e-12, < 5 s)")
def test_01_breakdown_conservation():
    start = time.monotonic()
    pairs = dm.make_consistency_fixture(1000, seed=101, noise=0.03)
    for rp in pairs:
        rep = bd.decompose(rp)
        gap = abs(sum(rep.components.values()) + rep.residual - rep.total_backend_estimate)
        assert gap <= 1e-12
    assert time.monotonic() - start < 5.0


@criterion(2, "stall estimate within 0.05 of measured for >= 95% of noisy pairs")
def test_02_breakdown_accuracy():
    reports = [bd.decompose(rp) for rp in dm.make_consistency_fixture(1000, seed=202, noise=0.03)]
    for which in ("stall", "backend"):
        cdf = bd.estimate_accuracy(reports, which=which)
        assert cdf.fraction_within(0.05) >= 0.95


@criterion(3, "calibration round-trip: noiseless 1e-9; 2% noise median <= 5% (<30 s)")
def test_03_calibration_roundtrip():
    start = time.monotonic()
    truth = dm.make_reference_params(LOCAL, REMOTE)
    runs = dm.make_calibration_runs(LOCAL, REMOTE, truth, seed=42)
    fit = cal.fit_sequential(runs)
    for key in ("k1", "k2", "k3", "p", "q", "offcore_threshold"):
        t = getattr(truth, key)
        assert abs(getattr(fit, key) - t) / abs(t) <= 1e-9, key
    assert abs(fit.k4 - truth.k4) <= 1e-9

    errs = {k: [] for k in ("k1", "k2", "k3", "p", "q")}
    for seed in range(100):
        noisy = dm.make_calibration_runs(LOCAL, REMOTE, truth, seed=seed, noise=0.02)
        f = cal.fit_sequential(noisy)
        for k in errs:
            errs[k].append(abs(getattr(f, k) - getattr(truth, k)) / abs(getattr(truth, k)))
    for k, v in errs.items():
        assert float(np.median(v)) <= 0.05, (k, float(np.median(v)))
    assert time.monotonic() - start < 30.0


@criterion(4, "DRAM model accuracy bands: stable tier >= 0.92/0.95; noisy tier degrades to high-0.7s")
def test_04_model_accuracy_bands():
    znuma = mdl.evaluate_accuracy(dm.make_accuracy_suite(150, seed=5, tier="znuma"))
    cxlb = mdl.evaluate_accuracy(dm.make_accuracy_suite(150, seed=5, tier="cxlb"))
    assert znuma.within[0.05] >= 0.92
    assert znuma.pearson >= 0.95
    # reference anchors: 92.0% / 78.7% within 5%; match to +-5 points
    assert abs(znuma.within[0.05] - 0.920) <= 0.05
    assert cxlb.within[0.05] >= 0.75
    assert abs(cxlb.within[0.05] - 0.787) <= 0.05
    assert cxlb.within[0.05] < znuma.within[0.05]


@criterion(5, "metric properties: scale invariance, exact sensitivities, MLP monotonicity")
def test_05_metric_properties():
    w = dm.make_workload_suite(1, seed=77)[0]
    snap = dm.local_snapshot(w, LOCAL)
    for lam in (2.0, 10.0, 1000.0):
        scaled = snap.scaled(lam)
        assert mdl.metric_dram(scaled, PARAMS) == pytest.approx(
            mdl.metric_dram(snap, PARAMS), rel=1e-12
        )
        assert mdl.metric_cache(scaled) == pytest.approx(mdl.metric_cache(snap), rel=1e-12)
        assert mdl.metric_store(scaled) == pytest.approx(mdl.metric_store(snap), rel=1e-12)

    import dataclasses

    base_pred = mdl.predict(snap, PARAMS)
    bumps = {
        "k1": dataclasses.replace(
            snap,
            llc_miss_demand_stall_cycles=snap.llc_miss_demand_stall_cycles * 1.02,
            mem_stall_cycles=snap.mem_stall_cycles
            + 0.02 * snap.llc_miss_demand_stall_cycles,
        ),
        "k2": dataclasses.replace(snap, mem_stall_cycles=snap.mem_stall_cycles * 1.05),
        "k3": dataclasses.replace(
            snap,
            store_buffer_full_stall_cycles=snap.store_buffer_full_stall_cycles + 100.0,
        ),
    }
    metric_of = {"k1": "m_dram", "k2": "m_cache", "k3": "m_store"}
    for kname, bumped in bumps.items():
        after = mdl.predict(bumped, PARAMS)
        dmetric = getattr(after, metric_of[kname]) - getattr(base_pred, metric_of[kname])
        assert dmetric != 0
        slope = (after.s_pred - base_pred.s_pred) / dmetric
        assert abs(slope - getattr(PARAMS, kname)) <= 1e-9

    lams = np.linspace(20.0, 500.0, 20)
    vals = [
        mdl.metric_dram(
            dataclasses.replace(
                snap,
                offcore_demand_requests=1000.0,
                offcore_demand_occupancy=1000.0 * x,
            ),
            PARAMS,
        )
        for x in lams
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@criterion(6, "interleaving oracle equivalence on the 5:3 platform (< 2 min)")
def test_06_interleave_oracle_equivalence():
    start = time.monotonic()
    fit = il.fit_interleave(
        dm.make_bandwidth_bound_suite(8, seed=17, local=SKX_LOCAL),
        SKX_LOCAL, SKX_ZNUMA, SKX_PARAMS, grid=101, seed=4,
    )
    for w in dm.make_bandwidth_bound_suite(20, seed=9, local=SKX_LOCAL):
        snap = dm.local_snapshot(w, SKX_LOCAL)
        fc = il.forecast(snap, SKX_LOCAL, SKX_ZNUMA, SKX_PARAMS, fit, label=w.name)
        assert fc.beneficial
        curve = il.scan_ratios(w, SKX_LOCAL, SKX_ZNUMA, grid=101, seed=4)
        best_x, best_rt = il.best_scan_point(curve)
        assert abs(fc.best_ratio.remote_fraction - best_x) <= 0.03 + 1e-12
        gain = (curve[0][1] - best_rt) / curve[0][1]
        if gain > 0.05:
            assert 0.34 <= best_x <= 0.40
        all_local = il.simulate_ratio_point(
            w, SKX_LOCAL, SKX_ZNUMA, 0.0, seed=il.scan_point_seed(4, 0)
        )
        all_remote = il.simulate_ratio_point(
            w, SKX_LOCAL, SKX_ZNUMA, 1.0, seed=il.scan_point_seed(4, 100)
        )
        assert curve[0][1] == all_local and curve[-1][1] == all_remote
    assert time.monotonic() - start < 120.0


@criterion(7, "latency-bound linearity and monotone scan curves")
def test_07_latency_bound_linearity():
    rep = bd.SlowdownReport(
        label="lin", total_measured=0.3, total_stall_estimate=0.3,
        total_backend_estimate=0.3,
        components={"store": 0.05, "L1": 0.02, "L2": 0.08, "L3": 0.05, "DRAM": 0.10},
        residual=0.0,
    )
    full = il.slowdown_at(1.0, rep)
    assert full == pytest.approx(0.30)
    for alpha in np.linspace(0.0, 1.0, 11):
        assert il.slowdown_at(alpha, rep) == pytest.approx(alpha * full, abs=1e-15)
    for w in dm.make_latency_bound_suite(8, seed=31, local=SKX_LOCAL):
        curve = il.scan_ratios(w, SKX_LOCAL, SKX_ZNUMA, grid=101, seed=4)
        runtimes = [rt for _, rt in curve]
        assert all(b >= a - 1e-15 for a, b in zip(runtimes, runtimes[1:]))


@criterion(8, "tail-latency spreads 45/61/75/~160 ns (+-10%) and percentile oracle")
def test_08_tail_cdf_targets():
    targets = {"local-emr": 45.0, "numa": 61.0, "cxl-d": 75.0, "cxl-b": 160.0,
               "cxl-c": 160.0}
    for name, target in targets.items():
        samples = dm.sample_latencies(dm.PRESETS[name], 1_000_000, load=0.0, seed=57)
        pcts = dm.latency_percentiles(samples, (0.5, 0.999))
        spread = pcts[0.999] - pcts[0.5]
        assert abs(spread - target) <= 0.10 * target, (name, spread)

    rng = np.random.default_rng(88)
    samples = rng.gamma(2.0, 60.0, size=1000)
    ordered = sorted(samples)
    got = dm.latency_percentiles(samples, (0.01, 0.25, 0.5, 0.9, 0.99, 0.999))
    for q, v in got.items():
        assert v == ordered[math.ceil(q * 1000) - 1]


@criterion(9, "promotion throttle: gate semantics, fewer promotions, fixture goldens")
def test_09_alto_behavior():
    c = ts.PolicyConfig(policy="alto", **TIER_CFG_KW)
    assert ts.alto_gate(39.999, c) == 0.0
    assert ts.alto_gate(100.0, c) == 1.0
    assert ts.alto_gate(250.0, c) == 1.0
    ramp_gates = {ts.alto_gate(x, c) for x in np.arange(30.0, 110.01, 0.5)}
    assert sorted(ramp_gates) == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

    outcomes = {}
    for tname, maker in (("two_phase", ts.make_two_phase_trace),
                         ("deep_overlap", ts.make_deep_overlap_trace),
                         ("no_overlap", ts.make_no_overlap_trace)):
        trace = maker(1)
        for policy in ts.POLICIES:
            cfg = ts.PolicyConfig(policy=policy, **TIER_CFG_KW)
            outcomes[(tname, policy)] = ts.simulate(trace, cfg, LOCAL, REMOTE)
        assert outcomes[(tname, "alto")].promotions <= outcomes[(tname, "tpp")].promotions

    two_alto = outcomes[("two_phase", "alto")]
    two_tpp = outcomes[("two_phase", "tpp")]
    two_ft = outcomes[("two_phase", "first_touch")]
    assert two_alto.simulated_runtime < two_tpp.simulated_runtime
    assert two_alto.simulated_runtime <= 1.06 * two_ft.simulated_runtime

    deep_tpp = outcomes[("deep_overlap", "tpp")]
    deep_alto = outcomes[("deep_overlap", "alto")]
    assert deep_tpp.simulated_runtime / deep_alto.simulated_runtime >= 1.5

    for key, (runtime, promotions) in TIERSIM_GOLDENS.items():
        got = outcomes[key]
        assert got.simulated_runtime == pytest.approx(runtime, rel=1e-9), key
        assert got.promotions == promotions, key


@criterion(10, "demo --seed 1 reruns byte-identical")
def test_10_demo_determinism(tmp_path):
    out = tmp_path / "demo"
    assert cli.run(["demo", "--seed", "1", "--out", str(out)]) == 0
    digest = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert "summary.txt" in digest
    shutil.rmtree(out)
    assert cli.run(["demo", "--seed", "1", "--out", str(out)]) == 0
    rerun = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert rerun == digest
