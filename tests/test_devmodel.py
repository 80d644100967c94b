from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from suplab import breakdown as bd
from suplab import cli
from suplab import devmodel as dm
from suplab import model as mdl
from suplab.counters import amortized_offcore_latency, stall_fractions
from suplab.errors import (TABLE_CHUNK, EmptyInput, InconsistentProfile, InvariantViolation,
                           LoadOutOfRange)

from conftest import peak_bytes

LOCAL = dm.PRESETS["local-emr"]
REMOTE = dm.PRESETS["cxl-b"]
PARAMS = dm.make_reference_params(LOCAL, REMOTE)


class TestDeviceProfile:
    def test_tail_prob_bounded(self):
        with pytest.raises(InvariantViolation):
            dm.DeviceProfile(name="x", base_latency_ns=100, bandwidth_cap_gbs=10, tail_prob=0.2)

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "dev.json"
        LOCAL.to_json(path)
        assert dm.DeviceProfile.from_json(path) == LOCAL

    def test_presets_match_reference_platform(self):
        # latency ns / bandwidth GB/s pairs from the reference hardware table
        expected = {
            "local-emr": (111.0, 246.0),
            "numa": (193.0, 120.0),
            "cxl-a": (214.0, 24.0),
            "cxl-b": (271.0, 22.0),
            "cxl-c": (394.0, 18.0),
            "cxl-d": (239.0, 52.0),
        }
        for name, (lat, bw) in expected.items():
            dev = dm.PRESETS[name]
            assert (dev.base_latency_ns, dev.bandwidth_cap_gbs) == (lat, bw)


class TestSampleLatencies:
    def test_degenerate_profile_constant(self):
        dev = dm.DeviceProfile(name="flat", base_latency_ns=100.0, bandwidth_cap_gbs=10.0)
        samples = dm.sample_latencies(dev, 1000, load=0.0, seed=1)
        assert np.all(samples == 100.0)

    def test_deterministic_per_seed(self):
        a = dm.sample_latencies(LOCAL, 10_000, 0.2, seed=42)
        b = dm.sample_latencies(LOCAL, 10_000, 0.2, seed=42)
        assert np.array_equal(a, b)
        c = dm.sample_latencies(LOCAL, 10_000, 0.2, seed=43)
        assert not np.array_equal(a, c)

    def test_load_out_of_range(self):
        with pytest.raises(LoadOutOfRange):
            dm.sample_latencies(LOCAL, 10, load=1.0, seed=0)

    def test_sample_cap_checked_before_drawing(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(seed):
            raise Reached

        monkeypatch.setattr(dm.np.random, "default_rng", reached)
        with pytest.raises(InvariantViolation, match=f"n must be in \\[1, {dm.MAX_SAMPLES}\\]"):
            dm.sample_latencies(LOCAL, dm.MAX_SAMPLES + 1, seed=0)
        with pytest.raises(Reached):
            dm.sample_latencies(LOCAL, dm.MAX_SAMPLES, seed=0)

    def test_queueing_monotone_and_diverging(self):
        loads = [0.0, 0.3, 0.6, 0.8, 0.9]
        means = [dm.sample_latencies(LOCAL, 20_000, ld, seed=7).mean() for ld in loads]
        assert all(b > a for a, b in zip(means, means[1:]))
        assert dm.queueing_delay_ns(LOCAL, 0.99) > dm.queueing_delay_ns(LOCAL, 0.95) > 0

    def test_spread_monotone_in_tail_params(self):
        def spread(**kw):
            dev = dataclasses.replace(LOCAL, **kw)
            s = dm.sample_latencies(dev, 200_000, 0.0, seed=3)
            p = dm.latency_percentiles(s, (0.5, 0.999))
            return p[0.999] - p[0.5]

        assert spread(tail_prob=0.002) < spread(tail_prob=0.02)
        assert spread(tail_scale_ns=10.0) < spread(tail_scale_ns=80.0)

    def test_samples_csv(self, tmp_path):
        samples = dm.sample_latencies(LOCAL, 10, 0.0, seed=0)
        path = tmp_path / "samples.csv"
        dm.write_latency_samples_csv(samples, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "latency_ns"
        assert [float(v) for v in lines[1:]] == list(samples)

    @pytest.mark.parametrize("field", ["tail_scale_ns", "jitter_sigma_ns"])
    def test_overflowing_samples_rejected(self, field):
        # finite parameters whose samples overflow are a data error, not NaN percentiles
        dev = dataclasses.replace(LOCAL, **{field: 1e308})
        with pytest.raises(InvariantViolation, match="overflow"):
            dm.sample_latencies(dev, 10_000, seed=0)
        assert np.isfinite(dm.sample_latencies(
            dataclasses.replace(LOCAL, **{field: 1e300}), 10_000, seed=0)).all()


class TestSamplingMemory:
    """Peak traced memory of sampling, of the sample dump and of a whole
    latcdf op at 1M samples.  Each test first makes a small call: the first
    seeded Generator imports modules (~0.7 MB) that a later call does not."""

    def test_sampling_holds_the_result_and_one_chunk(self):
        # the 8-byte result per sample, one 512 KiB draw chunk with its mask,
        # and 8 bytes per tail index (10,000 at tail_prob 0.01, 100,000 near 0.1)
        dm.sample_latencies(REMOTE, 10, 0.5, 1)
        for tail_prob, bound in ((REMOTE.tail_prob, 9_000_000), (0.0999, 9_700_000)):
            dev = dataclasses.replace(REMOTE, tail_prob=tail_prob)
            assert peak_bytes(dm.sample_latencies, dev, 1_000_000, 0.5, 1) <= bound

    def test_dump_memory_bounded_by_chunk(self, tmp_path):
        # one chunk of rows in flight at ~182 B a row (a float, its repr and its
        # share of the joined text); the finiteness check builds no mask
        samples = dm.sample_latencies(REMOTE, 1_000_000, 0.5, seed=1)
        dm.write_latency_samples_csv(samples[:10], tmp_path / "warm.csv")
        peak = peak_bytes(dm.write_latency_samples_csv, samples, tmp_path / "s.csv")
        assert peak <= 200 * TABLE_CHUNK + 65_536

    def test_latcdf_op_holds_one_sample_buffer(self, tmp_path):
        # the percentiles partition the samples in place: a copy would add 8 MB
        argv = ["latcdf", "--profile", "cxl-b", "--seed", "1", "--n"]
        assert cli.run([*argv, "10", "--out", str(tmp_path / "warm")]) == 0
        peak = peak_bytes(cli.run, [*argv, "1000000", "--out", str(tmp_path / "o")])
        assert (tmp_path / "o" / "summary.json").exists()
        assert peak <= 9_000_000


class TestLatencyPercentiles:
    def test_constant_samples(self):
        p = dm.latency_percentiles([5.0] * 100, (0.1, 0.5, 0.999))
        assert set(p.values()) == {5.0}

    def test_nearest_rank_hand_check(self):
        samples = [100.0 * i for i in range(1, 11)]
        assert dm.latency_percentiles(samples, (0.5,))[0.5] == 500.0

    def test_monotone_in_q(self):
        samples = dm.sample_latencies(REMOTE, 50_000, 0.0, seed=9)
        qs = (0.1, 0.5, 0.9, 0.99, 0.999)
        p = dm.latency_percentiles(samples, qs)
        vals = [p[q] for q in qs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            dm.latency_percentiles([], (0.5,))

    def test_caller_samples_never_reordered(self):
        samples = dm.sample_latencies(REMOTE, 50_000, 0.0, seed=9)
        given = samples.copy()
        qs = (0.5, 0.9, 0.99, 0.999)
        p = dm.latency_percentiles(samples, qs)
        assert samples.tobytes() == given.tobytes()
        assert dm.latency_percentiles(samples.tolist(), qs) == p
        # the helper gives the same for an array made from a list or given as is,
        # and reorders the array it is given
        assert dm._percentiles_in_place(np.array(samples.tolist()), qs) == p
        assert dm._percentiles_in_place(samples, qs) == p
        assert samples.tobytes() != given.tobytes()
        assert np.sort(samples).tobytes() == np.sort(given).tobytes()

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(12)
        samples = rng.exponential(50.0, size=1000)
        got = dm.latency_percentiles(samples, (0.25, 0.5, 0.9, 0.99))
        ordered = sorted(samples)
        import math

        for q, v in got.items():
            assert v == ordered[math.ceil(q * 1000) - 1]

    def test_cxlc_deep_tail(self):
        samples = dm.sample_latencies(dm.PRESETS["cxl-c"], 1_000_000, 0.0, seed=21)
        p = dm.latency_percentiles(samples, (0.9999,))
        assert p[0.9999] > 1000.0


class TestSynthesizeRunpair:
    def test_identical_profiles_zero_slowdown(self):
        w = dm.WorkloadProfile(name="same", instructions=1e8, demand_miss_rate=5.0,
                               mlp_depth=2.0)
        pair = dm.synthesize_runpair(w, LOCAL, LOCAL, PARAMS, seed=1)
        assert bd.measure_slowdown(pair) == 0.0
        rep = bd.decompose(pair)
        assert all(v == 0 for v in rep.components.values())

    def test_amortized_latency_tracks_device_over_mlp(self):
        w = dm.WorkloadProfile(name="mlp8", instructions=1e8, demand_miss_rate=10.0,
                               mlp_depth=8.0)
        pair = dm.synthesize_runpair(w, LOCAL, REMOTE, PARAMS, seed=1)
        lam_remote = amortized_offcore_latency(pair.remote)
        expected = dm.latency_cycles(REMOTE, 0.0) / 8.0
        assert lam_remote == pytest.approx(expected, rel=1e-12)

    def test_mlp8_at_320_cycles_gives_40(self):
        dev = dm.DeviceProfile(name="lab", base_latency_ns=320.0 / dm.CLOCK_GHZ,
                               bandwidth_cap_gbs=50.0)
        w = dm.WorkloadProfile(name="m8", instructions=1e8, demand_miss_rate=10.0,
                               mlp_depth=8.0)
        pair = dm.synthesize_runpair(w, dev, dev, PARAMS, seed=1)
        assert amortized_offcore_latency(pair.local) == pytest.approx(40.0, abs=0.5)

    def test_snapshots_pass_all_invariants(self):
        # construction would raise if any invariant failed
        for i, w in enumerate(dm.make_workload_suite(50, seed=8)):
            dm.synthesize_runpair(w, LOCAL, REMOTE, PARAMS, seed=i,
                                  consistency_noise=0.03)

    def test_determinism(self):
        w = dm.make_workload_suite(1, seed=4)[0]
        a = dm.synthesize_runpair(w, LOCAL, REMOTE, PARAMS, seed=9, consistency_noise=0.02)
        b = dm.synthesize_runpair(w, LOCAL, REMOTE, PARAMS, seed=9, consistency_noise=0.02)
        assert a == b

    def test_runtime_delta_matches_backend_delta(self):
        w = dm.make_workload_suite(1, seed=6)[0]
        pair = dm.synthesize_runpair(w, LOCAL, REMOTE, PARAMS, seed=2)
        rep = bd.decompose(pair)
        assert rep.total_measured == pytest.approx(rep.total_backend_estimate, rel=1e-12)

    def test_store_dominant_profile(self):
        w = dm.WorkloadProfile(name="lbm-like", instructions=1e9, demand_miss_rate=1.0,
                               mlp_depth=2.0, store_intensity=0.8)
        pair = dm.synthesize_runpair(w, LOCAL, REMOTE, PARAMS, seed=3)
        assert mdl.metric_store(pair.local) > 0.3
        rep = bd.decompose(pair)
        assert rep.components["store"] == max(rep.components.values())

    def test_gcc_like_split_half_dram_half_cache(self):
        # tuned so the DRAM and cache components land within 25% of each
        # other, split roughly half/half
        w = dm.WorkloadProfile(name="gcc-like", instructions=1e9, demand_miss_rate=0.14,
                               mlp_depth=2.0, prefetch_reliance=0.9)
        pair = dm.synthesize_runpair(w, LOCAL, REMOTE, PARAMS, seed=3)
        rep = bd.decompose(pair)
        dram, cache = rep.components["DRAM"], (
            rep.components["L1"] + rep.components["L2"] + rep.components["L3"]
        )
        assert dram == pytest.approx(cache, rel=0.25)
        assert dram + cache == pytest.approx(rep.total_backend_estimate, rel=0.1)

    def test_demand_over_both_caps_rejected(self):
        w = dm.WorkloadProfile(name="hog", instructions=1e8, demand_miss_rate=10.0,
                               read_bandwidth_demand_gbs=500.0)
        with pytest.raises(InconsistentProfile):
            dm.synthesize_runpair(w, LOCAL, REMOTE, PARAMS, seed=0)

    def test_mlp_deeper_than_latency_rejected(self):
        dev = dm.DeviceProfile(name="fast", base_latency_ns=2.0, bandwidth_cap_gbs=100.0)
        w = dm.WorkloadProfile(name="deep", instructions=1e8, demand_miss_rate=5.0,
                               mlp_depth=32.0)
        with pytest.raises(InconsistentProfile):
            dm.synthesize_runpair(w, dev, dev, PARAMS, seed=0)

    def test_model_consistency_of_planted_slowdown(self):
        for i, w in enumerate(dm.make_workload_suite(20, seed=13)):
            pair = dm.synthesize_runpair(w, LOCAL, REMOTE, PARAMS, seed=i)
            pred = mdl.predict(pair.local, PARAMS)
            assert bd.measure_slowdown(pair) == pytest.approx(pred.s_pred, rel=1e-9)

    def test_stall_fraction_invariants_on_generated(self):
        pair = dm.synthesize_runpair(dm.make_workload_suite(1, seed=20)[0],
                                     LOCAL, REMOTE, PARAMS, seed=0)
        for snap in (pair.local, pair.remote):
            fr = stall_fractions(snap)
            assert sum(fr.values()) <= snap.backend_stall_cycles / snap.total_cycles + 1e-9
