"""Current ``devmodel`` code against its earlier forms in ``devmodel_oracle``:
bit-identical latency samples for every generated device profile, load, size
and seed, byte-identical sample dumps around the chunk size, equal
percentiles for generated samples (ties, one sample) and quantile lists
(repeated, unsorted), and equal results from the table-driven suite builders
for every generated size, seed, preset, range mix, accuracy tier and
MLP-depth set."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import devmodel_oracle as oracle
from suplab import devmodel as dm

SIZES = st.integers(min_value=0, max_value=40)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
LOCALS = st.sampled_from([None, *dm.PRESETS.values()])
RANGES = st.sampled_from([{}, dm.CXLA_SUITE_KWARGS])
# (local, remote) pairs whose reference parameters exist: remote slower than local.
DEVICE_PAIRS = st.sampled_from([
    (a, b) for a in dm.PRESETS.values() for b in dm.PRESETS.values()
    if dm.latency_cycles(b) > dm.latency_cycles(a)
])
NOISE = st.one_of(st.none(), st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.03)))
# Device profiles with no tail and with tails up to just under 0.1, no jitter
# and any jitter or tail scale that cannot overflow a sample.
DEVICES = st.builds(
    dm.DeviceProfile,
    name=st.just("d"),
    base_latency_ns=st.floats(1e-3, 1e4),
    bandwidth_cap_gbs=st.just(30.0),
    tail_prob=st.one_of(st.just(0.0), st.floats(0.0, 0.1, exclude_max=True),
                        st.floats(0.099, 0.1, exclude_max=True)),
    tail_scale_ns=st.one_of(st.just(0.0), st.floats(0.0, 1e4), st.floats(0.0, 1e300)),
    jitter_sigma_ns=st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(0.0, 1e300)),
    numa_hop_extra_ns=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
)


@settings(max_examples=300, deadline=None)
@given(dev=DEVICES, load=st.floats(0.0, 1.0, exclude_max=True),
       n=st.integers(1, 4000), seed=SEEDS)
def test_sample_latencies(dev, load, n, seed):
    new = dm.sample_latencies(dev, n, load=load, seed=seed)
    assert new.dtype == float and new.shape == (n,)
    assert new.tobytes() == oracle.sample_latencies(dev, n, load=load, seed=seed).tobytes()


@pytest.mark.parametrize("preset", list(dm.PRESETS))
@pytest.mark.parametrize("load", [0.0, 0.5, 0.8])
def test_sample_latencies_presets(preset, load):
    dev = dm.PRESETS[preset]
    for seed in (0, 1, 7):
        assert (dm.sample_latencies(dev, 100_000, load=load, seed=seed).tobytes()
                == oracle.sample_latencies(dev, 100_000, load=load, seed=seed).tobytes())


@pytest.mark.parametrize("n", [dm._DRAW_CHUNK - 1, dm._DRAW_CHUNK, dm._DRAW_CHUNK + 1,
                               3 * dm._DRAW_CHUNK + 5])
@pytest.mark.parametrize("dev", [dataclasses.replace(dm.PRESETS["cxl-b"], tail_prob=0.0),
                                 dm.PRESETS["cxl-b"],
                                 dataclasses.replace(dm.PRESETS["cxl-b"], tail_prob=0.0999)],
                         ids=["no-tail", "cxl-b", "tail-near-0.1"])
def test_sample_latencies_across_draw_chunks(dev, n):
    # the uniforms and exponentials are drawn a chunk at a time
    for seed in (0, n):
        assert (dm.sample_latencies(dev, n, load=0.3, seed=seed).tobytes()
                == oracle.sample_latencies(dev, n, load=0.3, seed=seed).tobytes())


@pytest.mark.parametrize("n", [1, *(k * dm.SAMPLES_CSV_CHUNK + d for k in (1, 4) for d in (-1, 0, 1)),
                               3 * dm.SAMPLES_CSV_CHUNK + 5, 12 * dm.SAMPLES_CSV_CHUNK + 5])
def test_samples_csv(tmp_path, n):
    samples = dm.sample_latencies(dm.PRESETS["cxl-b"], n, load=0.5, seed=n)
    dm.write_latency_samples_csv(samples, tmp_path / "new.csv")
    oracle.write_latency_samples_csv(samples, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # a plain sequence is written the same as its array
    dm.write_latency_samples_csv(samples.tolist(), tmp_path / "list.csv")
    assert (tmp_path / "list.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


QUANTILES = st.lists(st.one_of(st.sampled_from([0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 1e-300,
                                                 0.9999999999999999]),
                               st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                     min_size=1, max_size=8)


@st.composite
def latency_samples(draw) -> np.ndarray:
    """Samples with many ties (drawn from up to five values) or few, from one
    sample up to a few thousand."""
    n = draw(st.one_of(st.just(1), st.integers(1, 20), st.integers(1, 5000)))
    rng = np.random.default_rng(draw(SEEDS))
    samples = rng.exponential(draw(st.sampled_from([1.0, 100.0, 1e300])), size=n)
    return rng.choice(samples[:draw(st.integers(1, 5))], size=n) if draw(st.booleans()) else samples


@settings(max_examples=200, deadline=None)
@given(samples=latency_samples(), qs=QUANTILES)
def test_latency_percentiles(samples, qs):
    given_samples = samples.copy()
    expected = oracle.latency_percentiles(samples, qs)
    assert dm.latency_percentiles(samples, qs) == expected
    assert samples.tobytes() == given_samples.tobytes()   # partitioned in a copy
    assert dm.latency_percentiles(samples.tolist(), qs) == expected
    # the in-place helper gives the same, and reorders only the array it is given
    assert dm._percentiles_in_place(samples, qs) == expected
    assert np.sort(samples).tobytes() == np.sort(given_samples).tobytes()


@settings(max_examples=100, deadline=None)
@given(n=SIZES, seed=SEEDS, local=LOCALS, ranges=RANGES)
def test_suites(n, seed, local, ranges):
    assert dm.make_workload_suite(n, seed) == oracle.make_workload_suite(n, seed)
    assert (dm.make_bandwidth_bound_suite(n, seed, local=local, **ranges)
            == oracle.make_bandwidth_bound_suite(n, seed, local=local, **ranges))
    assert (dm.make_latency_bound_suite(n, seed, local=local)
            == oracle.make_latency_bound_suite(n, seed, local=local))


@settings(max_examples=50, deadline=None)
@given(n=SIZES, seed=SEEDS, noise=st.floats(0.0, 0.1))
def test_consistency_fixture(n, seed, noise):
    assert (dm.make_consistency_fixture(n, seed, noise=noise)
            == oracle.make_consistency_fixture(n, seed, noise=noise))


@settings(max_examples=50, deadline=None)
@given(n=SIZES, seed=SEEDS, tier=st.sampled_from(["znuma", "cxlb"]), noise=NOISE)
def test_accuracy_suite(n, seed, tier, noise):
    assert (dm.make_accuracy_suite(n, seed, tier=tier, noise=noise)
            == oracle.make_accuracy_suite(n, seed, tier=tier, noise=noise))


@settings(max_examples=50, deadline=None)
@given(devices=DEVICE_PAIRS, seed=SEEDS, noise=st.floats(0.0, 0.05),
       depths=st.lists(st.sampled_from(dm.CALIBRATION_MLP_DEPTHS), unique=True))
def test_calibration_runs(devices, seed, noise, depths):
    local, remote = devices
    params = dm.make_reference_params(local, remote)
    assert (dm.make_calibration_runs(local, remote, params, seed=seed, mlp_depths=depths,
                                     noise=noise)
            == oracle.make_calibration_runs(local, remote, params, seed=seed,
                                            mlp_depths=depths, noise=noise))
    assert (dm.make_calibration_runs(local, remote, params, seed=seed)
            == oracle.make_calibration_runs(local, remote, params, seed=seed))


@settings(max_examples=100, deadline=None)
@given(local=st.sampled_from(list(dm.PRESETS.values())),
       remote=st.sampled_from(list(dm.PRESETS.values())), reference=DEVICE_PAIRS,
       wseed=SEEDS, seed=SEEDS, eps=st.floats(0.0, 0.1),
       dram_noise=st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.03)))
def test_synthesize_runpair(local, remote, reference, wseed, seed, eps, dram_noise):
    # Any device pair, slower, faster or the same, under valid parameters.
    params = dm.make_reference_params(*reference)
    w = dm.make_workload_suite(1, wseed)[0]
    assert (dm.synthesize_runpair(w, local, remote, params, seed=seed,
                                  consistency_noise=eps, dram_noise=dram_noise)
            == oracle.synthesize_runpair(w, local, remote, params, seed=seed,
                                         consistency_noise=eps, dram_noise=dram_noise))
