"""The table-driven suite builders and ``synthesize_runpair`` against their
earlier per-builder loops in ``devmodel_oracle``: equal results for every
generated size, seed, preset, range mix, accuracy tier and MLP-depth set."""

from __future__ import annotations

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
