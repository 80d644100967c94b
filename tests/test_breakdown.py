from __future__ import annotations

import dataclasses

import pytest

from suplab import breakdown as bd
from suplab import counters as cnt
from suplab import devmodel as dm
from suplab.counters import RunPair
from suplab.errors import EmptyInput

from conftest import snapshot


def pair_with(remote_overrides: dict, local_overrides: dict | None = None,
              t_local: float = 10.0, t_remote: float = 12.0) -> RunPair:
    local = snapshot(**(local_overrides or {}))
    remote = snapshot(**{**(local_overrides or {}), **remote_overrides})
    return RunPair("t", local, remote, t_local, t_remote)


class TestMeasureSlowdown:
    def test_identity(self):
        assert bd.measure_slowdown(pair_with({}, t_remote=10.0)) == 0.0

    def test_gcc_like_figure(self):
        assert bd.measure_slowdown(pair_with({}, t_remote=13.8)) == pytest.approx(0.38)

    def test_large_slowdown(self):
        assert bd.measure_slowdown(pair_with({}, t_remote=29.0)) == pytest.approx(1.9)

    def test_speedup_is_negative(self):
        assert bd.measure_slowdown(pair_with({}, t_remote=8.0)) < 0


class TestDecompose:
    def test_identical_snapshots_zero_components(self):
        rep = bd.decompose(pair_with({}))
        assert all(v == 0 for v in rep.components.values())
        assert rep.residual == 0

    def test_single_source_delta(self):
        # only P4 differs, by 200, with local c = 1000
        local = snapshot(
            total_cycles=1000, stall_cycles_total=400, backend_stall_cycles=380,
            mem_stall_cycles=200, llc_miss_demand_stall_cycles=150,
            store_buffer_full_stall_cycles=50, stall_l1=10, stall_l2=30, stall_l3=20,
            offcore_demand_requests=10, offcore_demand_occupancy=150,
        )
        remote = dataclasses.replace(
            local, llc_miss_demand_stall_cycles=350, mem_stall_cycles=400,
            backend_stall_cycles=580, stall_cycles_total=600, total_cycles=1200,
            offcore_demand_occupancy=350,
        )
        rep = bd.decompose(RunPair("d", local, remote, 10.0, 12.0))
        assert rep.components["DRAM"] == pytest.approx(0.2, abs=1e-15)
        for src in ("store", "L1", "L2", "L3"):
            assert rep.components[src] == 0.0
        assert rep.residual == pytest.approx(0.0, abs=1e-15)

    def test_conservation_exact(self):
        rep = bd.decompose(
            pair_with(
                {
                    "store_buffer_full_stall_cycles": 900,
                    "stall_l2": 500,
                    "backend_stall_cycles": 4600,
                    "stall_cycles_total": 4800,
                    "total_cycles": 10800,
                }
            )
        )
        assert sum(rep.components.values()) + rep.residual == pytest.approx(
            rep.total_backend_estimate, abs=1e-12
        )


class TestEstimateAccuracy:
    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            bd.estimate_accuracy([])

    def test_exact_pairs_have_zero_diff(self):
        reports = [bd.decompose(rp) for rp in dm.make_consistency_fixture(20, seed=1, noise=0.0)]
        cdf = bd.estimate_accuracy(reports, which="backend")
        assert cdf.quantile(1.0) <= 1e-12

    def test_noisy_pairs_p95(self):
        reports = [bd.decompose(rp) for rp in dm.make_consistency_fixture(100, seed=2, noise=0.03)]
        cdf = bd.estimate_accuracy(reports, which="stall")
        assert cdf.quantile(0.95) <= 0.05

    def test_fraction_within(self):
        cdf = bd.AccuracyCdf([0.01, 0.02, 0.2])
        assert cdf.fraction_within(0.05) == pytest.approx(2 / 3)


class TestProperties:
    def test_antisymmetry_with_equal_cycles(self):
        overrides = {
            "llc_miss_demand_stall_cycles": 1700,
            "mem_stall_cycles": 2300,
            "store_buffer_full_stall_cycles": 700,
            "backend_stall_cycles": 4000,
            "stall_cycles_total": 4000,
            "total_cycles": 10000,
        }
        fwd = bd.decompose(pair_with(overrides))
        local, remote = snapshot(**overrides), snapshot()
        rev = bd.decompose(RunPair("r", local, remote, 12.0, 10.0))
        for src in fwd.components:
            assert rev.components[src] == pytest.approx(-fwd.components[src])

    def test_dram_monotone_in_remote_llc_stalls(self):
        base = bd.decompose(pair_with({"llc_miss_demand_stall_cycles": 1600}))
        more = bd.decompose(pair_with({"llc_miss_demand_stall_cycles": 1900}))
        assert more.components["DRAM"] > base.components["DRAM"]

    def test_report_csv(self, tmp_path):
        breakdown = bd.decompose_table(cnt.pairs_table([pair_with({})]))
        path = tmp_path / "rep.csv"
        text = bd.write_report_csv(["t"], breakdown, path)
        header = path.read_text().splitlines()[0]
        assert header.split(",")[:4] == ["label", "measured", "stall_estimate", "backend_estimate"]
        long_path = tmp_path / "rep_long.csv"
        bd.write_report_long_csv(["t"], text, long_path)
        assert len(long_path.read_text().splitlines()) == 1 + 7  # 5 sources + other + measured
