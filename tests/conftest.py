from __future__ import annotations

import tracemalloc

import pytest

from suplab.counters import CounterSnapshot


def snapshot(**overrides) -> CounterSnapshot:
    """A small, internally consistent snapshot; fields overridable per test."""
    base = dict(
        total_cycles=10_000,
        stall_cycles_total=4_000,
        backend_stall_cycles=3_800,
        mem_stall_cycles=2_000,
        llc_miss_demand_stall_cycles=1_500,
        l1_demand_hits=30_000,
        lfb_hits=3_000,
        store_buffer_full_stall_cycles=500,
        stall_l1=100,
        stall_l2=300,
        stall_l3=200,
        offcore_demand_requests=50,
        offcore_demand_occupancy=1_500,
        l1_prefetch_l3_miss=400,
        l1_prefetch_total=1_000,
        l2_prefetch_l3_miss=300,
        l2_prefetch_l3_hit=700,
        instructions=20_000,
    )
    base.update(overrides)
    return CounterSnapshot(**base)


@pytest.fixture
def base_snapshot() -> CounterSnapshot:
    return snapshot()


def peak_bytes(fn, *args) -> int:
    """The peak of tracemalloc's traced memory while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
