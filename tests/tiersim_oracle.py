"""Reference tiering simulator: the per-miss dict/heap loop and list-based
trace builders that ``suplab.tiersim`` replaced with array code.

Kept unchanged as the oracle the array kernel and builders are checked
against (``test_tiersim_oracle.py``): for any trace and config,
``suplab.tiersim.simulate`` must return a ``PolicyOutcome`` equal to
:func:`simulate` here, and the array builders must produce the same misses
as the builders here.  :func:`grouping` is the per-epoch stable argsort that
``TierTrace._grouping`` replaced with sorted packed keys; the two must be
equal element by element.
"""

from __future__ import annotations

import math

import numpy as np

from suplab.devmodel import CLOCK_GHZ, DeviceProfile
from suplab.errors import SupLabError
from suplab.tiersim import (
    PolicyConfig,
    PolicyOutcome,
    TierTrace,
    TraceEpoch,
    alto_gate,
)

from interleave_oracle import mean_latency_ns


class CapacityUnderflow(SupLabError):
    """The reference loop's fast tier over- or under-ran its capacity."""


_GATE_CHUNK = 10  # candidate pages per admission window


def _admit(candidates: list[int], gate: float) -> list[int]:
    if gate >= 1.0:
        return list(candidates)
    keep = math.ceil(gate * _GATE_CHUNK)
    return [p for i, p in enumerate(candidates) if i % _GATE_CHUNK < keep]


def grouping(trace: TierTrace) -> tuple[np.ndarray, int, list[tuple]]:
    """``TierTrace._grouping`` as one stable argsort per epoch with misses."""
    page_ids = trace.page_ids
    n_pages = int(page_ids.max()) + 1
    if n_pages > 8 * len(page_ids) + 2**20:
        ids, page_ids = np.unique(page_ids, return_inverse=True)
        n_pages = len(ids)
    busy, seen = [], np.zeros(n_pages, dtype=bool)
    offsets = trace.epoch_offsets.tolist()
    for i in np.flatnonzero(np.diff(trace.epoch_offsets)).tolist():
        lo, hi = offsets[i], offsets[i + 1]
        order = np.argsort(page_ids[lo:hi], kind="stable")
        sorted_pages = page_ids[lo:hi][order]
        starts = np.flatnonzero(np.diff(sorted_pages, prepend=-1))
        uniq, hits = sorted_pages[starts], np.diff(starts, append=hi - lo)
        new = ~seen[uniq]
        seen[uniq] = True
        busy.append((i, lo, hi, order, starts, uniq, hits,
                     uniq[new][np.argsort(order[starts[new]])], lo + order[starts + hits - 1]))
    return page_ids, n_pages, busy


def simulate(
    trace: TierTrace,
    cfg: PolicyConfig,
    local: DeviceProfile,
    remote: DeviceProfile,
) -> PolicyOutcome:
    """Run one policy over the trace; deterministic for fixed inputs.

    The epoch loop uses mean device latencies and deterministic tie-breaks,
    so identical inputs always give identical outcomes.  Residency is fixed
    within an epoch; migrations apply at epoch end.  The outcome also
    carries the runtime the trace would take with every page in the fast
    tier, summed miss by miss in trace order.
    """
    import heapq

    fast_lat = mean_latency_ns(local) * CLOCK_GHZ
    slow_lat = mean_latency_ns(remote) * CLOCK_GHZ

    residency: dict[int, bool] = {}      # page -> True if fast
    last_use: dict[int, tuple[int, int]] = {}
    access_count: dict[int, int] = {}
    lru_heap: list[tuple[int, int, int]] = []   # (epoch, seq, page), lazily stale
    fast_pages = 0

    outcome = PolicyOutcome(policy=cfg.policy, simulated_runtime=0.0, allfast_runtime=0.0,
                            promotions=0, demotions=0)
    stall_cycles_total = 0.0
    allfast_cycles_total = 0.0

    def pop_lru_victim() -> int:
        while lru_heap:
            epoch_use, seq_use, page = heapq.heappop(lru_heap)
            if residency.get(page) and last_use.get(page) == (epoch_use, seq_use):
                return page
        raise CapacityUnderflow("no fast-tier page available to demote")

    for epoch_idx, epoch in enumerate(trace.epochs):
        stall = 0.0
        stall_allfast = 0.0
        slow_hits = 0
        candidates: list[int] = []
        nominated: set[int] = set()
        for seq, (page, group) in enumerate(epoch.demand_misses):
            if page not in residency:
                if fast_pages < cfg.fast_capacity:
                    residency[page] = True
                    fast_pages += 1
                else:
                    residency[page] = False
            is_fast = residency[page]
            lat = fast_lat if is_fast else slow_lat
            stall += lat / group
            stall_allfast += fast_lat / group
            if is_fast:
                last_use[page] = (epoch_idx, seq)
                heapq.heappush(lru_heap, (epoch_idx, seq, page))
            else:
                slow_hits += 1
                last_use[page] = (epoch_idx, seq)
                if cfg.policy != "first_touch":
                    access_count[page] = access_count.get(page, 0) + 1
                    if (
                        access_count[page] >= cfg.promo_threshold_accesses
                        and page not in nominated
                    ):
                        nominated.add(page)
                        candidates.append(page)

        n_misses = len(epoch.demand_misses)
        amortized = stall / n_misses if n_misses else 0.0

        if cfg.policy == "alto":
            gate = alto_gate(amortized, cfg)
        elif cfg.policy == "tpp":
            gate = 1.0
        else:
            gate = 0.0
        admitted = _admit(candidates, gate)[: cfg.max_promo_rate] if gate > 0 else []

        promoted = 0
        for page in admitted:
            if residency.get(page):
                continue
            if fast_pages >= cfg.fast_capacity:
                victim = pop_lru_victim()
                residency[victim] = False
                access_count[victim] = 0
                fast_pages -= 1
                outcome.demotions += 1
            residency[page] = True
            access_count.pop(page, None)
            fast_pages += 1
            heapq.heappush(lru_heap, (*last_use[page], page))
            promoted += 1
        outcome.promotions += promoted

        stall_cycles_total += stall
        allfast_cycles_total += stall_allfast
        outcome.promo_rate_series.append(promoted)
        outcome.amortized_latency_series.append(amortized)
        outcome.slow_tier_access_fraction_series.append(
            slow_hits / n_misses if n_misses else 0.0
        )
        outcome.gate_series.append(gate)
        outcome.est_slowdown_series.append(
            (stall - stall_allfast) / trace.epoch_instructions
        )
        if fast_pages > cfg.fast_capacity:
            raise CapacityUnderflow("fast tier exceeded capacity")

    outcome.simulated_runtime = (
        stall_cycles_total / (CLOCK_GHZ * 1e9)
        + outcome.promotions * cfg.migration_cost_us * 1e-6
    )
    outcome.allfast_runtime = allfast_cycles_total / (CLOCK_GHZ * 1e9)
    return outcome


# --- fixture traces --------------------------------------------------------
#
# All builders open with a warmup epoch touching pages [0, 2500) so the
# fast tier (capacity 2500 in the fixture configs) fills via first touch
# and later pages allocate on the slow tier.

def make_two_phase_trace(seed: int = 0) -> TierTrace:
    """tc-twitter analog: an overlapped miss storm, then a low-MLP hot phase.

    Phase 1 streams deeply overlapped misses over a cold slow-tier region
    (amortized latency below the promotion gate's lower threshold); phase 2
    re-hits a small slow-tier working set with no overlap, where promotion
    actually pays off.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    epochs = [TraceEpoch(demand_misses=[(p, 16) for p in range(2500)])]
    stream = np.arange(2500, 5000)
    for _ in range(15):
        misses = []
        for p in rng.permutation(stream):
            misses.append((int(p), 16))
            misses.append((int(p), 16))
        epochs.append(TraceEpoch(demand_misses=misses))
    hot = list(range(2500, 3000))
    for _ in range(30):
        misses = [(hot[i % 500], 1) for i in range(4000)]
        epochs.append(TraceEpoch(demand_misses=misses))
    return TierTrace(epochs=epochs, page_count=5000, wss_pages=3000)


def make_deep_overlap_trace(seed: int = 0) -> TierTrace:
    """GPT-2 analog: always-overlapped streaming over a huge cold set.

    Every page crosses the promotion threshold then never returns, so any
    promotion is pure migration overhead.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    page_count = 40000
    epochs = [TraceEpoch(demand_misses=[(p, 16) for p in range(2500)])]
    cursor = int(rng.integers(0, page_count - 2500))
    for _ in range(60):
        misses = []
        for _ in range(4000):
            p = 2500 + cursor % (page_count - 2500)
            cursor += 1
            misses.append((p, 16))
            misses.append((p, 16))
        epochs.append(TraceEpoch(demand_misses=misses))
    return TierTrace(epochs=epochs, page_count=page_count, wss_pages=2500)


def make_no_overlap_trace(seed: int = 0) -> TierTrace:
    """tc-kron analog: pointer-chase-like misses, no overlap to exploit."""
    import numpy as np

    rng = np.random.default_rng(seed)
    page_count = 8000
    epochs = [TraceEpoch(demand_misses=[(p, 1) for p in range(2500)])]
    for _ in range(20):
        pages = rng.integers(0, page_count, size=4000)
        epochs.append(TraceEpoch(demand_misses=[(int(p), 1) for p in pages]))
    return TierTrace(epochs=epochs, page_count=page_count, wss_pages=4000)
