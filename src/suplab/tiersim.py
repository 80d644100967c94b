"""Trace-driven two-tier page simulator: first-touch, TPP-like promotion,
and the amortized-latency-regulated throttle layered on top of it.

Pages allocate on first touch (fast tier until it fills, then slow).  Each
epoch's demand misses stall for their tier's latency divided by the miss's
overlapped group size; the mean of those effective stalls is the epoch's
amortized offcore latency, which drives the promotion gate: promotion is
disabled below the lower threshold (overlap hides the latency), unthrottled
at or above the upper one, and stepped linearly in between by admitting the
first ceil(g*10) of every 10 candidate pages.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .devmodel import CLOCK_GHZ, DeviceProfile, mean_latency_ns
from .errors import CapacityUnderflow, EmptyTrace, InvariantViolation

POLICIES = ("first_touch", "tpp", "alto")

_GATE_CHUNK = 10  # candidate pages per admission window


@dataclass(frozen=True)
class TraceEpoch:
    """One instruction-interval's demand misses as (page_id, group_size)."""

    demand_misses: list[tuple[int, int]]


@dataclass(frozen=True)
class TierTrace:
    epochs: list[TraceEpoch]
    page_count: int
    wss_pages: int
    epoch_instructions: float = 1e9

    def __post_init__(self):
        if not self.epochs or all(not e.demand_misses for e in self.epochs):
            raise EmptyTrace("trace has no demand misses")
        if self.page_count < 1:
            raise InvariantViolation("page_count must be >= 1")
        for i, epoch in enumerate(self.epochs):
            for page, group in epoch.demand_misses:
                if not 0 <= page < self.page_count:
                    raise InvariantViolation(f"epoch {i}: page {page} out of range")
                if group < 1:
                    raise InvariantViolation(f"epoch {i}: group_size must be >= 1")


@dataclass(frozen=True)
class PolicyConfig:
    policy: str
    fast_capacity: int
    promo_threshold_accesses: int = 2
    max_promo_rate: int = 2000          # pages per epoch
    alto_lower: float = 40.0            # cycles; below: promotion disabled
    alto_upper: float = 100.0           # cycles; at/above: unthrottled
    alto_steps: int = 5
    migration_cost_us: float = 3.0      # blocking cost per promoted page

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise InvariantViolation(f"unknown policy: {self.policy!r}")
        if self.fast_capacity < 1:
            raise CapacityUnderflow("fast_capacity must be >= 1")
        if not self.alto_lower < self.alto_upper:
            raise InvariantViolation("alto_lower must be < alto_upper")
        if self.alto_steps < 1:
            raise InvariantViolation("alto_steps must be >= 1")


@dataclass
class PolicyOutcome:
    policy: str
    simulated_runtime: float
    allfast_runtime: float
    promotions: int
    demotions: int
    promo_rate_series: list[int] = field(default_factory=list)
    amortized_latency_series: list[float] = field(default_factory=list)
    slow_tier_access_fraction_series: list[float] = field(default_factory=list)
    gate_series: list[float] = field(default_factory=list)
    est_slowdown_series: list[float] = field(default_factory=list)


def alto_gate(amortized_latency: float, cfg: PolicyConfig) -> float:
    """Promotion admission fraction g for an epoch's amortized latency.

    0 strictly below the lower threshold, 1 at or above the upper one, and
    a (1/steps)-quantized ramp in between.
    """
    if amortized_latency < cfg.alto_lower:
        return 0.0
    if amortized_latency >= cfg.alto_upper:
        return 1.0
    span = cfg.alto_upper - cfg.alto_lower
    idx = math.floor((amortized_latency - cfg.alto_lower) / span * (cfg.alto_steps - 1)) if cfg.alto_steps > 1 else 0
    return (idx + 1) / cfg.alto_steps


def _admit(candidates: list[int], gate: float) -> list[int]:
    if gate >= 1.0:
        return list(candidates)
    keep = math.ceil(gate * _GATE_CHUNK)
    return [p for i, p in enumerate(candidates) if i % _GATE_CHUNK < keep]


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


def compare_policies(
    trace: TierTrace,
    cfgs: Sequence[PolicyConfig],
    local: DeviceProfile,
    remote: DeviceProfile,
) -> tuple[list[dict], list[PolicyOutcome]]:
    """Normalized runtimes against an all-fast-tier baseline of the same trace.

    Returns one comparison row and one outcome per config, in config order.
    """
    if not cfgs:
        raise EmptyTrace("no policy configs to compare")
    outcomes = [simulate(trace, cfg, local, remote) for cfg in cfgs]
    rows = [
        {
            "policy": o.policy,
            "runtime_s": o.simulated_runtime,
            "normalized_runtime": o.simulated_runtime / o.allfast_runtime,
            "promotions": o.promotions,
            "demotions": o.demotions,
        }
        for o in outcomes
    ]
    return rows, outcomes


def epoch_report(outcome: PolicyOutcome) -> list[dict]:
    return [
        {
            "epoch": i,
            "amortized_latency": outcome.amortized_latency_series[i],
            "promo_rate": outcome.promo_rate_series[i],
            "slow_fraction": outcome.slow_tier_access_fraction_series[i],
            "est_slowdown": outcome.est_slowdown_series[i],
        }
        for i in range(len(outcome.promo_rate_series))
    ]


def write_epoch_report_csv(outcome: PolicyOutcome, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "amortized_latency", "promo_rate", "slow_fraction", "est_slowdown"])
        for row in epoch_report(outcome):
            writer.writerow(
                [row["epoch"], repr(row["amortized_latency"]), row["promo_rate"],
                 repr(row["slow_fraction"]), repr(row["est_slowdown"])]
            )


# --- trace file format: misses CSV plus JSON header -----------------------

def write_trace(trace: TierTrace, csv_path: str | Path, header_path: str | Path) -> None:
    with Path(csv_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "page_id", "group_size"])
        for i, epoch in enumerate(trace.epochs):
            for page, group in epoch.demand_misses:
                writer.writerow([i, page, group])
    header = {
        "page_count": trace.page_count,
        "wss_pages": trace.wss_pages,
        "epoch_instructions": trace.epoch_instructions,
        "epochs": len(trace.epochs),
    }
    Path(header_path).write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")


def read_trace(csv_path: str | Path, header_path: str | Path) -> TierTrace:
    header = json.loads(Path(header_path).read_text())
    n_epochs = int(header["epochs"])
    epochs = [TraceEpoch(demand_misses=[]) for _ in range(n_epochs)]
    with Path(csv_path).open(newline="") as fh:
        for row_no, row in enumerate(csv.DictReader(fh), start=1):
            epoch = int(row["epoch"])
            if not 0 <= epoch < n_epochs:
                raise InvariantViolation(
                    f"trace row {row_no}: epoch {epoch} outside [0, {n_epochs})"
                )
            epochs[epoch].demand_misses.append((int(row["page_id"]), int(row["group_size"])))
    return TierTrace(
        epochs=epochs,
        page_count=int(header["page_count"]),
        wss_pages=int(header["wss_pages"]),
        epoch_instructions=float(header.get("epoch_instructions", 1e9)),
    )


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
