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

import heapq
import math
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .devmodel import CLOCK_GHZ, DeviceProfile, latency_cycles
from .errors import (FLOAT_MAX, EmptyTrace, InvariantViolation, MalformedTrace, ZeroDenominator,
                     Checked, JsonConfig, write_table)

POLICIES = ("first_touch", "tpp", "alto")

_GATE_CHUNK = 10  # candidate pages per admission window
# Cap on a trace header's epochs, checked before anything is allocated.  An
# empty epoch costs `simulate` nothing, but `read_trace` and `TierTrace` still
# build a view and an object for it: a one-row trace whose header says 200,000
# epochs takes 1.7-2.2 s and 115 MB peak RSS through `suplab tiersim` with three
# policies, 0.9-1.1 s of it in `read_trace`.  Busy epochs cost more: with
# 400,000 misses in 172,904 of them, `_grouping` took 4.4-4.5 s and one
# `simulate` 1.9 s (first_touch) to 3.2-3.6 s (tpp, alto) (2-CPU Xeon, numpy 2.4).
MAX_EPOCHS = 200_000


@dataclass(frozen=True)
class TraceEpoch:
    """One instruction-interval's (page_id, group_size) misses: pairs or an (n, 2) array."""

    demand_misses: Sequence[tuple[int, int]] | np.ndarray


@dataclass(frozen=True)
class TierTrace(Checked):
    """``epochs`` as given, plus the read-only flat arrays simulations read:
    all misses in trace order, epoch i at ``epoch_offsets[i]:epoch_offsets[i + 1]``."""

    epochs: list[TraceEpoch]
    page_count: int
    wss_pages: int
    epoch_instructions: float = 1e9
    page_ids: np.ndarray = field(init=False, repr=False, compare=False)
    group_sizes: np.ndarray = field(init=False, repr=False, compare=False)
    epoch_offsets: np.ndarray = field(init=False, repr=False, compare=False)

    # An epoch covers at least one instruction, so the per-instruction
    # slowdown is never larger than the stall cycles it divides.
    _BOUNDS = {"page_count": ((">=", 1),), "wss_pages": ((">=", 0),),
               "epoch_instructions": ((">=", 1),)}

    def __post_init__(self):
        if not any(len(e.demand_misses) for e in self.epochs):
            raise EmptyTrace("trace has no demand misses")
        super().__post_init__()
        columns = [np.asarray(e.demand_misses, dtype=np.int64).reshape(len(e.demand_misses), 2).T
                   for e in self.epochs]
        offsets = np.cumsum([0] + [c.shape[1] for c in columns])
        # one pass, straight into two C-contiguous columns
        pages, groups = np.concatenate(columns, axis=1, out=np.empty((2, offsets[-1]), np.int64))
        bad = (pages < 0) | (pages >= self.page_count) | (groups < 1)
        if bad.any():
            i = int(np.argmax(bad))
            epoch = int(np.searchsorted(offsets, i, side="right")) - 1
            if not 0 <= pages[i] < self.page_count:
                raise InvariantViolation(f"epoch {epoch}: page {pages[i]} out of range")
            raise InvariantViolation(f"epoch {epoch}: group_size must be >= 1")
        for name, arr in (("page_ids", pages), ("group_sizes", groups), ("epoch_offsets", offsets)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def _grouping(self) -> tuple[np.ndarray, int, list[tuple]]:
        """The policy-free work of every simulation, done on the first: page ids,
        renumbered densely if sparse (far more id values than misses) and in id
        order, so every tie-break and output stays the same; their count; and per
        epoch with misses, its index and bounds, the misses' stable order by page,
        the page runs' starts, the pages and their hits, the pages first touched
        in the trace in that epoch, in first-touch order, and each run's last miss
        index.  An epoch with no misses changes no page state, so it costs nothing
        here or in ``simulate``."""
        page_ids = self.page_ids
        n_pages = int(page_ids.max()) + 1   # not page_count: a header may overstate it
        if n_pages > 8 * len(page_ids) + 2**20:
            ids, page_ids = np.unique(page_ids, return_inverse=True)
            n_pages = len(ids)
        busy, seen = [], np.zeros(n_pages, dtype=bool)
        sizes = np.diff(self.epoch_offsets)
        keys, b = _sort_keys(page_ids, n_pages, self.epoch_offsets, sizes)
        index_mask = (1 << b) - 1
        offsets = self.epoch_offsets.tolist()
        for i in np.flatnonzero(sizes).tolist():
            lo, hi = offsets[i], offsets[i + 1]
            if keys is None:
                order = np.argsort(page_ids[lo:hi], kind="stable")
                sorted_pages = page_ids[lo:hi][order]
            else:   # the sorted keys hold both the order and the pages
                sorted_keys = keys[lo:hi]
                sorted_keys.sort()   # in place: no one else reads the keys
                order, sorted_pages = sorted_keys & index_mask, sorted_keys >> b
            starts = np.flatnonzero(np.diff(sorted_pages, prepend=-1))
            uniq, hits = sorted_pages[starts], np.diff(starts, append=hi - lo)
            new = ~seen[uniq]
            seen[uniq] = True
            busy.append((i, lo, hi, order, starts, uniq, hits,
                         uniq[new][np.argsort(order[starts[new]])], lo + order[starts + hits - 1]))
        return page_ids, n_pages, busy

    def _allfast_stalls(self, fast_lat: float) -> list[float]:
        """Each busy epoch's stall cycles with every page in the fast tier, summed
        miss by miss as ``simulate`` sums its own: made once per fast-tier latency,
        since no policy changes it."""
        cache = self.__dict__.setdefault("_allfast_cache", {})   # frozen: no setattr
        if fast_lat not in cache:
            groups = self.group_sizes
            cache[fast_lat] = [np.cumsum(fast_lat / groups[lo:hi])[-1].item()
                               for _, lo, hi, *_ in self._grouping[2]]
        return cache[fast_lat]


def _sort_keys(page_ids: np.ndarray, n_pages: int, offsets: np.ndarray,
               sizes: np.ndarray) -> tuple[np.ndarray | None, int]:
    """Each miss's key ``(page << b) | its index in its epoch``, and b, the bits of
    the longest epoch's last index.  The keys are unique within an epoch, so
    an epoch's keys sorted and masked back to the index are
    ``np.argsort(pages, kind="stable")``, and shifted back, the sorted pages.

    Keys are None if one could pass 2**63.  That needs a trace of more than 2**29
    misses (12 GiB as ``read_trace`` parses it): past renumbering, ``n_pages``
    <= 8 * misses + 2**20, and 2**b < 2 * misses."""
    b = int(sizes.max() - 1).bit_length()
    if (n_pages - 1).bit_length() + b > 63:
        return None, b
    keys = page_ids << b   # then the index, in place: fewer trace-sized temporaries
    keys += np.arange(len(page_ids))
    keys -= np.repeat(offsets[:-1], sizes)
    return keys, b


@dataclass(frozen=True)
class TraceHeader(JsonConfig):
    """A trace file's JSON header: ``TierTrace``'s scalar fields and the epoch count."""

    epochs: int
    page_count: int
    wss_pages: int
    epoch_instructions: float = 1e9

    _BOUNDS = {**TierTrace._BOUNDS, "epochs": ((">=", 0), ("<=", MAX_EPOCHS))}


@dataclass(frozen=True)
class PolicyConfig(JsonConfig):
    policy: str
    fast_capacity: int
    promo_threshold_accesses: int = 2
    max_promo_rate: int = 2000          # pages per epoch
    alto_lower: float = 40.0            # cycles; below: promotion disabled
    alto_upper: float = 100.0           # cycles; at/above: unthrottled
    alto_steps: int = 5
    migration_cost_us: float = 3.0      # blocking cost per promoted page

    _BOUNDS = {"fast_capacity": ((">=", 1),), "promo_threshold_accesses": ((">=", 1),),
               "max_promo_rate": ((">=", 0),), "alto_steps": ((">=", 1),),
               "migration_cost_us": ((">=", 0),)}

    def __post_init__(self):
        super().__post_init__()
        if self.policy not in POLICIES:
            raise InvariantViolation(f"PolicyConfig.policy must be in {POLICIES}, got {self.policy!r:.40}")
        if not self.alto_lower < self.alto_upper:
            raise InvariantViolation("PolicyConfig.alto_lower must be < alto_upper")
        if self.alto_upper - self.alto_lower > FLOAT_MAX:   # alto_gate divides by it
            raise InvariantViolation("PolicyConfig.alto_upper - alto_lower exceeds the float range")


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


def _admit(candidates: np.ndarray, gate: float) -> np.ndarray:
    if gate >= 1.0:
        return candidates
    keep = math.ceil(gate * _GATE_CHUNK)
    return candidates[np.arange(len(candidates)) % _GATE_CHUNK < keep]


def _lru_victims(fast: np.ndarray, last_use: np.ndarray, admitted: np.ndarray, free: int):
    """Pages demoted as ``admitted`` are promoted in order: past the ``free`` slots, each
    promotion evicts the least recently used fast page, maybe one promoted before it."""
    need = len(admitted) - free
    if need <= 0:
        return admitted[:0]
    resident = np.flatnonzero(fast)
    if need < len(resident):
        resident = resident[np.argpartition(last_use[resident], need - 1)[:need]]
    oldest = resident[np.argsort(last_use[resident])]
    if len(oldest) == need and (last_use[admitted[:-1]] > last_use[oldest[-1]]).all():
        return oldest   # every victim is older than every page promoted before it
    heap = list(zip(last_use[oldest].tolist(), oldest.tolist()))   # sorted, so a heap
    victims = []
    for j, item in enumerate(zip(last_use[admitted].tolist(), admitted.tolist())):
        if j < free:
            heapq.heappush(heap, item)
        else:   # evict the oldest, then add the promoted page
            victims.append(heapq.heapreplace(heap, item)[1])
    return np.array(victims, dtype=np.int64)


@np.errstate(over="ignore")   # an overflowing runtime is reported by the output writers
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
    tier, summed miss by miss in trace order.  Per-page state lives in
    arrays indexed by page id; each epoch with misses is array operations over
    them.  What no policy changes is made on a trace's first simulation and
    reused by every later one: the misses grouped by page
    (``TierTrace._grouping``), and per fast-tier latency each epoch's all-fast
    stall (``TierTrace._allfast_stalls``).
    """
    fast_lat = latency_cycles(local)
    slow_lat = latency_cycles(remote)

    page_ids, n_pages, busy = trace._grouping
    fast = np.zeros(n_pages, dtype=bool)               # page is in the fast tier
    last_use = np.full(n_pages, -1, np.int64)          # index of its latest miss, -1 if none
    access_count = np.zeros(n_pages, np.int64)         # slow hits since last migration
    fast_pages = 0

    # Every series starts at an idle epoch's values: no misses, no promotions,
    # latency 0.0; busy epochs overwrite theirs.
    n_epochs = len(trace.epoch_offsets) - 1
    idle_gate = alto_gate(0.0, cfg) if cfg.policy == "alto" else float(cfg.policy == "tpp")
    outcome = PolicyOutcome(
        policy=cfg.policy, simulated_runtime=0.0, allfast_runtime=0.0, promotions=0, demotions=0,
        promo_rate_series=[0] * n_epochs, amortized_latency_series=[0.0] * n_epochs,
        slow_tier_access_fraction_series=[0.0] * n_epochs, gate_series=[idle_gate] * n_epochs,
        est_slowdown_series=[0.0] * n_epochs)
    stall_cycles_total = allfast_cycles_total = 0.0

    for (i, lo, hi, order, starts, uniq, hits, touched, last), stall_allfast in zip(
            busy, trace._allfast_stalls(fast_lat)):
        n_misses = hi - lo
        allocated = touched[: cfg.fast_capacity - fast_pages]
        fast[allocated] = True
        fast_pages += len(allocated)

        is_fast = fast[page_ids[lo:hi]]
        lat = np.where(is_fast, fast_lat, slow_lat)
        stall = np.cumsum(lat / trace.group_sizes[lo:hi])[-1].item()   # in miss order, as a loop sums
        slow_hits = n_misses - int(np.count_nonzero(is_fast))
        amortized = stall / n_misses

        gate = alto_gate(amortized, cfg) if cfg.policy == "alto" else idle_gate

        promoted = 0
        if cfg.policy != "first_touch":
            last_use[uniq] = last   # read only to pick LRU victims
            slow = ~fast[uniq]
            slow_pages, slow_page_hits = uniq[slow], hits[slow]
            prior = access_count[slow_pages]
            access_count[slow_pages] = prior + slow_page_hits
            if gate > 0:
                need = np.maximum(1, cfg.promo_threshold_accesses - prior)
                crosses = slow_page_hits >= need
                if crosses.any():   # else nothing moves
                    # Candidates in the order of the misses that take them to the threshold.
                    at = order[starts[slow][crosses] + need[crosses] - 1]
                    candidates = slow_pages[crosses][np.argsort(at)]
                    admitted = _admit(candidates, gate)[: cfg.max_promo_rate]
                    victims = _lru_victims(fast, last_use, admitted, cfg.fast_capacity - fast_pages)
                    # Victims last: a page promoted and demoted in one epoch ends slow.
                    fast[admitted] = True
                    fast[victims] = False
                    access_count[admitted] = access_count[victims] = 0
                    promoted = len(admitted)
                    fast_pages += promoted - len(victims)
                    outcome.demotions += len(victims)
        outcome.promotions += promoted

        stall_cycles_total += stall
        allfast_cycles_total += stall_allfast
        outcome.promo_rate_series[i] = promoted
        outcome.amortized_latency_series[i] = amortized
        outcome.slow_tier_access_fraction_series[i] = slow_hits / n_misses
        outcome.gate_series[i] = gate
        outcome.est_slowdown_series[i] = (stall - stall_allfast) / trace.epoch_instructions

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
    if outcomes[0].allfast_runtime == 0:   # the same for every policy
        raise ZeroDenominator(f"{local.name}: the all-fast-tier runtime underflows to zero")
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


def write_epoch_report_csv(outcome: PolicyOutcome, path: str | Path) -> None:
    """One row per epoch: amortized latency, promotions, slow fraction, est. slowdown."""
    write_table(path, ["epoch", "amortized_latency", "promo_rate", "slow_fraction", "est_slowdown"],
                [range(len(outcome.promo_rate_series)), outcome.amortized_latency_series,
                 outcome.promo_rate_series, outcome.slow_tier_access_fraction_series,
                 outcome.est_slowdown_series])


# --- trace file format: misses CSV plus JSON header -----------------------

_TRACE_COLUMNS = ["epoch", "page_id", "group_size"]


def write_trace(trace: TierTrace, csv_path: str | Path, header_path: str | Path) -> None:
    n_epochs = len(trace.epoch_offsets) - 1
    header = TraceHeader(n_epochs, trace.page_count, trace.wss_pages, trace.epoch_instructions)
    epochs = np.repeat(np.arange(n_epochs), np.diff(trace.epoch_offsets))
    write_table(csv_path, _TRACE_COLUMNS, [epochs, trace.page_ids, trace.group_sizes])
    header.to_json(header_path)


def _bad_trace_row(csv_path: str | Path) -> str | None:
    """A message naming the first data row that is not three fields np.loadtxt
    reads as int64 (ASCII digits, maybe signed, amid whitespace), or None; data
    rows count from 1, skipping empty lines, as in the epoch-range error."""
    with Path(csv_path).open(errors="replace") as fh:
        fh.readline()
        lines = (line.rstrip("\r\n") for line in fh)
        for row, cells in enumerate((line.split(",") for line in lines if line), start=1):
            if len(cells) != len(_TRACE_COLUMNS):
                return f"trace row {row} has {len(cells)} fields, expected {len(_TRACE_COLUMNS)}"
            for name, text in zip(_TRACE_COLUMNS, cells):
                number = re.fullmatch(r"[+-]?[0-9]+", text.strip())
                if not (number and -2**63 <= int(number[0]) < 2**63):
                    return f"trace row {row}: {name}={text!r} is not a 64-bit integer"
    return None


def read_trace(csv_path: str | Path, header_path: str | Path) -> TierTrace:
    header = TraceHeader.from_json(header_path)
    n_epochs, page_count = header.epochs, header.page_count
    try:
        with Path(csv_path).open() as fh:
            if fh.readline().rstrip("\r\n").split(",") != _TRACE_COLUMNS:
                raise MalformedTrace(f"{csv_path}: header row is not {','.join(_TRACE_COLUMNS)}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # a file with no rows
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2,
                              comments=None)
        if data.size and data.shape[1] != len(_TRACE_COLUMNS):
            raise ValueError(f"rows have {data.shape[1]} fields")
    except ValueError as exc:   # includes UnicodeDecodeError
        raise MalformedTrace(f"{csv_path}: {_bad_trace_row(csv_path) or exc}") from None
    data = data.reshape(-1, len(_TRACE_COLUMNS))   # a file with no rows loads as (0, 1)
    epoch, pages, groups = data.T
    bad = (epoch < 0) | (epoch >= n_epochs) | (pages < 0) | (pages >= page_count) | (groups < 1)
    if bad.any():   # name the first bad row, in file order
        row = int(np.argmax(bad))
        e, p, g = data[row].tolist()
        raise InvariantViolation(f"{csv_path}: trace row {row + 1}: " + (
            f"epoch {e} outside [0, {n_epochs})" if not 0 <= e < n_epochs else
            f"page {p} outside [0, {page_count})" if not 0 <= p < page_count else
            f"group_size {g} must be >= 1"))
    ordered = data[np.argsort(epoch, kind="stable")] if (epoch[1:] < epoch[:-1]).any() else data
    bounds = np.searchsorted(ordered[:, 0], np.arange(1, n_epochs))
    epochs = [TraceEpoch(demand_misses=m) for m in np.split(ordered[:, 1:], bounds)]   # views
    return TierTrace(epochs=epochs, page_count=page_count, wss_pages=header.wss_pages,
                     epoch_instructions=header.epoch_instructions)


# --- fixture traces --------------------------------------------------------
#
# All builders open with a warmup epoch touching pages [0, 2500) so the
# fast tier (capacity 2500 in the fixture configs) fills via first touch
# and later pages allocate on the slow tier.

def _epoch(pages: np.ndarray, group: int) -> TraceEpoch:
    return TraceEpoch(demand_misses=np.column_stack((pages, np.full(len(pages), group))))


def make_two_phase_trace(seed: int = 0) -> TierTrace:
    """tc-twitter analog: an overlapped miss storm, then a low-MLP hot phase.

    Phase 1 streams deeply overlapped misses over a cold slow-tier region
    (amortized latency below the promotion gate's lower threshold); phase 2
    re-hits a small slow-tier working set with no overlap, where promotion
    actually pays off.
    """
    rng = np.random.default_rng(seed)
    epochs = [_epoch(np.arange(2500), 16)]
    stream = np.arange(2500, 5000)
    epochs += [_epoch(np.repeat(rng.permutation(stream), 2), 16) for _ in range(15)]
    hot = np.tile(np.arange(2500, 3000), 8)   # 4000 misses cycling over 500 pages
    epochs += [_epoch(hot, 1) for _ in range(30)]
    return TierTrace(epochs=epochs, page_count=5000, wss_pages=3000)


def make_deep_overlap_trace(seed: int = 0) -> TierTrace:
    """GPT-2 analog: always-overlapped streaming over a huge cold set.

    Every page crosses the promotion threshold then never returns, so any
    promotion is pure migration overhead.
    """
    rng = np.random.default_rng(seed)
    page_count = 40000
    cursor = int(rng.integers(0, page_count - 2500))
    stream = 2500 + (cursor + np.arange(60 * 4000)) % (page_count - 2500)
    epochs = [_epoch(np.arange(2500), 16)]
    epochs += [_epoch(np.repeat(pages, 2), 16) for pages in np.split(stream, 60)]
    return TierTrace(epochs=epochs, page_count=page_count, wss_pages=2500)


def make_no_overlap_trace(seed: int = 0) -> TierTrace:
    """tc-kron analog: pointer-chase-like misses, no overlap to exploit."""
    rng = np.random.default_rng(seed)
    page_count = 8000
    epochs = [_epoch(np.arange(2500), 1)]
    epochs += [_epoch(rng.integers(0, page_count, size=4000), 1) for _ in range(20)]
    return TierTrace(epochs=epochs, page_count=page_count, wss_pages=4000)
