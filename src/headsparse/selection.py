"""Dynamic token selection over one head's score vector.

Two routes produce an active set:

* exact: sort the token scores, walk the softmax mass until it reaches p
  (or take a fixed top-k budget); above a size cutoff only a candidate
  pool is sorted, cut from the token masses by the histogram scan below;
* sort-free: partition tokens into fixed-size blocks, keep only each
  block's log-sum-exp pair, deposit block masses into a 256-bin histogram
  keyed by block maximum, scan bins from the top until the accumulated
  mass reaches p, and emit a block-level mask plus the kept blocks merged
  into runs of adjacent tokens (`spans`), which attention reads as
  contiguous slices instead of gathering rows.

Both routes bin with one rule and cut with one scan (_bin_indices, _cut).

The histogram route touches per-block summaries only, never per-token
values, and always includes the threshold bin whole, so its recomputed
coverage can overshoot p but never undershoot it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentError, InternalError
from .numerics import LsePair, descending_order, lse_merge, lse_reduce, require_finite, softmax

N_BINS = 256
HIST_RANGE = 32.0  # natural-log units below the global max covered by bins
BIN_WIDTH = HIST_RANGE / N_BINS


@dataclass(frozen=True)
class BlockStats:
    """One block's summary: covered token range plus its LSE pair."""

    block_index: int
    start: int
    length: int
    lse: LsePair

    def __post_init__(self):
        if self.length < 1:
            raise ArgumentError("block must contain at least one token")
        if self.lse.l < 1.0 - 1e-12:
            raise ArgumentError("block LSE mass below 1 (max token missing?)")


@dataclass(frozen=True)
class SelectionResult:
    """Active token set plus bookkeeping from the route that produced it.

    `spans`, when set, is active_set as sorted disjoint runs of adjacent
    tokens; attention then reads slices of the cache rather than a gathered
    copy.  Its length is the token count, not the run count."""

    active_set: np.ndarray            # sorted token indices
    covered_mass: float               # softmax mass of active_set, exact
    block_mask: np.ndarray | None = None
    threshold_bin: int | None = None
    spans: tuple[slice, ...] | None = None

    @property
    def size(self) -> int:
        return int(self.active_set.size)

    def __len__(self) -> int:
        return self.size


# Above this size the exact walk switches from a full sort to a candidate
# pool sized by mass; the selected set is the same, just cheaper.
_SORT_CUTOFF = 4096


def top_p_exact(scores: np.ndarray, p: float) -> SelectionResult:
    """Smallest set of highest-scoring tokens with softmax mass >= p."""
    if not (0 < p <= 1):
        raise ArgumentError(f"p must lie in (0, 1], got {p}")
    s = require_finite(scores, "scores")
    if s.size == 0:
        raise ArgumentError("scores must be non-empty")
    if p >= 1.0:
        # true softmax weights are all positive, so no proper subset can
        # reach mass 1; skipping the cumsum also dodges its rounding dust
        return SelectionResult(np.arange(s.size), 1.0)
    probs = softmax(s)
    if s.size <= _SORT_CUTOFF:
        return _top_p_sorted(s, probs, p)
    return _top_p_partitioned(s, probs, p)


def _top_p_sorted(s: np.ndarray, probs: np.ndarray, p: float) -> SelectionResult:
    """Reference walk: full stable sort, cumulative mass, one threshold."""
    order = descending_order(s)
    csum = np.cumsum(probs[order])
    # target scales with the realized total, which can sit an ulp off 1.0
    cut = int(np.searchsorted(csum, p * csum[-1], side="left"))
    cut = min(cut, s.size - 1)
    active = np.sort(order[: cut + 1])
    return SelectionResult(active, float(probs[active].sum()))


def _top_p_partitioned(s: np.ndarray, probs: np.ndarray, p: float) -> SelectionResult:
    """Exact walk over a candidate pool sized by mass instead of a full sort.

    Token masses go through the histogram route's binning and scan, keyed
    by each token's own score; the pool is every token at or above one bin
    below the cut.  Bin index never falls as the score rises, so the pool
    is a complete upper set (ties included) and its stable descending order
    is exactly the prefix the full sort walks.  Should the cut sit in the
    bottom two bins, or float dust leave the pool short of the target, the
    full sort decides.
    """
    target = p * float(probs.sum())
    idx = _bin_indices(s, float(s.max()))
    cut = _cut(idx, probs, target)
    if cut <= 1:
        return _top_p_sorted(s, probs, p)
    pool = np.flatnonzero(idx >= cut - 1)
    order = pool[descending_order(s[pool])]
    csum = np.cumsum(probs[order])
    if csum[-1] < target:
        return _top_p_sorted(s, probs, p)
    cut = int(np.searchsorted(csum, target, side="left"))
    active = np.sort(order[: cut + 1])
    return SelectionResult(active, float(probs[active].sum()))


def top_k_static(scores: np.ndarray, k: int) -> SelectionResult:
    """Fixed budget of the k highest-scoring tokens (ties to lower index)."""
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")
    s = require_finite(scores, "scores")
    if s.size == 0:
        raise ArgumentError("scores must be non-empty")
    probs = softmax(s)
    order = descending_order(s)
    active = np.sort(order[: min(k, s.size)])
    return SelectionResult(active, float(probs[active].sum()))


def _block_lse(s: np.ndarray, block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-block (max, shifted mass) arrays, bit-equal to lse_reduce per chunk.

    Full blocks reduce as rows of one reshaped matrix; the ragged tail is
    folded on its own so its summation tree matches the chunked form.
    """
    n_full = s.size // block_size
    parts_m, parts_l = [], []
    if n_full:
        mat = s[: n_full * block_size].reshape(n_full, block_size)
        m = mat.max(axis=1)
        parts_m.append(m)
        parts_l.append(np.exp(mat - m[:, None]).sum(axis=1))
    if s.size % block_size:
        tail = lse_reduce(s[n_full * block_size :])
        parts_m.append(np.array([tail.m]))
        parts_l.append(np.array([tail.l]))
    return np.concatenate(parts_m), np.concatenate(parts_l)


def block_partition_stats(scores: np.ndarray, block_size: int,
                          start: int = 0) -> list[BlockStats]:
    """Consecutive blocks of block_size tokens; `start` is the global index
    of the first token (used when scoring one split of a KV range)."""
    if block_size < 1:
        raise ArgumentError(f"block_size must be >= 1, got {block_size}")
    s = require_finite(scores, "scores")
    if s.size == 0:
        raise ArgumentError("scores must be non-empty")
    m, l = _block_lse(s, block_size)
    return [
        BlockStats(b, start + off, min(block_size, s.size - off),
                   LsePair(float(m[b]), float(l[b])))
        for b, off in enumerate(range(0, s.size, block_size))
    ]


def _block_arrays(blocks: Sequence[BlockStats]) -> tuple[np.ndarray, np.ndarray]:
    """(block maxima, shifted block masses) as float64 vectors."""
    m = np.array([b.lse.m for b in blocks], np.float64)
    l = np.array([b.lse.l for b in blocks], np.float64)
    return m, l


def _bin_indices(m: np.ndarray, m_star: float) -> np.ndarray:
    """Bin of each score: BIN_WIDTH-wide bins up from m_star - HIST_RANGE."""
    lo = m_star - HIST_RANGE
    raw = np.floor((m - lo) / BIN_WIDTH).astype(np.int64)
    return np.clip(raw, 0, N_BINS - 1)


def _cut(idx: np.ndarray, masses: np.ndarray, target: float) -> int:
    """The top-down scan: the highest bin whose mass plus every bin above it
    reaches target, or bin 0 when float dust leaves the total a hair short."""
    bins = np.bincount(idx, weights=masses, minlength=N_BINS)
    reached = int(np.searchsorted(np.cumsum(bins[::-1]), target, side="left"))
    return max(N_BINS - 1 - reached, 0)


def _merged_runs(starts: np.ndarray, stops: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Token-ordered disjoint blocks [starts[b], stops[b]) merged into runs:
    a block opens a new run unless it starts where the one before it stops."""
    opens = np.ones(starts.size, bool)
    opens[1:] = starts[1:] != stops[:-1]
    closes = np.append(opens[1:], True)
    return starts[opens], stops[closes]


def _expand_runs(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Every token of the runs [starts[r], stops[r]), in order: one arange
    shifted run by run, the concatenation of the per-run aranges."""
    lengths = stops - starts
    shift = starts - (np.cumsum(lengths) - lengths)
    return np.arange(lengths.sum()) + np.repeat(shift, lengths)


def _scan(m: np.ndarray, l: np.ndarray, starts: np.ndarray, stops: np.ndarray,
          p: float) -> SelectionResult:
    """The histogram route over per-block (max, shifted mass) vectors; block
    b covers tokens [starts[b], stops[b]), blocks in token order.

    Reference every block mass to the global max, bin it by its own
    maximum, cut where the top-down scan reaches p of the total, and keep
    every block at or above the cut, merged into runs of adjacent blocks.
    """
    if not (0 < p <= 1):
        raise ArgumentError(f"p must lie in (0, 1], got {p}")
    m_star = float(m.max())
    masses = l * np.exp(m - m_star)
    idx = _bin_indices(m, m_star)
    threshold = _cut(idx, masses, p * float(masses.sum()))
    mask = idx >= threshold
    if not mask.any():
        raise InternalError("histogram scan selected no block")
    covered = float(math.fsum(masses[mask]) / math.fsum(masses))
    run_starts, run_stops = _merged_runs(starts[mask], stops[mask])
    spans = tuple(map(slice, run_starts.tolist(), run_stops.tolist()))
    return SelectionResult(_expand_runs(run_starts, run_stops), covered,
                           block_mask=mask, threshold_bin=threshold, spans=spans)


def histogram_threshold(blocks: Sequence[BlockStats], p: float) -> SelectionResult:
    """Histogram selection over block stats listed in token order (as
    block_partition_stats and split_merge produce them)."""
    if len(blocks) == 0:
        raise ArgumentError("no blocks to select from")
    m, l = _block_arrays(blocks)
    starts = np.array([b.start for b in blocks], np.int64)
    stops = starts + np.array([b.length for b in blocks], np.int64)
    return _scan(m, l, starts, stops, p)


def histogram_threshold_scores(scores: np.ndarray, block_size: int,
                               p: float) -> SelectionResult:
    """Sort-free selection straight from a raw score vector.

    Same result as block_partition_stats followed by histogram_threshold,
    without materialising per-block objects on every decode step.
    """
    if block_size < 1:
        raise ArgumentError(f"block_size must be >= 1, got {block_size}")
    s = require_finite(scores, "scores")
    if s.size == 0:
        raise ArgumentError("scores must be non-empty")
    m, l = _block_lse(s, block_size)
    starts = np.arange(m.size, dtype=np.int64) * block_size
    return _scan(m, l, starts, np.minimum(starts + block_size, s.size), p)


def block_top_p_exact(blocks: Sequence[BlockStats], p: float) -> int:
    """Reference for the overshoot bound: number of blocks an exact
    block-level walk (descending block max, ties to lower index) needs
    before cumulative mass reaches p."""
    if not (0 < p <= 1):
        raise ArgumentError(f"p must lie in (0, 1], got {p}")
    if len(blocks) == 0:
        raise ArgumentError("no blocks")
    m, l = _block_arrays(blocks)
    masses = l * np.exp(m - float(m.max()))
    order = descending_order(m)
    target = p * float(masses.sum())
    cum = 0.0
    for count, b in enumerate(order, start=1):
        cum += float(masses[b])
        if cum >= target:
            return count
    return len(blocks)


def split_merge(partials: Sequence[Sequence[BlockStats]]) -> list[BlockStats]:
    """Fuse per-split block stats into the single-list equivalent.

    Splits must cover contiguous, ordered, non-overlapping ranges and be
    block-aligned, so the result is identical to block stats computed on
    the unsplit vector.
    """
    if len(partials) == 0:
        raise ArgumentError("no splits to merge")
    flat: list[BlockStats] = []
    for split in partials:
        if len(split) == 0:
            raise ArgumentError("empty split")
        flat.extend(split)
    expect = flat[0].start
    for b in flat:
        if b.start != expect:
            raise ArgumentError(
                f"splits overlap or leave a gap at token {expect} (got start {b.start})"
            )
        expect = b.start + b.length
    block_size = flat[0].length
    for b in flat[:-1]:
        if b.length != block_size:
            raise ArgumentError("split boundaries are not block-aligned")
    if flat[-1].length > block_size:
        raise ArgumentError("split boundaries are not block-aligned")
    return [
        BlockStats(i, b.start, b.length, b.lse) for i, b in enumerate(flat)
    ]


def merged_lse(blocks: Sequence[BlockStats]) -> LsePair:
    """Whole-vector LSE pair implied by the block stats."""
    return lse_merge([b.lse for b in blocks])
