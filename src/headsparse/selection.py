"""Dynamic token selection over one head's score vector.

Two routes produce an active set:

* exact: sort the token scores, walk the softmax mass until it reaches p
  (or take a fixed top-k budget); above a size cutoff only a candidate
  pool is sorted, cut from the token masses by the histogram scan below;
* sort-free: partition tokens into fixed-size blocks and keep only each
  block's log-sum-exp pair, one row of a `BlockTable`; deposit block
  masses into a 256-bin histogram keyed by block maximum, scan bins from
  the top until the accumulated mass reaches p, and emit a block-level
  mask plus the kept blocks merged into runs of adjacent tokens (`spans`),
  which attention reads as contiguous slices instead of gathering rows.

Both routes bin with one rule and cut with one scan (_bin_indices, _cut).

The histogram route touches the block table only, never per-token values,
and always includes the threshold bin whole, so its recomputed coverage
can overshoot p but never undershoot it.  Each block's pair depends on
its own tokens only, so the tables of block-aligned splits of a KV range,
shifted to their offsets and concatenated, are exactly the table of the
unsplit range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, InternalError
from .numerics import descending_order, lse_reduce, require_finite, softmax

N_BINS = 256
HIST_RANGE = 32.0  # natural-log units below the global max covered by bins
BIN_WIDTH = HIST_RANGE / N_BINS


class ActiveSet:
    """A dataclass field kept as given in the holder's `_active_set`: token
    indices, or spans (sorted disjoint slices) that each read expands."""

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("active_set")  # the field has no default
        held = obj._active_set
        if isinstance(held, tuple):
            return _expand_runs(*np.array([(s.start, s.stop) for s in held], np.int64).T)
        return held

    def __set__(self, obj, value):
        obj.__dict__["_active_set"] = value


def set_size(held: np.ndarray | tuple[slice, ...]) -> int:
    """Token count of an index array or of spans."""
    return sum(s.stop - s.start for s in held) if isinstance(held, tuple) else int(held.size)


@dataclass(frozen=True)
class SelectionResult:
    """Active token set plus bookkeeping from the route that produced it.

    `spans`, when set, is active_set as sorted disjoint runs of adjacent
    tokens; attention then reads slices of the cache rather than a gathered
    copy.  Its length is the token count, not the run count."""

    active_set: np.ndarray = ActiveSet()  # sorted token indices, or spans
    covered_mass: float                   # softmax mass of active_set, exact
    block_mask: np.ndarray | None = None
    threshold_bin: int | None = None

    @property
    def spans(self) -> tuple[slice, ...] | None:
        return self._active_set if isinstance(self._active_set, tuple) else None

    @property
    def size(self) -> int:
        return set_size(self._active_set)

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


class BlockTable(NamedTuple):
    """The block route's one summary: block b covers tokens
    [starts[b], stops[b]) and holds the LSE pair (m[b], l[b]) of their
    scores.  Blocks are in token order; each column is one array."""

    m: np.ndarray        # block maxima
    l: np.ndarray        # shifted block masses, sum exp(s - m[b])
    starts: np.ndarray
    stops: np.ndarray


def block_table(scores: np.ndarray, block_size: int) -> BlockTable:
    """Consecutive blocks of block_size tokens from token 0.

    Full blocks reduce as rows of one reshaped matrix; the ragged tail is
    folded by lse_reduce, so every pair is bit-equal to lse_reduce of its
    block.
    """
    if block_size < 1:
        raise ArgumentError(f"block_size must be >= 1, got {block_size}")
    s = require_finite(scores, "scores")
    if s.size == 0:
        raise ArgumentError("scores must be non-empty")
    n_full = s.size // block_size
    mat = s[: n_full * block_size].reshape(n_full, block_size)
    m = mat.max(axis=1)
    l = np.exp(mat - m[:, None]).sum(axis=1)
    if s.size % block_size:
        tail = lse_reduce(s[n_full * block_size :])
        m, l = np.append(m, tail.m), np.append(l, tail.l)
    starts = np.arange(m.size, dtype=np.int64) * block_size
    return BlockTable(m, l, starts, np.minimum(starts + block_size, s.size))


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


def histogram_threshold(table: BlockTable, p: float) -> SelectionResult:
    """The histogram route over a block table.

    Reference every block mass to the global max, bin it by its own
    maximum, cut where the top-down scan reaches p of the total, and keep
    every block at or above the cut, merged into runs of adjacent blocks.
    """
    if not (0 < p <= 1):
        raise ArgumentError(f"p must lie in (0, 1], got {p}")
    m, l, starts, stops = table
    if m.size == 0:
        raise ArgumentError("no blocks to select from")
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
    return SelectionResult(spans, covered, block_mask=mask, threshold_bin=threshold)


def histogram_threshold_scores(scores: np.ndarray, block_size: int,
                               p: float) -> SelectionResult:
    """Sort-free selection straight from a raw score vector."""
    return histogram_threshold(block_table(scores, block_size), p)

