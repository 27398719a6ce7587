"""Softmax, log-sum-exp pairs, and KL divergence.

Scores are stored in float32 elsewhere, but every reduction here promotes to
float64 before accumulating and only converts back (if at all) at the edges.
A score vector folds into one (max, sum of shifted exps) pair; selection's
block table keeps one such pair per block.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, NumericError

# Probabilities below this are treated as this value inside log ratios.
KL_EPS = 1e-9


class LsePair(NamedTuple):
    """Streaming softmax state: max `m` and shifted mass `l = sum exp(s - m)`."""

    m: float
    l: float


def require_finite(x: np.ndarray, name: str = "input") -> np.ndarray:
    """Return x as a float64 array, raising NumericError on NaN/inf."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite values")
    return arr


def descending_order(scores: np.ndarray) -> np.ndarray:
    """Indices by descending score, ties resolved toward the lower index."""
    return np.argsort(-np.asarray(scores, np.float64), kind="stable")


def softmax(scores: np.ndarray) -> np.ndarray:
    """Shift-stable softmax along the last axis, computed in float64.  A -inf
    score is masked to weight exactly 0; NaN, +inf or a row with no finite
    score make the row maximum non-finite and raise NumericError."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise ArgumentError("softmax of an empty score vector is undefined")
    top = arr.max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise NumericError("scores contains non-finite values")
    ex = arr - top
    np.exp(ex, out=ex)
    ex /= ex.sum(axis=-1, keepdims=True)
    return ex


def lse_reduce(scores: np.ndarray) -> LsePair:
    """Fold a score vector into a single (max, shifted mass) pair."""
    arr = require_finite(scores, "scores")
    if arr.size == 0:
        raise ArgumentError("lse_reduce needs at least one score")
    m = float(arr.max())
    return LsePair(m, float(np.exp(arr - m).sum()))


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) over matching supports, in nats.

    q is clamped from below at KL_EPS inside the log so an over-confident
    reference cannot produce inf; the result is clamped at zero so float
    round-off on (near-)identical inputs cannot go negative.
    """
    parr = require_finite(p, "p")
    qarr = require_finite(q, "q")
    if parr.shape != qarr.shape:
        raise ArgumentError(f"shape mismatch: {parr.shape} vs {qarr.shape}")
    if np.any(parr < 0) or np.any(qarr < 0):
        raise ArgumentError("probabilities must be non-negative")
    qc = np.maximum(qarr, KL_EPS)
    mask = parr > 0
    val = float(np.sum(parr[mask] * np.log(parr[mask] / qc[mask])))
    return max(val, 0.0)
