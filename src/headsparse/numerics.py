"""Softmax, log-sum-exp pairs, and the one KL divergence, `softmax_kl`.

Scores are stored in float32 elsewhere, but every reduction here promotes to
float64 before accumulating and only converts back (if at all) at the edges.
A score vector folds into one (max, sum of shifted exps) pair; selection's
block table keeps one such pair per block.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, NumericError


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
    """Indices by descending score, ties resolved toward the lower index.
    The default (SIMD quicksort) argsort runs first; ranked keys with no two
    equal neighbours and no NaN (which ranks last) are strictly ordered, so
    it is then the stable order, and otherwise the stable sort decides."""
    neg = -np.asarray(scores, np.float64)
    order = np.argsort(neg)
    ranked = neg[order]
    if ranked.size and not np.isnan(ranked[-1]) and np.all(ranked[1:] != ranked[:-1]):
        return order
    return np.argsort(neg, kind="stable")


def _shifted(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scores minus their row maximum, in float64, written to `out` if
    given.  A -inf score is a masked entry; NaN, +inf or a row with no
    finite score make the row maximum non-finite and raise NumericError."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise ArgumentError("softmax of an empty score vector is undefined")
    top = arr.max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise NumericError("scores contains non-finite values")
    return np.subtract(arr, top, out=out)


def softmax(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Shift-stable softmax along the last axis, computed in float64; a -inf
    score gets weight exactly 0.  `out`, a float64 array of the scores'
    shape, takes the weights; out=scores normalises the rows in place, with
    the bits of the returned copy."""
    ex = _shifted(scores, out)
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


def softmax_kl(p: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """KL(p || softmax(scores)) in nats along the last axis, and softmax(scores).
    log q is the scores' log-softmax, with no floor, so a softmax that underflows
    still gives its exact, finite KL.  Mass of p on a masked (-inf) score raises
    NumericError; float dust is clipped at zero."""
    parr = require_finite(p, "p")
    log_q = _shifted(scores)
    if parr.shape != log_q.shape:
        raise ArgumentError(f"shape mismatch: {parr.shape} vs {log_q.shape}")
    if np.any(parr < 0):
        raise ArgumentError("probabilities must be non-negative")
    q = np.exp(log_q)
    total = q.sum(axis=-1, keepdims=True)
    q /= total
    log_q -= np.log(total)
    mass = parr > 0
    ratio = np.log(parr, out=np.zeros_like(parr), where=mass)
    np.subtract(ratio, log_q, out=ratio, where=mass)
    if np.isinf(ratio).any():
        raise NumericError("p puts mass on a masked (-inf) score")
    return np.maximum(np.einsum("...i,...i->...", parr, ratio), 0.0), q
