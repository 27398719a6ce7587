"""Rotary position embedding: pairwise rotation, relative-offset scores,
and the per-frequency decomposition used to reason about slow channels.

Layout is interleaved: frequency pair j (0-based) lives at vector indices
(2j, 2j+1) and rotates by angle theta_j * position, with
theta_j = base ** (-2j / head_dim).  Rotating q by m and k by n makes their
dot product a function of the offset m - n alone, which the decomposition
makes explicit frequency by frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError


@dataclass(frozen=True)
class RopeParams:
    head_dim: int
    base: float = 10000.0
    thetas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.head_dim <= 0 or self.head_dim % 2 != 0:
            raise ArgumentError(f"head_dim must be even and positive, got {self.head_dim}")
        if not self.base > 0:
            raise ArgumentError(f"base must be positive, got {self.base}")
        j = np.arange(self.head_dim // 2, dtype=np.float64)
        object.__setattr__(
            self, "thetas", self.base ** (-2.0 * j / self.head_dim)
        )

    @property
    def n_pairs(self) -> int:
        return self.head_dim // 2


def _check_vec(v: np.ndarray, params: RopeParams, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (params.head_dim,):
        raise ArgumentError(f"{name} must have length {params.head_dim}, got shape {arr.shape}")
    return arr


def _turn(arr: np.ndarray, ang: np.ndarray) -> np.ndarray:
    """Rotate each pair (arr[..., 2j], arr[..., 2j+1]) by ang[..., j]."""
    c, s = np.cos(ang), np.sin(ang)
    x, y = arr[..., 0::2], arr[..., 1::2]
    out = np.empty_like(arr)
    out[..., 0::2] = x * c - y * s
    out[..., 1::2] = x * s + y * c
    return out


def _row_angles(mat: np.ndarray, positions: np.ndarray, params: RopeParams
                ) -> tuple[np.ndarray, np.ndarray]:
    """Validated (n, head_dim) float64 rows and their (n, n_pairs) angles."""
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != params.head_dim:
        raise ArgumentError(f"matrix must be (n, {params.head_dim}), got {arr.shape}")
    pos = np.asarray(positions, dtype=np.float64)
    if pos.shape != (arr.shape[0],):
        raise ArgumentError("positions must match row count")
    if np.any(pos < 0) or np.any(pos != np.floor(pos)):
        raise ArgumentError("positions must be non-negative integers")
    return arr, pos[:, None] * params.thetas[None, :]


def rope_rotate(v: np.ndarray, position: int, params: RopeParams) -> np.ndarray:
    """Rotate each frequency pair of v by its angle at `position`; v is one
    (head_dim,) vector or an (n, head_dim) stack turned at that one position,
    by one shared angle vector."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.shape[-1] != params.head_dim:
        raise ArgumentError(f"v must have length {params.head_dim}, got shape {arr.shape}")
    if position != int(position) or position < 0:
        raise ArgumentError(f"position must be a non-negative integer, got {position!r}")
    return _turn(arr, params.thetas * int(position))


def rope_rotate_many(mat: np.ndarray, positions: np.ndarray, params: RopeParams) -> np.ndarray:
    """Row-wise rope_rotate: mat is (n, head_dim), positions is (n,)."""
    return _turn(*_row_angles(mat, positions, params))


def rope_unrotate_many(mat: np.ndarray, positions: np.ndarray, params: RopeParams) -> np.ndarray:
    """Inverse of rope_rotate_many: each pair turns back by its angle.

    The per-pair rotation is orthogonal, so this is also the transpose map
    that backpropagation through a rotation needs.
    """
    arr, ang = _row_angles(mat, positions, params)
    return _turn(arr, -ang)


def rope_score(q: np.ndarray, k: np.ndarray, m: int, n: int, params: RopeParams) -> float:
    """dot(rotate(q, m), rotate(k, n)); depends only on m - n."""
    qr = rope_rotate(q, m, params)
    kr = rope_rotate(k, n, params)
    return float(qr @ kr)


def pair_coefficients(q: np.ndarray, k: np.ndarray, params: RopeParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair bilinear coefficients (a, b) with
    contribution_j(delta) = a_j cos(theta_j delta) + b_j sin(theta_j delta)."""
    qa = _check_vec(q, params, "q")
    ka = _check_vec(k, params, "k")
    q1, q2 = qa[0::2], qa[1::2]
    k1, k2 = ka[0::2], ka[1::2]
    return q1 * k1 + q2 * k2, q1 * k2 - q2 * k1


def score_decomposition(q: np.ndarray, k: np.ndarray, delta: int, params: RopeParams) -> np.ndarray:
    """Per-frequency contributions at offset delta; sums to rope_score."""
    if delta != int(delta):
        raise ArgumentError(f"delta must be an integer, got {delta!r}")
    a, b = pair_coefficients(q, k, params)
    ang = params.thetas * int(delta)
    return a * np.cos(ang) + b * np.sin(ang)
