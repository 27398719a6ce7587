"""Rotary position embedding: pairwise rotation and its inverse, and the
attention scale.

Layout is interleaved: frequency pair j (0-based) lives at vector indices
(2j, 2j+1) and rotates by angle theta_j * position, with
theta_j = base ** (-2j / head_dim).  Rotating q by m and k by n makes their
dot product a function of the offset m - n alone.

Every rotation goes through `_turn`.  `rope_apply` turns a matrix one
row_blocks block at a time straight into the caller's buffer, so a bulk
build holds no full-length temporary.  Each block takes its cos/sin rows
from a `RopeTable` that a caller turning several KV heads at the same
positions computes once and shares, or else computes them for itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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

    @property
    def scale(self) -> float:
        """The attention scale 1 / sqrt(head_dim)."""
        return 1.0 / float(np.sqrt(self.head_dim))


class RopeTable(NamedTuple):
    """cos and sin of every pair's angle at n positions, (n, n_pairs) each."""

    cos: np.ndarray
    sin: np.ndarray


# Rows per block of every blocked loop (row_blocks): rope_apply,
# ProjectedKeyCache.extend, the float64 oracle's widened keys and values,
# attend's value sums and the generator's noise draws.  A block's cos/sin
# and turn temporaries take a few MiB at head_dim 64, against 64 MiB for
# one table over a 128K stream.  A 128K build_cache took 0.25-0.38 s at
# 1,024 rows, 0.26-0.28 s at 4,096 and 0.29 s at 16,384; a 128K workload
# took 5.5-6.2 s at 1,024 or 4,096 rows and 6.5-6.8 s at 16,384 or 65,536
# (2 runs each, seed 0, one BLAS thread, 2-core x86 host, numpy 2.4).
ROPE_BLOCK = 4096


def row_blocks(n: int, size: int | None = None) -> list[slice]:
    """The one block rule: consecutive slices over rows 0..n-1 that start at
    multiples of `size` (ROPE_BLOCK by default), the last taking the
    remainder, so none is shorter than `size` unless all n rows are (no
    slices for n = 0).  A product over a few rows can round differently
    from the same rows in a taller one (OpenBLAS takes a small-matrix
    kernel below about 100 rows of a 64 x 16 projection, and a one-row
    product is a gemv), so blocked projections keep the bits of one
    product over all n rows."""
    size = ROPE_BLOCK if size is None else size
    starts = list(range(0, max(n - size, 0) + 1, size)) if n else []
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n])]


def _turn(arr: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate each pair (arr[..., 2j], arr[..., 2j+1]) by the angle whose
    cosine and sine are cos[..., j] and sin[..., j].  The pairs turn in
    float64 and the result keeps arr's dtype."""
    x, y = arr[..., 0::2], arr[..., 1::2]
    out = np.empty_like(arr)
    out[..., 0::2] = x * cos - y * sin
    out[..., 1::2] = x * sin + y * cos
    return out


def rope_table(positions: np.ndarray, params: RopeParams) -> RopeTable:
    """cos and sin of every pair's angle at each of a vector of positions."""
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 1 or np.any(pos < 0) or np.any(pos != np.floor(pos)):
        raise ArgumentError("positions must be a vector of non-negative integers")
    ang = pos[:, None] * params.thetas[None, :]
    return RopeTable(np.cos(ang), np.sin(ang))


def rope_apply(mat: np.ndarray, positions: np.ndarray, params: RopeParams,
               table: RopeTable | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Rotate row i of mat, (n, head_dim), by its angle at positions[i], one
    row_blocks block at a time.  A block's cos/sin are the same rows of
    `table`, rope_table(positions) held by a caller that turns several
    matrices at these positions, or else rope_table of the block's own
    positions.  Each block turns in float64, is rounded to mat's dtype and
    lands in `out` (a new array of mat's dtype by default), so float32 rows
    reach a float64 `out` rounded to float32."""
    mat, pos = np.asarray(mat), np.asarray(positions)
    if mat.ndim != 2 or mat.shape[1] != params.head_dim or pos.shape != mat.shape[:1]:
        raise ArgumentError(f"rows {mat.shape} at positions {pos.shape} do not match "
                            f"head_dim {params.head_dim}")
    if table is not None and table.cos.shape != (len(mat), params.n_pairs):
        raise ArgumentError(f"rope table of shape {table.cos.shape} does not "
                            f"match the {mat.shape} rows it turns")
    if out is None:
        out = np.empty_like(mat)
    elif out.shape != mat.shape:
        raise ArgumentError(f"output of shape {out.shape} for {mat.shape} rows")
    for rows in row_blocks(len(mat)):
        cos, sin = rope_table(pos[rows], params) if table is None else \
            (table.cos[rows], table.sin[rows])
        out[rows] = _turn(mat[rows], cos, sin)
    return out


def rope_rotate(v: np.ndarray, position: int, params: RopeParams) -> np.ndarray:
    """Rotate each frequency pair of v by its angle at `position`; v is one
    (head_dim,) vector or an (n, head_dim) stack turned at that one position,
    by one shared angle vector."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.shape[-1] != params.head_dim:
        raise ArgumentError(f"v must have length {params.head_dim}, got shape {arr.shape}")
    if position != int(position) or position < 0:
        raise ArgumentError(f"position must be a non-negative integer, got {position!r}")
    ang = params.thetas * int(position)
    return _turn(arr, np.cos(ang), np.sin(ang))


def rope_rotate_many(mat: np.ndarray, positions: np.ndarray, params: RopeParams) -> np.ndarray:
    """Row-wise rope_rotate: mat is (n, head_dim), positions is (n,)."""
    return rope_apply(np.asarray(mat, np.float64), positions, params)


def rope_unrotate_many(mat: np.ndarray, positions: np.ndarray, params: RopeParams) -> np.ndarray:
    """Inverse of rope_rotate_many: each pair turns back by its angle.

    The per-pair rotation is orthogonal, so this is also the transpose map
    that backpropagation through a rotation needs.
    """
    cos, sin = rope_table(positions, params)
    return rope_apply(np.asarray(mat, np.float64), positions, params, RopeTable(cos, -sin))

