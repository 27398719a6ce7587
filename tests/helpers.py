"""What only the tests use: the planted rank teacher, the toy model's
sparse logits, block-table references, and rotary scores."""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from headsparse.distill import ToyModel, _sparse_forward
from headsparse.errors import ArgumentError
from headsparse.indexer import Projector
from headsparse.numerics import descending_order, softmax
from headsparse.rope import RopeParams, rope_rotate
from headsparse.seeding import derive_rng
from headsparse.selection import BlockTable, block_table


@dataclass
class RankTeacher:
    """Teacher whose attention comes from a planted rank-`rank` bilinear
    form on pre-rotation features: s(q, k) = (A q) . (B k)."""

    a: np.ndarray          # (rank, head_dim)
    b: np.ndarray          # (rank, head_dim)
    keys_pre: np.ndarray   # (n_keys, head_dim)
    queries: np.ndarray    # (n_queries, head_dim)

    def scores(self, query: np.ndarray) -> np.ndarray:
        return (self.a @ np.asarray(query, np.float64)) @ (self.b @ self.keys_pre.T)

    def attention_row(self, query: np.ndarray) -> np.ndarray:
        return softmax(self.scores(query))

    def top_tokens(self, query: np.ndarray, budget: int) -> set[int]:
        s = self.scores(query)
        return set(int(i) for i in descending_order(s)[:budget])


def gen_rank_teacher(seed: int, n_keys: int = 512, head_dim: int = 64,
                     rank: int = 8, n_queries: int = 256,
                     score_std: float = 3.0) -> RankTeacher:
    """Planted teacher family; score_std sets the spread of teacher scores
    so rows are concentrated but not degenerate."""
    if rank < 1 or n_keys < 1 or n_queries < 1:
        raise ArgumentError("rank, n_keys, n_queries must be positive")
    rng = derive_rng(seed, "rank-teacher")
    sigma = np.sqrt(score_std / (np.sqrt(rank) * head_dim))
    a = rng.normal(size=(rank, head_dim)) * sigma
    b = rng.normal(size=(rank, head_dim)) * sigma
    keys = rng.normal(size=(n_keys, head_dim))
    queries = rng.normal(size=(n_queries, head_dim))
    return RankTeacher(a, b, keys, queries)


def toy_logits_sparse(model: ToyModel, tokens: np.ndarray, p: float,
                      projector: Projector | None = None) -> np.ndarray:
    """Top-p attention per row, ranked by the frozen projector's pre-rotation
    scores; p = 1.0 reproduces the dense forward exactly."""
    if projector is None:
        projector = model.frozen_projector()
    return _sparse_forward(model.params, tokens, model.rope, model.scale, p,
                           projector)["logits"]


def block_top_p_exact(table: BlockTable, p: float) -> int:
    """Reference for the overshoot bound: number of blocks an exact
    block-level walk (descending block max, ties to lower index) needs
    before cumulative mass reaches p."""
    if not (0 < p <= 1):
        raise ArgumentError(f"p must lie in (0, 1], got {p}")
    if table.m.size == 0:
        raise ArgumentError("no blocks")
    masses = table.l * np.exp(table.m - float(table.m.max()))
    order = descending_order(table.m)
    csum = np.cumsum(masses[order])  # sequential, as a running float sum
    return min(int(np.searchsorted(csum, p * float(masses.sum()))) + 1, int(table.m.size))


def split_table(scores: np.ndarray, block_size: int, start: int) -> BlockTable:
    """The block table of one split of a KV range, whose first token has the
    global index `start`: block_table's starts and stops shifted by it."""
    table = block_table(scores, block_size)
    return table._replace(starts=start + table.starts, stops=start + table.stops)


def split_merge(tables: Sequence[BlockTable]) -> BlockTable:
    """Fuse per-split block tables into the whole-range table.

    Splits must cover contiguous, ordered, non-overlapping ranges and be
    block-aligned, so the result is identical to the block table computed
    on the unsplit vector.
    """
    if len(tables) == 0:
        raise ArgumentError("no splits to merge")
    if any(t.m.size == 0 for t in tables):
        raise ArgumentError("empty split")
    merged = BlockTable._make(map(np.concatenate, zip(*tables)))
    gaps = np.flatnonzero(merged.starts[1:] != merged.stops[:-1])
    if gaps.size:
        b = int(gaps[0])
        raise ArgumentError(
            f"splits overlap or leave a gap at token {merged.stops[b]} "
            f"(got start {merged.starts[b + 1]})"
        )
    lengths = merged.stops - merged.starts
    if np.any(lengths[:-1] != lengths[0]) or lengths[-1] > lengths[0]:
        raise ArgumentError("split boundaries are not block-aligned")
    return merged


def _check_vec(v: np.ndarray, params: RopeParams, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (params.head_dim,):
        raise ArgumentError(f"{name} must have length {params.head_dim}, got shape {arr.shape}")
    return arr


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
