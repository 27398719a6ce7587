"""Low-rank pre-rotation relevance scoring and its KL training.

A retrieval head's token selection does not need full post-rotation scores:
a pair of r x d projections of the un-rotated query/key features suffices
to rank tokens.  The projections are trained to pull the softmax of the
projected scores toward the head's true attention row (forward KL), with
the backbone activations treated as frozen constants.  Stage-1 data is one
key matrix plus the head's stage-1 query rows, which the workload keeps
(drawn for its seed and block_size when it is generated), their positions,
and ragged attention rows:
row i holds only its positions[i] + 1 causal weights, all rows back to back
in one flat array.  The rows are built STAGE1_CHUNK position-sorted rows at
a time, each chunk scored and normalised at full length, and a training
step sorts its rows by position and scores them as two prefix blocks, so
neither pays for the masked tail past a row's position.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import load_container, save_container
from .errors import ArgumentError, InternalError
from .numerics import softmax, softmax_kl
from .optim import SCHEDULES, AdamW, make_schedule
from .record import Record
from .rope import row_blocks
from .seeding import derive_rng
from .workload import KVCacheHead, causal_scores, qhead_to_kvhead, visible_rows


@dataclass
class Projector:
    """Per-head projection pair; scores are (w_q q) . (w_k k)."""

    w_q: np.ndarray  # (r, head_dim)
    w_k: np.ndarray  # (r, head_dim)

    def __post_init__(self):
        self.w_q = np.asarray(self.w_q, np.float64)
        self.w_k = np.asarray(self.w_k, np.float64)
        if self.w_q.ndim != 2 or self.w_q.shape != self.w_k.shape:
            raise ArgumentError("w_q and w_k must both be (r, head_dim)")
        if not (np.all(np.isfinite(self.w_q)) and np.all(np.isfinite(self.w_k))):
            raise ArgumentError("projector weights must be finite")

    @property
    def r(self) -> int:
        return self.w_q.shape[0]

    @property
    def head_dim(self) -> int:
        return self.w_q.shape[1]

    def copy(self) -> "Projector":
        return Projector(self.w_q.copy(), self.w_k.copy())

    def save(self, stem: str | Path, layer: int = 0, head: int = 0) -> None:
        save_container(
            stem,
            {"w_q": self.w_q, "w_k": self.w_k},
            meta={"kind": "projector", "layer": layer, "head": head, "r": self.r},
        )

    @staticmethod
    def load(stem: str | Path) -> tuple["Projector", dict]:
        tensors, meta = load_container(stem, "projector", ("w_q", "w_k"))
        proj = Projector(tensors["w_q"], tensors["w_k"])
        if proj.r != meta.get("r"):
            raise ArgumentError(f"{stem}: manifest r disagrees with tensor shape")
        return proj, meta


def init_projector(r: int, head_dim: int, seed: int, label: str = "projector-init"
                   ) -> Projector:
    """Gaussian init at std 1/sqrt(head_dim): unit-scale initial scores."""
    if r < 1 or head_dim < 1:
        raise ArgumentError("r and head_dim must be positive")
    rng = derive_rng(seed, label)
    std = 1.0 / np.sqrt(head_dim)
    return Projector(
        rng.normal(size=(r, head_dim)) * std,
        rng.normal(size=(r, head_dim)) * std,
    )


class ProjectedKeyCache:
    """The projected pre-rotation keys of one retrieval head's KV cache,
    `capacity` rows allocated once, like the cache's own.  Whoever appends
    rows to the cache extends this with the same rows, so each decode step
    projects only its new key and the cache need not keep the pre-rotation
    keys."""

    def __init__(self, projector: Projector, capacity: int):
        self.projector = projector
        self._u = np.empty((capacity, projector.r), np.float64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def extend(self, keys_pre: np.ndarray) -> None:
        """Project (m, head_dim) new key rows, rounded to float32 as the
        cache stores them, one row_blocks block at a time, straight into
        the buffer: one block widened to float64 is the only temporary."""
        keys = np.asarray(keys_pre)
        if keys.ndim != 2 or keys.shape[1] != self.projector.head_dim:
            raise ArgumentError(f"keys must be (m, {self.projector.head_dim}), got {keys.shape}")
        n0, n1 = self._n, self._n + len(keys)
        if n1 > len(self._u):
            raise InternalError(f"{n1} projected keys for a capacity of {len(self._u)}")
        for rows in row_blocks(len(keys)):
            np.matmul(np.asarray(keys[rows], np.float32).astype(np.float64),
                      self.projector.w_k.T, out=self._u[n0 + rows.start : n0 + rows.stop])
        self._n = n1

    def scores(self, cache: KVCacheHead, query_pre: np.ndarray, query_position: int
               ) -> np.ndarray:
        """Projected scores of the cache rows visible at query_position; the
        projected rows must be exactly the cache's."""
        if self._n != len(cache):
            raise InternalError(f"{self._n} projected keys for a cache of {len(cache)} rows")
        rows = visible_rows(cache, query_position)
        u = self.projector.w_q @ np.asarray(query_pre, np.float64)
        return self._u[rows] @ u


# Attention rows per causal_scores call in build_stage1_dataset.  A chunk of
# 8, 16 or 32 rows scored at full length keeps the bits of one batch over
# all rows at 8K and 32K (seed 0, one BLAS thread); one row is a gemv and
# rounds differently, so a short last chunk joins the one before it
# (row_blocks).
STAGE1_CHUNK = 16


@dataclass(frozen=True)
class Stage1Dataset:
    """One head's supervision rows: row i is the pre-rotation query
    queries[i] at key index positions[i], and its attention row is the
    head's exact attention over keys_pre[: positions[i] + 1], held as
    attn[offsets[i] : offsets[i + 1]].  The rows lie back to back in one
    flat array, each exactly positions[i] + 1 weights long; a flat array of
    any other length raises ArgumentError."""

    keys_pre: np.ndarray   # (n, head_dim), float64
    queries: np.ndarray    # (B, head_dim)
    positions: np.ndarray  # (B,)
    attn: np.ndarray       # (sum(positions + 1),), float64

    def __post_init__(self):
        if np.ndim(self.attn) != 1 or len(self.attn) != self.offsets[-1]:
            raise ArgumentError(f"attention rows of shape {np.shape(self.attn)} for rows "
                                f"of positions[i] + 1 = {self.offsets[-1]} weights in all")

    @property
    def offsets(self) -> np.ndarray:
        """(B + 1,) row starts in attn, then its length."""
        return _row_offsets(self.positions)

    def take(self, idx: np.ndarray) -> "Stage1Dataset":
        """Rows idx, in that order, over the same keys; their attention rows
        are copied into a new flat array."""
        idx = np.asarray(idx, np.int64)
        src, dst = self.offsets, _row_offsets(self.positions[idx])
        attn = np.empty(dst[-1])
        for i, a, b in zip(idx, dst[:-1], dst[1:]):
            attn[a:b] = self.attn[src[i] : src[i] + b - a]
        return Stage1Dataset(self.keys_pre, self.queries[idx], self.positions[idx], attn)


def _row_offsets(positions: np.ndarray) -> np.ndarray:
    """Starts of rows of positions[i] + 1 weights laid back to back, then
    their total."""
    return np.concatenate([[0], np.cumsum(np.asarray(positions, np.int64) + 1)])


def build_stage1_dataset(workload, geometry, layer: int, q_head: int, seed: int
                         ) -> Stage1Dataset:
    """Supervision rows for one head from a workload's dense attention,
    scored by causal_scores against the head's rotated keys, read in place
    from workload.keys_post; no cache is built, no key is turned and no
    value row is read.

    The rows are the head's stage-1 rows the workload kept when it was
    generated (workload.stage1_positions): STAGE1_ROWS positions, or every
    one if fewer, from 4 * block_size on; on shorter prefixes any selector
    is trivially near-perfect and the rows carry no long-range signal.
    They are drawn for the workload's seed and block_size, so another seed
    or block_size raises ArgumentError.
    """
    if (seed, geometry.block_size) != (workload.seed, workload.geometry.block_size):
        raise ArgumentError(f"the workload keeps stage-1 rows for seed {workload.seed} at "
                            f"block_size {workload.geometry.block_size}, not seed {seed} "
                            f"at block_size {geometry.block_size}")
    floor = 4 * geometry.block_size
    if workload.seq_len <= floor:
        raise ArgumentError(f"workload length {workload.seq_len} leaves no positions >= {floor}")
    positions = workload.stage1_positions(layer, q_head)
    n = int(positions[-1]) + 1
    g = qhead_to_kvhead(geometry, q_head)
    queries = workload.queries[layer, q_head, positions]
    attn = _attention_rows(queries, positions, workload.keys_post[layer, g, :n], geometry)
    return Stage1Dataset(workload.keys_pre[layer, g, :n].astype(np.float64), queries,
                         positions, attn)


def _attention_rows(queries: np.ndarray, positions: np.ndarray, keys_post: np.ndarray,
                    geometry) -> np.ndarray:
    """The flat causal attention rows of position-sorted queries over all
    of keys_post, STAGE1_CHUNK rows at a time: each chunk is scored against
    every key and normalised at full length, as one batch over all rows
    would be (a softmax over only a row's prefix regroups numpy's pairwise
    sums), and each row keeps its first position + 1 weights.  One score
    buffer, as tall as the last and tallest chunk, serves every chunk."""
    offsets = _row_offsets(positions)
    attn = np.empty(offsets[-1])
    chunks = row_blocks(len(positions), STAGE1_CHUNK)
    buffer = np.empty((chunks[-1].stop - chunks[-1].start, len(keys_post)))
    for rows in chunks:
        scores = causal_scores(queries[rows], positions[rows], keys_post, geometry.rope,
                               geometry.scale, out=buffer[: rows.stop - rows.start])
        softmax(scores, out=scores)
        for i, row in enumerate(scores, rows.start):
            attn[offsets[i] : offsets[i + 1]] = row[: offsets[i + 1] - offsets[i]]
    return attn


def projector_grad(batch: Stage1Dataset, projector: Projector
                   ) -> tuple[np.ndarray, np.ndarray, float]:
    """Analytic gradients of the mean row KL; returns (g_wq, g_wk, loss).

    With A = U W_q^T, scores S = (A W_k) K^T masked to -inf past each
    row's position, and residuals R = softmax(S) - P over the B rows:
    dL/dW_q = W_k (R K)^T U / B and dL/dW_k = A^T (R K) / B.  The loss is
    softmax_kl of the same scores, so it is the function descended.

    The rows are sorted by position and scored as two prefix blocks, the
    split taken where the fewest entries are scored: a block scores keys
    up to its last row's position, each row's tail past its own position
    is sliced to -inf, and P is the block's flat rows, zero past them.
    """
    (n_keys, d), pos = batch.keys_pre.shape, batch.positions
    if len(pos) == 0 or batch.queries.shape != (len(pos), d) or d != projector.head_dim \
            or pos.max() >= n_keys:
        raise ArgumentError("batch needs (B, d) queries, (n, d) keys, positions < n")
    order = np.argsort(pos, kind="stable")
    width, start = pos[order] + 1, batch.offsets[order]
    # the first block takes h rows, h = len(pos) leaving one block; of the
    # splits that score the fewest entries the last, so equal widths stay one
    h = np.arange(1, len(pos) + 1)
    split = len(pos) - int(np.argmin((h * width + (len(pos) - h) * width[-1])[::-1]))
    queries = batch.queries[order]
    a = queries @ projector.w_q.T                            # (B, r)
    aw = a @ projector.w_k                                   # (B, head_dim)
    rk, kl = np.empty((len(pos), d)), np.empty(len(pos))
    for rows in (slice(0, split), slice(split, len(pos))):
        if rows.start == rows.stop:
            continue
        keys = batch.keys_pre[: width[rows.stop - 1]]
        scores = aw[rows] @ keys.T                           # (block, m)
        p = np.zeros_like(scores)
        for s_row, p_row, w, at in zip(scores, p, width[rows], start[rows]):
            s_row[w:] = -np.inf
            p_row[:w] = batch.attn[at : at + w]
        kl[rows], q = softmax_kl(p, scores)
        rk[rows] = (q - p) @ keys / len(pos)
    return projector.w_k @ rk.T @ queries, a.T @ rk, float(kl.mean())


@dataclass(frozen=True)
class Stage1Config(Record):
    """Projector training configuration (offline stage)."""

    max_lr: float = 1e-3
    warmup_steps: int = 100
    schedule: str = "cosine"
    weight_decay: float = 0.01
    max_grad_norm: float = 1.0
    steps: int = 600
    rows_per_step: int = 16

    def __post_init__(self):
        if self.max_lr < 0 or self.weight_decay < 0:
            raise ArgumentError("learning rate and weight decay must be >= 0")
        if self.warmup_steps < 0 or self.steps < 1 or self.rows_per_step < 1:
            raise ArgumentError("steps and row counts must be positive")
        if self.schedule not in SCHEDULES:
            raise ArgumentError(f"unknown schedule {self.schedule!r}")
        if self.max_grad_norm <= 0:
            raise ArgumentError("max_grad_norm must be positive")


def train_projector(dataset: Stage1Dataset, config: Stage1Config, seed: int,
                    r: int = 16, head_dim: int | None = None,
                    label: str = "stage1") -> tuple[Projector, list[float]]:
    """KL-train a fresh projector on sampled dataset rows.

    Rows are drawn uniformly at random each step; the trace records each
    step's minibatch loss.  Deterministic given (config, seed, label).
    """
    if head_dim is None:
        head_dim = dataset.queries.shape[1]
    proj = init_projector(r, head_dim, seed, label=f"{label}-init")
    rng = derive_rng(seed, f"{label}-rows")
    opt = AdamW(
        {"w_q": proj.w_q, "w_k": proj.w_k},
        make_schedule(config.schedule, config.max_lr, config.warmup_steps, config.steps),
        weight_decay=config.weight_decay,
        max_grad_norm=config.max_grad_norm,
    )
    trace: list[float] = []
    n = len(dataset.positions)
    for _ in range(config.steps):
        take = min(config.rows_per_step, n)
        idx = rng.choice(n, size=take, replace=False)
        g_wq, g_wk, loss = projector_grad(dataset.take(idx), proj)
        opt.step({"w_q": g_wq, "w_k": g_wk})
        trace.append(loss)
    return proj, trace
