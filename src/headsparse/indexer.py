"""Low-rank pre-rotation relevance scoring and its KL training.

A retrieval head's token selection does not need full post-rotation scores:
a pair of r x d projections of the un-rotated query/key features suffices
to rank tokens.  The projections are trained to pull the softmax of the
projected scores toward the head's true attention row (forward KL), with
the backbone activations treated as frozen constants.  Stage-1 data is one
key matrix plus per-row queries, positions and attention rows, and a
training step scores its rows in one masked product.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import load_container, save_container
from .errors import ArgumentError, InternalError
from .numerics import softmax, softmax_kl
from .optim import AdamW, make_schedule
from .record import Record
from .rope import rope_apply, row_blocks
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
        cache stores them, one row_blocks block at a time."""
        keys = np.asarray(keys_pre)
        if keys.ndim != 2 or keys.shape[1] != self.projector.head_dim:
            raise ArgumentError(f"keys must be (m, {self.projector.head_dim}), got {keys.shape}")
        n0, n1 = self._n, self._n + len(keys)
        if n1 > len(self._u):
            raise InternalError(f"{n1} projected keys for a capacity of {len(self._u)}")
        for rows in row_blocks(len(keys)):
            fresh = keys[rows].astype(np.float32).astype(np.float64)
            self._u[n0 + rows.start : n0 + rows.stop] = fresh @ self.projector.w_k.T
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


@dataclass(frozen=True)
class Stage1Dataset:
    """One head's supervision rows as matrices: row i is the pre-rotation
    query queries[i] at key index positions[i], and attn[i] is the head's
    exact attention over keys_pre[: positions[i] + 1], exactly 0 past it."""

    keys_pre: np.ndarray   # (n, head_dim), float64
    queries: np.ndarray    # (B, head_dim)
    positions: np.ndarray  # (B,)
    attn: np.ndarray       # (B, n)


def build_stage1_dataset(workload, geometry, layer: int, q_head: int, seed: int,
                         n_rows: int = 128) -> Stage1Dataset:
    """Supervision rows for one head from a workload's dense attention,
    scored by causal_scores in one batch against the head's keys turned by
    rope_apply; no cache is built and no value row is read.

    Positions start at 4 * block_size: on shorter prefixes any selector is
    trivially near-perfect and the rows carry no long-range signal.
    """
    floor = 4 * geometry.block_size
    if workload.seq_len <= floor:
        raise ArgumentError(f"workload length {workload.seq_len} leaves no positions >= {floor}")
    if n_rows < 1:
        raise ArgumentError("n_rows must be positive")
    span = np.arange(floor, workload.seq_len)
    rng = derive_rng(seed, f"stage1-data-L{layer}H{q_head}")
    positions = np.sort(rng.choice(span, size=min(n_rows, span.size), replace=False))
    n = int(positions[-1]) + 1
    keys = workload.keys_pre[layer, qhead_to_kvhead(geometry, q_head), :n]
    queries = workload.queries[layer, q_head, positions]
    # the rotated keys are an argument only, freed before the float64 keys are made
    attn = causal_scores(queries, positions, rope_apply(keys, np.arange(n), geometry.rope),
                         geometry.rope, geometry.scale)
    softmax(attn, out=attn)
    return Stage1Dataset(keys.astype(np.float64), queries, positions, attn)


def projector_grad(batch: Stage1Dataset, projector: Projector
                   ) -> tuple[np.ndarray, np.ndarray, float]:
    """Analytic gradients of the mean row KL; returns (g_wq, g_wk, loss).

    With A = U W_q^T, scores S = (A W_k) K^T masked to -inf past each
    row's position, and residuals R = softmax(S) - P over the B rows:
    dL/dW_q = W_k (R K)^T U / B and dL/dW_k = A^T (R K) / B.  The loss is
    softmax_kl of the same scores, so it is the function descended.
    """
    (n_keys, d), pos = batch.keys_pre.shape, batch.positions
    if len(pos) == 0 or batch.queries.shape != (len(pos), d) or d != projector.head_dim \
            or batch.attn.shape != (len(pos), n_keys) or pos.max() >= n_keys:
        raise ArgumentError("batch needs (B, d) queries, (B, n) rows, (n, d) keys, positions < n")
    n = int(pos.max()) + 1
    keys = batch.keys_pre[:n]
    a = batch.queries @ projector.w_q.T                      # (B, r)
    scores = (a @ projector.w_k) @ keys.T                    # (B, n)
    scores[np.arange(n)[None, :] > pos[:, None]] = -np.inf
    p = batch.attn[:, :n]
    kl, q = softmax_kl(p, scores)
    rk = (q - p) @ keys / len(pos)                           # (B, head_dim)
    return projector.w_k @ rk.T @ batch.queries, a.T @ rk, float(kl.mean())


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
        if self.schedule not in ("cosine", "constant"):
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
        batch = Stage1Dataset(dataset.keys_pre, dataset.queries[idx],
                              dataset.positions[idx], dataset.attn[idx])
        g_wq, g_wk, loss = projector_grad(batch, proj)
        opt.step({"w_q": g_wq, "w_k": g_wk})
        trace.append(loss)
    return proj, trace
