"""Offline head calibration.

A sequence with an identical content span planted early and late separates
head behavior: heads that route attention from the late copy back to the
early copy are retrieval heads, everything else is local.  The per-head
score is the mean attention mass the late-span rows place on the early
span; the top `ratio` share of heads by that score forms the retrieval set.

Calibration here always runs on caches whose positions are 0..L-1, so a
token's cache slot equals its position.  Each KV head's cache is built
from the workload's one cos/sin table, and the late-span rows of all its
query heads are scored in one `workload.causal_scores` call, weights only.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .container import read_csv, write_csv
from .errors import ArgumentError
from .numerics import descending_order, softmax
from .rope import rope_table
from .workload import KVCacheHead, Workload, build_cache_prefix, causal_scores


@dataclass(frozen=True)
class NeedleLayout:
    """Index sets of the early and late copies of the planted span."""

    n_pre: tuple[int, ...]
    n_post: tuple[int, ...]
    total_len: int

    def __post_init__(self):
        if not self.n_pre or not self.n_post:
            raise ArgumentError("needle index sets must be non-empty")
        if set(self.n_pre) & set(self.n_post):
            raise ArgumentError("needle index sets must be disjoint")
        if max(self.n_pre) >= min(self.n_post):
            raise ArgumentError("early span must precede late span")
        if min(self.n_pre) < 0 or max(self.n_post) >= self.total_len:
            raise ArgumentError("needle indices out of range")


@dataclass(frozen=True)
class HeadPartition:
    """Per-head scores plus the retrieval/local split they induce."""

    scores: tuple[float, ...]
    retrieval_set: tuple[int, ...]
    local_set: tuple[int, ...]
    ratio: float

    def is_retrieval(self, head: int) -> bool:
        return head in self.retrieval_set

    @property
    def n_heads(self) -> int:
        return len(self.scores)


def retrieval_score(weights: Mapping[int, np.ndarray], layout: NeedleLayout) -> float:
    """Mean late-row attention mass on the early span; `weights` maps a
    late position to its attention row over positions 0, 1, ..."""
    pre = np.asarray(layout.n_pre)
    total = 0.0
    for t in layout.n_post:
        row = weights.get(t)
        if row is None:
            raise ArgumentError(f"attention row for position {t} missing")
        if len(row) <= max(layout.n_pre):
            raise ArgumentError(f"row at {t} does not cover the early span")
        total += float(np.sum(np.asarray(row, np.float64)[pre]))
    score = total / len(layout.n_post)
    # Rows are probability vectors, so the mean mass cannot leave [0, 1];
    # clip only float dust.
    return float(min(max(score, 0.0), 1.0))


def retrieval_set_size(n_heads: int, ratio: float) -> int:
    """Half-up round of ratio * n_heads (platform-stable)."""
    return int(np.floor(ratio * n_heads + 0.5))


def partition_heads(scores: Sequence[float], ratio: float) -> HeadPartition:
    """Top heads by score (ties to the lower index) become retrieval."""
    s = np.asarray(scores, np.float64)
    if s.size == 0:
        raise ArgumentError("scores must be non-empty")
    if not (0 < ratio <= 1):
        raise ArgumentError(f"ratio must lie in (0, 1], got {ratio}")
    n_ret = retrieval_set_size(s.size, ratio)
    order = descending_order(s)
    retrieval = tuple(sorted(int(h) for h in order[:n_ret]))
    local = tuple(sorted(int(h) for h in order[n_ret:]))
    return HeadPartition(
        scores=tuple(float(x) for x in s),
        retrieval_set=retrieval,
        local_set=local,
        ratio=float(ratio),
    )


def group_retrieval_scores(workload: Workload, layer: int, kv_head: int,
                           cache: KVCacheHead) -> list[float]:
    """R of each query head that shares `kv_head`, whose cache holds
    positions 0..L-1.  The group's late-span rows go through causal_scores
    as one batch, so each row's softmax gives the entries after its own
    position weight 0."""
    geo, ann = workload.geometry, workload.annotations
    layout = NeedleLayout(ann.n_pre, ann.n_post, workload.seq_len)
    post = np.asarray(layout.n_post)
    heads = slice(kv_head * geo.group_size, (kv_head + 1) * geo.group_size)
    queries = workload.queries[layer, heads][:, post].reshape(-1, geo.head_dim)
    scores = causal_scores(queries, np.tile(post, geo.group_size), cache, geo.scale)
    rows = softmax(scores).reshape(geo.group_size, len(post), -1)
    return [retrieval_score(dict(zip(layout.n_post, w)), layout) for w in rows]


def _head_scores(workload: Workload) -> np.ndarray:
    """(n_layers, n_q_heads) retrieval scores of one workload.  Its caches
    are built from one cos/sin table, one at a time: each is an argument
    only, so none outlives the scoring of its group."""
    geo, n = workload.geometry, workload.seq_len
    table = rope_table(np.arange(n), geo.rope)
    return np.array([
        np.concatenate([
            group_retrieval_scores(
                workload, layer, g, build_cache_prefix(workload, layer, g, n, table))
            for g in range(geo.n_kv_heads)
        ])
        for layer in range(geo.n_layers)
    ])


def calibrate(workload: Workload) -> list[HeadPartition]:
    """Score every (layer, head) of one workload and partition each layer
    at its geometry's retrieval_ratio."""
    ratio = workload.geometry.retrieval_ratio
    return [partition_heads(s, ratio) for s in _head_scores(workload)]


PARTITION_HEADER = ["layer", "head", "score", "role"]
ROLE_RETRIEVAL = "retrieval"
ROLE_LOCAL = "local"


def parse_role(field: str) -> str:
    """A head role read from a CSV field; any other value is a ValueError."""
    if field not in (ROLE_RETRIEVAL, ROLE_LOCAL):
        raise ValueError(f"unknown role {field!r}")
    return field


def save_partitions(path: str | Path, partitions: Sequence[HeadPartition]) -> None:
    """Persist per-layer partitions as a small CSV; repr keeps each score exact."""
    write_csv(path, PARTITION_HEADER, [
        [layer, head, repr(score), ROLE_RETRIEVAL if part.is_retrieval(head) else ROLE_LOCAL]
        for layer, part in enumerate(partitions)
        for head, score in enumerate(part.scores)])


def load_partitions(path: str | Path, ratio: float) -> list[HeadPartition]:
    """Rebuild partitions from the CSV; the split is recomputed from scores
    and cross-checked against the stored roles."""
    rows: dict[int, dict[int, tuple[float, str]]] = {}
    for layer, head, score, role in read_csv(path, PARTITION_HEADER,
                                             (int, int, float, parse_role)):
        if head in rows.setdefault(layer, {}):
            raise ArgumentError(f"{path}: layer {layer} head {head} appears twice")
        rows[layer][head] = (score, role)
    if not rows:
        raise ArgumentError(f"partition file {path} is empty")
    if sorted(rows) != list(range(len(rows))):
        raise ArgumentError(f"{path}: layers are not 0..{len(rows) - 1}")
    partitions = []
    for layer in sorted(rows):
        by_head = rows[layer]
        if sorted(by_head) != list(range(len(by_head))):
            raise ArgumentError(
                f"{path}: layer {layer} heads are not 0..{len(by_head) - 1}")
        scores = [by_head[h][0] for h in range(len(by_head))]
        part = partition_heads(scores, ratio)
        stored_ret = {h for h, (_, role) in by_head.items() if role == ROLE_RETRIEVAL}
        if stored_ret != set(part.retrieval_set):
            raise ArgumentError(
                f"stored roles in {path} disagree with ratio {ratio} at layer {layer}"
            )
        partitions.append(part)
    return partitions
