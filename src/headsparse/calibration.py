"""Offline head calibration.

A sequence with an identical content span planted early and late separates
head behavior: heads that route attention from the late copy back to the
early copy are retrieval heads, everything else is local.  The per-head
score is the mean attention mass the late-span rows place on the early
span; the top `ratio` share of heads by that score forms the retrieval set.

Calibration is array code and builds no KV cache.  The late-span rows of
all the query heads of a KV group, among the query rows the workload
keeps, are scored against the group's rotated keys, read in place from the
workload's keys_post, in one `workload.causal_scores` call, weights only;
no key is turned and no value row is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .container import read_csv, write_csv
from .errors import ArgumentError
from .numerics import descending_order, softmax
from .workload import Workload, causal_scores


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


def group_retrieval_scores(workload: Workload, layer: int, kv_head: int) -> list[float]:
    """R of each query head that shares `kv_head`, against the group's
    rotated keys in workload.keys_post.  The group's late-span rows go
    through causal_scores as one batch and are normalised in place, so
    each row's entries after its own position weigh 0.  Each row's early-span mass is one np.sum, and a head's masses add
    up in row order."""
    geo, ann = workload.geometry, workload.annotations
    post = np.asarray(ann.n_post)
    heads = np.arange(kv_head * geo.group_size, (kv_head + 1) * geo.group_size)
    queries = workload.queries[layer, heads[:, None], post].reshape(-1, geo.head_dim)
    rows = causal_scores(queries, np.tile(post, geo.group_size),
                         workload.keys_post[layer, kv_head], geo.rope, geo.scale)
    softmax(rows, out=rows)
    masses = np.array([np.sum(row) for row in rows[:, list(ann.n_pre)]])
    totals = np.cumsum(masses.reshape(geo.group_size, len(post)), axis=1)[:, -1]
    # Rows are probability vectors, so the mean mass cannot leave [0, 1];
    # clip only float dust.
    return [float(min(max(t / len(post), 0.0), 1.0)) for t in totals]


def _head_scores(workload: Workload) -> np.ndarray:
    """(n_layers, n_q_heads) retrieval scores of one workload, one KV
    group at a time."""
    geo = workload.geometry
    return np.array([
        np.concatenate([group_retrieval_scores(workload, layer, g)
                        for g in range(geo.n_kv_heads)])
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
