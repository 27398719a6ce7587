"""Artifact emission and measurement: the fixed headers and column converters
of the CSV artifacts, their writers and loaders (every file round-trips, and
all go through headsparse.container), the attention-mass-vs-budget sweep,
and the decode latency bench."""

from __future__ import annotations

import platform
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibration import parse_role
from .container import read_csv, read_json, write_csv, write_json
from .engine import (
    DecodeTrace,
    SparsityReport,
    retrieval_head_decode,
)
from .errors import ArgumentError
from .indexer import ProjectedKeyCache, init_projector
from .numerics import softmax
from .rope import RopeParams
from .seeding import derive_rng
from .selection import top_k_static, top_p_exact
from .workload import (
    KVCacheHead,
    Workload,
    attend,
    dense_row_scores,
    visible_rows,
)

TRACE_HEADER = ["layer", "head", "role", "position", "tokens_selected",
                "projected_mass", "true_mass"]
SCORE_HEADER = ["layer", "head", "score"]
LOSS_HEADER = ["step", "loss"]
HEAD_COUNT_HEADER = ["layer", "head", "role", "rows", "mean_selected",
                     "p50_selected", "p95_selected", "max_selected"]
SWEEP_HEADER = ["selector", "budget", "mean_mass", "mean_tokens"]
BENCH_HEADER = ["length", "mode", "median_ms", "p95_ms"]


def _optional_float(field: str) -> float | None:
    return None if field == "" else float(field)


def _int_or_float(field: str) -> int | float:
    try:
        return int(field)
    except ValueError:
        return float(field)


# one converter per column of the files `read_csv` loads back
TRACE_COLUMNS = (int, int, parse_role, int, int, float, _optional_float)
HEAD_COUNT_COLUMNS = (int, int, parse_role, int, float, int, int, int)
SWEEP_COLUMNS = (str, _int_or_float, float, float)
BENCH_COLUMNS = (int, str, float, float)


def write_decode_trace(path: str | Path, traces: Sequence[DecodeTrace]) -> None:
    write_csv(path, TRACE_HEADER, [
        [t.layer, t.q_head, t.role, t.position, t.tokens_selected,
         repr(t.covered_projected_mass),
         "" if t.covered_true_mass is None else repr(t.covered_true_mass)]
        for t in traces])


def read_decode_trace(path: str | Path) -> list[dict]:
    return [dict(zip(TRACE_HEADER, r))
            for r in read_csv(path, TRACE_HEADER, TRACE_COLUMNS)]


def write_sparsity_report(path: str | Path, report: SparsityReport) -> None:
    write_json(path, {"compute_sparsity": report.compute_sparsity,
                      "memory_sparsity": report.memory_sparsity,
                      "per_head_active": report.per_head_active.tolist()})


def read_sparsity_report(path: str | Path) -> SparsityReport:
    payload = read_json(path)
    try:
        values = {name: float(payload[name])
                  for name in ("compute_sparsity", "memory_sparsity")}
        per_head = np.asarray(payload["per_head_active"], np.float64)
    except (KeyError, TypeError, ValueError) as e:
        raise ArgumentError(f"sparsity report {path} is malformed: {e!r}") from e
    for name, v in values.items():
        if not 0.0 <= v <= 1.0:
            raise ArgumentError(f"sparsity report {path}: {name}={v} outside [0, 1]")
    return SparsityReport(per_head_active=per_head, **values)


def head_token_count_rows(traces: Sequence[DecodeTrace]) -> list[list]:
    """Per-head active-set size summary, one row per (layer, head)."""
    groups: dict[tuple[int, int], list[DecodeTrace]] = {}
    for t in traces:
        groups.setdefault((t.layer, t.q_head), []).append(t)
    rows = []
    for (layer, head) in sorted(groups):
        entries = groups[(layer, head)]
        sizes = np.array([t.tokens_selected for t in entries])
        rows.append([
            layer, head, entries[0].role, sizes.size,
            round(float(sizes.mean()), 3),
            int(np.percentile(sizes, 50)),
            int(np.percentile(sizes, 95)),
            int(sizes.max()),
        ])
    return rows


def mass_budget_sweep(workload: Workload, layer: int, q_head: int, cache: KVCacheHead,
                      positions: Sequence[int], budgets: Sequence[int], p: float
                      ) -> list[list]:
    """Dense-row oracle sweep: attention mass captured by static top-k
    budgets versus top-p at the same positions. Selection runs on the true
    scores, so this measures the budget tradeoff itself, not indexer error.
    `cache` is the head's KV cache over positions 0..max(positions) at least;
    dense_row_scores rejects any other."""
    if not positions:
        raise ArgumentError("no positions to sweep")
    masses: dict[tuple[str, int | float], list[tuple[float, int]]] = {}
    for t in positions:
        scores = dense_row_scores(workload.queries[layer, q_head, t], t, cache)
        weights = softmax(scores)
        for k in budgets:
            sel = top_k_static(scores, k)
            masses.setdefault(("top_k", k), []).append(
                (float(weights[sel.active_set].sum()), sel.size))
        sel = top_p_exact(scores, p)
        masses.setdefault(("top_p", p), []).append(
            (float(weights[sel.active_set].sum()), sel.size))
    rows = []
    for (selector, budget), vals in masses.items():
        mean_mass = float(np.mean([v[0] for v in vals]))
        mean_tokens = float(np.mean([v[1] for v in vals]))
        rows.append([selector, budget, round(mean_mass, 6), round(mean_tokens, 2)])
    return rows


# ---------------------------------------------------------------------------
# Decode latency bench
# ---------------------------------------------------------------------------

BENCH_MODES = ("dense", "sparse_exact", "sparse_histogram")


@dataclass
class BenchRow:
    length: int
    mode: str
    median_ms: float
    p95_ms: float


def bench_decode(lengths: Sequence[int], seed: int, *, n_steps: int = 30,
                 warmup: int = 5, p: float = 0.9, head_dim: int = 64,
                 r: int = 16, block_size: int = 64) -> list[BenchRow]:
    """Wall-clock per decode step against static synthetic caches: dense
    decode, the decode kernel over every visible row, versus sparse decode
    in both selector modes, all through the same float32 kernel. A few
    high-gain key spans give the score vectors the block-level concentration
    selective decode exploits; the dense step's cost is structure-blind
    either way. Warmup calls are discarded; the projected-key cache is
    filled before timing starts, since at steady state projection work is
    incremental."""
    if n_steps < 1:
        raise ArgumentError("need at least one measured iteration")
    if warmup < 0:
        raise ArgumentError("warmup must be >= 0")
    rows = []
    for L in lengths:
        rng = derive_rng(seed, f"bench-{L}")
        keys = rng.normal(size=(L, head_dim))
        gain = np.full(L, 0.25)
        for s0 in rng.integers(0, max(1, L - block_size), size=8):
            gain[s0 : s0 + block_size] = 1.5
        keys = (keys * gain[:, None]).astype(np.float32)
        cache = KVCacheHead(RopeParams(head_dim), capacity=L)
        cache.extend(keys, rng.normal(size=(L, head_dim)).astype(np.float32), np.arange(L))
        pkc = ProjectedKeyCache(init_projector(r, head_dim, seed), capacity=L)
        pkc.extend(keys)
        queries = rng.normal(size=(warmup + n_steps, head_dim))
        pos = L - 1

        def dense_step(q):
            attend(q, pos, cache, visible_rows(cache, pos))

        def exact_step(q):
            retrieval_head_decode(q, pos, cache, pkc, p, "exact")

        def hist_step(q):
            retrieval_head_decode(q, pos, cache, pkc, p, "histogram",
                                  block_size=block_size)

        for mode, fn in zip(BENCH_MODES, (dense_step, exact_step, hist_step)):
            times = []
            for i, q in enumerate(queries):
                t0 = time.perf_counter()
                fn(q)
                dt = time.perf_counter() - t0
                if i >= warmup:
                    times.append(dt * 1e3)
            rows.append(BenchRow(L, mode, float(np.median(times)),
                                 float(np.percentile(times, 95))))
    return rows


def bench_metadata(seed: int) -> dict:
    return {
        "seed": seed,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def write_bench(path: str | Path, rows: Sequence[BenchRow]) -> None:
    write_csv(path, BENCH_HEADER,
              [[r.length, r.mode, repr(r.median_ms), repr(r.p95_ms)] for r in rows])


def read_bench(path: str | Path) -> list[BenchRow]:
    return [BenchRow(*r) for r in read_csv(path, BENCH_HEADER, BENCH_COLUMNS)]
