"""Artifact emission and measurement: the fixed headers and column converters
of the CSV artifacts, their writers and loaders (every file round-trips, and
all go through headsparse.container), the float64 oracle's true masses,
the attention-mass-vs-budget sweep, and the request latency bench: whole
engine.run_workload requests on the pipeline's workload, dense (every head
local over its whole visible prefix) against both sparse selector modes."""

from __future__ import annotations

import os
import platform
import time
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .calibration import HeadPartition, parse_role
from .container import read_csv, read_json, write_csv, write_json
from .engine import DecodeTrace, RunResult, SparsityReport, run_workload
from .errors import ArgumentError
from .indexer import Projector
from .numerics import softmax
from .selection import top_k_static, top_p_exact
from .workload import ModelGeometry, Workload, causal_scores, qhead_to_kvhead

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
    for (layer, head), entries in sorted(groups.items()):
        sizes = np.array([t.tokens_selected for t in entries])
        rows.append([layer, head, entries[0].role, sizes.size, round(float(sizes.mean()), 3),
                     int(np.percentile(sizes, 50)), int(np.percentile(sizes, 95)),
                     int(sizes.max())])
    return rows


# Head-step rows per causal_scores call of the oracle; a call widens every
# key block to float64 once for all its rows.  A 128K histogram request's
# 2,048 rows took 11.7 ms a row one a call, 3.0 at 8, 2.3 at 16, 1.8 at 32
# and 1.7 at 64 (seed 0, one BLAS thread, 2-core x86); 32 rows of scores
# take 32 MiB at 128K.
ORACLE_ROWS = 32


def oracle_rows(workload: Workload, steps: Sequence[tuple[int, int, int]]
                ) -> Iterator[tuple[int, np.ndarray]]:
    """The float64 oracle: (i, the scaled post-rotation scores of head-step
    steps[i] = (layer, q_head, position) over its position + 1 tokens), one
    (layer, KV group) at a time and by position within it.  Each group's
    rows are scored against its rotated keys, read in place from
    workload.keys_post, with no cache and no value row, through
    causal_scores ORACLE_ROWS at a time: a gemm, so a row can differ from
    dense_row_scores's one-row gemv in its last bits.  A head-step whose
    query row the workload did not keep (workload.QueryRows) raises
    ArgumentError."""
    geo, groups = workload.geometry, {}
    for i, (layer, h, t) in enumerate(steps):
        if not (0 <= layer < geo.n_layers and 0 <= t < workload.seq_len):
            raise ArgumentError(f"head-step {steps[i]} lies outside the workload")
        groups.setdefault((layer, qhead_to_kvhead(geo, h)), []).append(i)
    for (layer, g), rows in sorted(groups.items()):
        rows.sort(key=lambda i: steps[i][2])
        keys = workload.keys_post[layer, g, : steps[rows[-1]][2] + 1]
        for a in range(0, len(rows), ORACLE_ROWS):
            batch = rows[a : a + ORACLE_ROWS]
            _, heads, positions = np.array([steps[i] for i in batch]).T
            scores = causal_scores(workload.queries[layer, heads, positions], positions,
                                   keys, geo.rope)
            yield from ((i, row[: t + 1]) for i, t, row in zip(batch, positions, scores))


def record_true_masses(workload: Workload, traces: Sequence[DecodeTrace]) -> None:
    """Set each trace's covered_true_mass: the oracle's softmax weight on
    its active set, weights only, with no value product."""
    for i, scores in oracle_rows(workload, [(t.layer, t.q_head, t.position) for t in traces]):
        t, active = traces[i], traces[i].active_set
        if active.size and not 0 <= active.min() <= active.max() <= t.position:
            raise ArgumentError(f"active set reaches past position {t.position}")
        t.covered_true_mass = float(softmax(scores)[active].sum())


def mass_budget_sweep(workload: Workload, layer: int, q_head: int,
                      positions: Sequence[int], budgets: Sequence[int], p: float
                      ) -> list[list]:
    """Dense-row oracle sweep: attention mass captured by static top-k
    budgets versus top-p at the same positions. Selection runs on the true
    scores (oracle_rows), so this measures the budget tradeoff itself, not
    indexer error."""
    if not positions:
        raise ArgumentError("no positions to sweep")
    scored = dict(oracle_rows(workload, [(layer, q_head, t) for t in positions]))
    masses: dict[tuple[str, int | float], list[tuple[float, int]]] = {}
    for i in range(len(positions)):
        scores = scored.pop(i)
        weights = softmax(scores)
        for key, sel in [*((("top_k", k), top_k_static(scores, k)) for k in budgets),
                         (("top_p", p), top_p_exact(scores, p))]:
            masses.setdefault(key, []).append((float(weights[sel.active_set].sum()), sel.size))
    return [[selector, budget, round(float(np.mean([m for m, _ in vals])), 6),
             round(float(np.mean([n for _, n in vals])), 2)]
            for (selector, budget), vals in masses.items()]


# ---------------------------------------------------------------------------
# Request latency bench
# ---------------------------------------------------------------------------

BENCH_MODES = ("dense", "sparse_exact", "sparse_histogram")
# the BLAS thread pins bench_meta.json records, null where unset
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass
class BenchRow:
    length: int
    mode: str
    median_ms: float
    p95_ms: float


def bench_request(workload: Workload, geometry: ModelGeometry,
                  partitions: Sequence[HeadPartition],
                  projectors: Mapping[tuple[int, int], Projector], mode: str) -> RunResult:
    """One whole run_workload request of a BENCH_MODES entry.  The sparse
    modes decode the pipeline's partition and projectors in exact or
    histogram mode.  Dense marks every head local with window = seq_len, so
    each head attends over its whole visible prefix as one local_spans slice
    through the same kernel, with no projector."""
    if mode == "dense":
        dense = [HeadPartition(p.scores, (), tuple(range(p.n_heads)), p.ratio)
                 for p in partitions]
        return run_workload(workload, replace(geometry, window=workload.seq_len),
                            dense, {})
    return run_workload(workload, geometry, partitions, projectors,
                        mode=mode.removeprefix("sparse_"))


def bench_requests(workload: Workload, geometry: ModelGeometry,
                   partitions: Sequence[HeadPartition],
                   projectors: Mapping[tuple[int, int], Projector],
                   n_requests: int) -> list[BenchRow]:
    """Wall-clock per whole request, n_requests of each BENCH_MODES entry
    in turn, with no warm-up round: a first 32K dense request took no
    longer than the later ones."""
    if n_requests < 1:
        raise ArgumentError("need at least one timed request")
    rows = []
    for mode in BENCH_MODES:
        times = []
        for _ in range(n_requests):
            t0 = time.perf_counter()
            bench_request(workload, geometry, partitions, projectors, mode)
            times.append((time.perf_counter() - t0) * 1e3)
        rows.append(BenchRow(workload.seq_len, mode, float(np.median(times)),
                             float(np.percentile(times, 95))))
    return rows


def bench_metadata(seed: int, seq_len: int, n_requests: int) -> dict:
    return {
        "seed": seed,
        "seq_len": seq_len,
        "requests_per_mode": n_requests,
        "cpus": len(os.sched_getaffinity(0)),
        **{name: os.environ.get(name) for name in BLAS_ENV},
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
