"""Sparse attention engine: prefill that builds the KV caches, sink+window
attention for local heads, and per-step top-p decode over projected scores.

Every KV cache is a workload.KVCacheHead, allocated once under one of two
capacity rules.  A group with a retrieval head keeps its full cache, sized
for the whole stream: a stream cache (build_cache_prefix) that reads the
workload's post-rotation keys and values in place, never writing them, and
owns only its positions, 8 bytes a row.  Each layer's LocalWindow stacks
every KV group and keeps only sinks and a recent window, with its own
copies of their rotated keys and values, in n_sinks + 2 * window rows or
the stream's length if that is less.  No cache turns a key: the workload
carries each key turned once, and only queries turn, in workload.attend.
A decode step visits each layer once.  Every local query head of the layer
decodes in one call over the layer's LocalWindow; the retrieval heads' rows
ride along so the batch stays rectangular, and their outputs are dropped.
Each retrieval head then selects its own set over its group's full cache
and attends over it.  Local heads and the histogram route's merged block runs
read contiguous slices of their rows.  Exact and top-k sets are index
arrays: a dense one attends as one dense row over its span, and a sparse
one is gathered.  Every head goes through restricted_attention and so
through workload.attend, the one attention kernel.
A retrieval head ranks tokens by its ProjectedKeyCache, which the decode
loop extends with the pre-rotation keys of the rows its KV cache holds (the
prompt and the first token at the first step, then one token a step), so
no cache keeps pre-rotation keys.

The decode path never renormalizes approximately: whatever active set the
selector produces, the output is the same exact softmax over true scaled
post-rotation scores that the dense oracle runs. Sparsity shows up only in
which tokens participate, not in how they are weighed.

Precision: the KV caches store float32, and decode's score and value
products read them in float32, which halves the bytes those bandwidth-bound
products read; the softmax between them runs in float64, and the value
products' row_blocks sums add up in float64.  Against float64 attention on
the same set, the worst output error over every retrieval head-step of one
request (seed 0, the benchmark's set-up, one BLAS thread) read 1.3e-7 at 8K
exact, 6.2e-8 at 32K exact and 1.0e-7 at 128K histogram; 5.3e-7 at 128K
exact with projectors trained 1,200 steps, whose sets reach 116K tokens
(2.5e-6 as one float32 sum a span).  Selection stays float64 end to end
(the projected keys, their scores, the top-p walk and the histogram), so
the sets and both sparsities do not depend on the cache type.  The engine
only decodes: the float64 oracle (reports.oracle_rows) runs afterwards on
the workload's arrays, as calibration and stage 1 do, and scores the same
float32 rotated keys, workload.keys_post, through workload.causal_scores
without a cache.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .calibration import ROLE_LOCAL, ROLE_RETRIEVAL, HeadPartition
from .errors import ArgumentError, ConfigError, InternalError
from .indexer import ProjectedKeyCache, Projector
from .selection import (
    ActiveSet,
    SelectionResult,
    histogram_threshold_scores,
    set_size,
    top_k_static,
    top_p_exact,
)
from .workload import (
    KVCacheHead,
    ModelGeometry,
    Workload,
    attend,
    build_cache,
    build_cache_prefix,
    qhead_to_kvhead,
    visible_rows,
)

MODES = ("exact", "histogram", "top_k")


@dataclass
class DecodeTrace:
    """One decode step of one query head: what was selected and what came out.

    covered_projected_mass is the selector's own coverage (softmax mass under
    the scores it ranked by); local heads select by rule rather than by score,
    so their coverage of that rule is complete and recorded as 1.0.
    covered_true_mass is the dense-attention mass of the same set and stays
    None unless the oracle (reports.record_true_masses) fills it in.
    active_set: see ActiveSet.
    """

    layer: int
    q_head: int
    position: int
    role: str
    tokens_selected: int
    covered_projected_mass: float
    output: np.ndarray
    active_set: np.ndarray = ActiveSet()
    covered_true_mass: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.covered_projected_mass <= 1.0 + 1e-9):
            raise InternalError(f"projected mass {self.covered_projected_mass} outside [0, 1]")
        if self.tokens_selected != set_size(self._active_set):
            raise InternalError("tokens_selected disagrees with the active set")
        if self.tokens_selected > self.position + 1:
            raise InternalError("active set larger than the visible prefix")


@dataclass
class SparsityReport:
    compute_sparsity: float
    memory_sparsity: float
    per_head_active: np.ndarray  # (n_layers, n_q_heads) mean active-set sizes

    def __post_init__(self):
        for name in ("compute_sparsity", "memory_sparsity"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InternalError(f"{name}={v} outside [0, 1]")


class FullCaches(dict):
    """(layer, kv_head) -> full-stream cache, built once on first read for a
    group that decoded without one (it has no retrieval head); like the
    decode caches, it reads the workload's keys_post and values in place and
    owns only its positions.  perfbench's output check and the tests are
    its only readers."""

    def __init__(self, workload: Workload, caches: Mapping):
        super().__init__(caches)
        self.workload = workload

    def __missing__(self, key: tuple[int, int]) -> KVCacheHead:
        self[key] = cache = build_cache(self.workload, *key)
        return cache


@dataclass
class RunResult:
    traces: list[DecodeTrace]
    report: SparsityReport
    # the decode caches, and any other group's full cache built on access;
    # perfbench's output check and the tests are their only readers
    caches: FullCaches = field(repr=False)


def local_spans(n_visible: int, window: int, n_sinks: int) -> tuple[slice, ...]:
    """The sink+window rule: a local head attends to the first n_sinks tokens
    and the trailing `window` tokens of the visible prefix, as one slice when
    the two meet (short prefixes) and as two disjoint slices otherwise."""
    if n_visible <= 0:
        raise ArgumentError("no visible tokens")
    if window < 1 or n_sinks < 0:
        raise ArgumentError("window must be >= 1 and n_sinks >= 0")
    tail_start = max(n_visible - window, 0)
    if tail_start <= n_sinks:
        return (slice(0, n_visible),)
    return slice(0, n_sinks), slice(tail_start, n_visible)


class LocalWindow(KVCacheHead):
    """One layer's local rows: a KVCacheHead stacking the layer's
    n_kv_heads groups, holding the first n_sinks tokens and at least the
    last `window`, in token order, so local_head_decode runs every local
    head of the layer in one call.

    The rows are a prefix of the stream's sinks and a run of consecutive
    tokens that ends at the last append and holds more than `window`
    tokens once the two are apart, so local_spans over the rows are the
    local rule's spans over the stream.  The buffer holds n_sinks + 2 *
    window rows, or the whole stream if that is shorter (a window as long
    as the stream keeps every row, and no row moves); where a full cache
    would grow, an append to a full buffer first moves its last `window`
    rows down behind the sinks.  The rows are the window's own copies of
    the workload's keys_post and values, as they move, so each row has the
    bits of the same token's row in a full cache."""

    def __init__(self, workload: Workload, layer: int, n_tokens: int, window: int,
                 n_sinks: int):
        """The local rows of the first n_tokens of `layer`'s streams."""
        keys, values = workload.keys_post[layer], workload.values[layer]
        capacity = min(n_sinks + 2 * window, workload.seq_len)
        super().__init__(workload.geometry.rope, capacity, len(keys))
        self.window, self.n_sinks = window, n_sinks
        keep = np.r_[local_spans(n_tokens, window, n_sinks)]
        self.extend(keys[:, keep], values[:, keep], keep)

    def append(self, keys_post: np.ndarray, values: np.ndarray, position: int) -> None:
        """The next token of every group: keys_post and values are
        (n_kv_heads, head_dim)."""
        last = self._positions[self._n - 1]
        if position != last + 1:
            raise ArgumentError(f"position {position} does not follow {last}")
        super().append(keys_post, values, position)

    def _grow(self, need: int) -> None:
        if need > len(self._positions):
            tail, n = slice(self._n - self.window, self._n), self.n_sinks + self.window
            self._positions[self.n_sinks:n] = self._positions[tail]
            self._keys_post[:, self.n_sinks:n] = self._keys_post[:, tail]
            self._values[:, self.n_sinks:n] = self._values[:, tail]
            self._n = n


def restricted_attention(query_pre: np.ndarray, query_position: int,
                         cache: KVCacheHead, active: np.ndarray | SelectionResult) -> np.ndarray:
    """Attention output over the cache rows in `active`, an index array or a
    selection (read through its spans when it has them); the same exact
    softmax as dense attention on the sub-cache, up to rounding.  len(active)
    is the number of tokens attended."""
    if len(active) == 0:
        raise InternalError("restricted attention over an empty set")
    if isinstance(active, SelectionResult):
        active = active.spans or active.active_set
    return attend(query_pre, query_position, cache, active)[1]


def local_head_decode(queries_pre: np.ndarray, query_position: int,
                      cache: KVCacheHead, window: int, n_sinks: int) -> np.ndarray:
    """Sink+window attention for one decode step of the query heads that
    share `cache`: queries_pre is (d,) or (G, d) against a one-group cache,
    and (K, G, d) against one that stacks K KV groups, such as a layer's
    LocalWindow, which decodes every group's heads in one call.  The
    outputs keep the queries' shape.

    The local_spans of the cache's visible rows are attended as contiguous
    slices, so no row is gathered.  Over a full cache they are the local
    rule's spans; over a LocalWindow's rows they are the same tokens, so
    each output row has the bits of its group's heads decoded over a full
    cache."""
    spans = local_spans(visible_rows(cache, query_position).stop, window, n_sinks)
    sel = SelectionResult(spans, 1.0)
    return restricted_attention(queries_pre, query_position, cache, sel)


def check_mode(mode: str, top_k: int | None) -> None:
    """The one selector-mode and budget policy, for run configs and decode
    calls alike: mode is one of MODES, top_k mode has a budget, and a budget
    given under any mode is at least one token."""
    if mode not in MODES:
        raise ConfigError(f"unknown selector mode {mode!r}")
    if mode == "top_k" and top_k is None:
        raise ConfigError("top_k mode needs a top_k budget")
    if top_k is not None and top_k < 1:
        raise ConfigError(f"top_k budget must be >= 1, got {top_k}")


def retrieval_head_decode(query_pre: np.ndarray, query_position: int,
                          cache: KVCacheHead, pkc: ProjectedKeyCache, p: float,
                          mode: str = "exact", *, block_size: int = 64,
                          top_k: int | None = None,
                          layer: int = 0, q_head: int = 0) -> DecodeTrace:
    """One retrieval-head decode step: rank the visible prefix by the
    projected pre-rotation scores of `pkc` (the head's projected keys,
    extended with the rows of this cache), select by the requested mode,
    then attend exactly over the selected set (over its merged runs in
    histogram mode); the output is the trace's.  The static top_k baseline
    ignores p and offers no coverage floor; that gap is what it exists to
    demonstrate."""
    check_mode(mode, top_k)
    proj = pkc.scores(cache, query_pre, query_position)
    if mode == "exact":
        sel: SelectionResult = top_p_exact(proj, p)
    elif mode == "top_k":
        sel = top_k_static(proj, top_k)
    else:
        sel = histogram_threshold_scores(proj, block_size, p)
    return DecodeTrace(
        layer=layer, q_head=q_head, position=int(query_position), role=ROLE_RETRIEVAL,
        tokens_selected=sel.size, covered_projected_mass=sel.covered_mass,
        output=restricted_attention(query_pre, query_position, cache, sel),
        active_set=sel.spans or sel.active_set)


def prefill(workload: Workload, groups: Collection[tuple[int, int]] | None = None
            ) -> dict[tuple[int, int], KVCacheHead]:
    """Build the full (layer, kv_head) KV caches over the workload's prompt
    region for the given `groups`, every group by default, each sized for
    the whole stream: stream caches over the workload's rows, which own
    only their positions.  run_workload builds them only for the groups
    that have a retrieval head; the local heads read each layer's
    LocalWindow."""
    geo, n = workload.geometry, workload.prefill_len
    if groups is None:
        groups = [(layer, g) for layer in range(geo.n_layers)
                  for g in range(geo.n_kv_heads)]
    return {(layer, g): build_cache_prefix(workload, layer, g, n)
            for layer, g in sorted(groups)}


def compute_sparsity(traces: Sequence[DecodeTrace]) -> float:
    """1 minus the mean attended/visible fraction over query-head steps; a
    step at position t sees the t + 1 tokens at positions 0..t."""
    if len(traces) == 0:
        raise ArgumentError("no traces")
    fracs = [t.tokens_selected / (t.position + 1) for t in traces]
    return 1.0 - float(np.mean(fracs))


def memory_sparsity(traces: Sequence[DecodeTrace],
                    gqa_map: Callable[[int], int]) -> float:
    """1 minus the mean retained/visible fraction over KV-head steps, where
    retained is the union of active sets across the query heads that
    gqa_map sends to the same KV head.  The union is counted on a mask of
    the position + 1 visible tokens that every active set marks."""
    if len(traces) == 0:
        raise ArgumentError("no traces")
    groups: dict[tuple[int, int, int], list] = {}
    for t in traces:
        groups.setdefault((t.layer, gqa_map(t.q_head), t.position), []).append(
            t._active_set)
    fracs = []
    for (_, _, position), sets in groups.items():
        retained = np.zeros(position + 1, bool)
        for active in sets:
            for rows in active if isinstance(active, tuple) else (active,):
                retained[rows] = True
        fracs.append(np.count_nonzero(retained) / (position + 1))
    return 1.0 - float(np.mean(fracs))


def sparsity_report(traces: Sequence[DecodeTrace], geometry: ModelGeometry
                    ) -> SparsityReport:
    per_head: dict[tuple[int, int], list[int]] = {}
    for t in traces:
        per_head.setdefault((t.layer, t.q_head), []).append(t.tokens_selected)
    means = np.zeros((geometry.n_layers, geometry.n_q_heads))
    for (layer, h), sizes in per_head.items():
        means[layer, h] = float(np.mean(sizes))
    return SparsityReport(
        compute_sparsity=compute_sparsity(traces),
        memory_sparsity=memory_sparsity(traces, lambda h: qhead_to_kvhead(geometry, h)),
        per_head_active=means,
    )


def run_workload(workload: Workload, geometry: ModelGeometry,
                 partitions: Sequence[HeadPartition],
                 projectors: Mapping[tuple[int, int], Projector],
                 *, mode: str = "exact", top_k: int | None = None) -> RunResult:
    """Prefill the prompt region, then decode the remaining positions one
    layer at a time: the new token's KV is appended first, then the layer's
    local heads decode together over its LocalWindow and its retrieval heads
    one by one at geometry.top_p; traces come out in (position, layer,
    q_head) order.  Decode reads no oracle: reports.record_true_masses
    fills the traces' true masses afterwards from the workload's arrays."""
    check_mode(mode, top_k)
    if len(partitions) != geometry.n_layers:
        raise ArgumentError(f"{len(partitions)} head partitions for "
                            f"{geometry.n_layers} layers; one per layer required")
    if workload.prefill_len >= workload.seq_len:
        raise ArgumentError("workload has no decode region")
    for layer, part in enumerate(partitions):
        if part.n_heads != geometry.n_q_heads:
            raise ArgumentError(f"layer {layer} partition covers {part.n_heads} heads; "
                                f"the geometry has {geometry.n_q_heads}")
        for h in part.retrieval_set:
            if (layer, h) not in projectors:
                raise ArgumentError(f"no projector for retrieval head ({layer}, {h})")
            if projectors[(layer, h)].head_dim != geometry.head_dim:
                raise ArgumentError(f"projector ({layer}, {h}) is not for head_dim "
                                    f"{geometry.head_dim}")

    pkcs = {
        (layer, h): ProjectedKeyCache(projectors[(layer, h)], capacity=workload.seq_len)
        for layer in range(geometry.n_layers)
        for h in partitions[layer].retrieval_set
    }
    gs = geometry.group_size
    full = {(layer, h // gs) for layer, h in pkcs}
    live = prefill(workload, full)
    windows = {layer: LocalWindow(workload, layer, workload.prefill_len,
                                  geometry.window, geometry.n_sinks)
               for layer, part in enumerate(partitions) if part.local_set}
    traces: list[DecodeTrace] = []
    for t in range(workload.prefill_len, workload.seq_len):
        # the new token's KV lands before any head consumes the position,
        # so every query sees its own entry (self-attention at decode)
        for (layer, g), cache in live.items():
            cache.append(workload.keys_post[layer, g, t], workload.values[layer, g, t], t)
        for layer, window in windows.items():
            window.append(workload.keys_post[layer, :, t], workload.values[layer, :, t], t)
        # each head's projected keys catch up with its cache: the prompt and
        # this token at the first step, one token after that
        for (layer, h), pkc in pkcs.items():
            pkc.extend(workload.keys_pre[layer, qhead_to_kvhead(geometry, h), len(pkc):t + 1])
        spans = local_spans(t + 1, geometry.window, geometry.n_sinks)
        n_spans = set_size(spans)
        for layer, part in enumerate(partitions):
            queries = workload.queries[layer, :, t]
            if layer in windows:
                # every head of the layer, so the batch stays rectangular;
                # the retrieval heads' rows are dropped
                outs = local_head_decode(
                    queries.reshape(geometry.n_kv_heads, gs, -1), t, windows[layer],
                    geometry.window, geometry.n_sinks,
                ).reshape(geometry.n_q_heads, -1)
            for h in range(geometry.n_q_heads):
                if part.is_retrieval(h):
                    entry = retrieval_head_decode(
                        queries[h], t, live[layer, h // gs], pkcs[(layer, h)],
                        geometry.top_p, mode,
                        block_size=geometry.block_size, top_k=top_k,
                        layer=layer, q_head=h,
                    )
                else:
                    entry = DecodeTrace(
                        layer=layer, q_head=h, position=t, role=ROLE_LOCAL,
                        tokens_selected=n_spans,
                        covered_projected_mass=1.0, output=outs[h], active_set=spans,
                    )
                traces.append(entry)
    return RunResult(traces, sparsity_report(traces, geometry), FullCaches(workload, live))
