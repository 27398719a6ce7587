"""Model geometry, the KV cache, the one attention kernel, the dense
causal-attention oracle, and the seeded synthetic workload generator.

Real model activations are replaced by planted-structure streams.  Each KV
head carries three orthogonal components inside its head_dim vector space:

* a "content" band (last quarter of the rotary pairs, slowest frequencies)
  where repeated token content produces large pre-rotation key/query dots
  - this is what retrieval-style heads key on;
* a "locality" band (first half of the pairs) carrying a unit-norm
  correlated walk, so nearby positions score high and distant ones
  decorrelate - this is what local-style heads key on;
* a buffer band holding only isotropic noise.

Keys follow an induction pattern: the key at position j carries the content
of token j-1, so a query seeking content c lands on the successor of the
earlier token that had content c.  A needle (a span of reserved content
vectors) planted early and late in the stream then gives planted retrieval
heads a causal long-range target that local heads cannot see.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import ContainerWriter, load_container
from .errors import ArgumentError, InternalError
from .numerics import softmax
from .record import Record
from .rope import RopeParams, RopeTable, rope_apply, rope_rotate, rope_rotate_many, row_blocks
from .seeding import derive_rng


@dataclass(frozen=True)
class ModelGeometry(Record):
    """Shared shape/configuration record.  Its field defaults, the desk-scale
    geometry the generator was tuned against, fill every key a config omits."""

    n_layers: int = 1
    n_q_heads: int = 16
    n_kv_heads: int = 4
    head_dim: int = 64
    rope_base: float = 1.0e6
    window: int = 512
    n_sinks: int = 4
    retrieval_ratio: float = 0.15
    low_dim: int = 16
    top_p: float = 0.9
    block_size: int = 64
    rope: RopeParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_layers < 1 or self.n_q_heads < 1 or self.n_kv_heads < 1:
            raise ArgumentError("layer/head counts must be positive")
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ArgumentError(
                f"n_q_heads={self.n_q_heads} not divisible by n_kv_heads={self.n_kv_heads}"
            )
        if self.head_dim < 2 or self.head_dim % 2 != 0:
            raise ArgumentError("head_dim must be even and >= 2")
        if not (0 < self.retrieval_ratio <= 1):
            raise ArgumentError("retrieval_ratio must lie in (0, 1]")
        if not (0 < self.top_p <= 1):
            raise ArgumentError("top_p must lie in (0, 1]")
        if not (1 <= self.low_dim <= self.head_dim):
            raise ArgumentError("low_dim must lie in [1, head_dim]")
        if self.window < 1 or self.block_size < 1 or self.n_sinks < 0:
            raise ArgumentError("window/block_size must be positive, n_sinks >= 0")
        object.__setattr__(self, "rope", RopeParams(self.head_dim, self.rope_base))

    @property
    def group_size(self) -> int:
        return self.n_q_heads // self.n_kv_heads

    @property
    def scale(self) -> float:
        return self.rope.scale


def qhead_to_kvhead(geometry: ModelGeometry, q_head: int) -> int:
    """GQA mapping: consecutive groups of query heads share one KV head."""
    if not (0 <= q_head < geometry.n_q_heads):
        raise ArgumentError(f"q_head {q_head} out of range [0, {geometry.n_q_heads})")
    return q_head // geometry.group_size


class KVCacheHead:
    """Append-only per-KV-head store of `capacity` rows, allocated once (a
    row past it raises InternalError); rows are token positions in full
    caches only.

    Keeps the positions, the float32 rotated keys and the values, all that
    attention reads.  Keys turn in float64 and are rounded to float32 once,
    as they land.  Decode's `attend` reads the float32 rows as they are.
    Caches belong to decode: calibration, stage 1 and the float64 oracle
    score keys that rope_apply turns by the same rule, with no cache and no
    values.  The pre-rotation keys are not kept: the indexer's
    ProjectedKeyCache is extended with the same rows by whoever appends
    them here.

    The values are stored one of two ways, fixed at construction.  By
    default the cache owns float32 copies of the rows it is given: 8 +
    8 * head_dim bytes a row (520 at head_dim 64).  Given `values`, the
    float32 value rows of a whole stream (such as workload.values[layer,
    g], `capacity` rows), the cache reads them in place through a read-only
    view and never writes them (a mapped workload is a copy-on-write map,
    so a write would copy its pages); it owns 8 + 4 * head_dim bytes a row
    (264).  Row i of such a stream cache is token i: positions continue
    0, 1, ..., and append and extend take values only to check them.  None
    stands for the stream's own rows, and any other rows raise
    ArgumentError, so the cache never attends over values it was not given.

    With `groups`, the cache stacks that many KV groups over one positions
    vector: keys_post and values are (groups, n, head_dim), and append and
    extend take each group's rows at once.  Every row has the bits it has
    in a one-group cache fed the same rows.
    """

    def __init__(self, rope: RopeParams, capacity: int, groups: int | None = None,
                 values: np.ndarray | None = None):
        self.rope = rope
        self._lead = () if groups is None else (groups,)
        self._n = 0
        self._positions = np.empty(capacity, np.int64)
        self._keys_post = np.empty((*self._lead, capacity, rope.head_dim), np.float32)
        self._stream = values is not None
        if values is None:
            self._values = np.empty_like(self._keys_post)
            return
        if values.shape != self._keys_post.shape or values.dtype != np.float32:
            raise ArgumentError(f"stream values must be float32{self._keys_post.shape}, "
                                f"got {values.dtype}{values.shape}")
        self._values = values.view()
        self._values.flags.writeable = False

    def __len__(self) -> int:
        return self._n

    def _grow(self, need: int) -> None:
        """Check that `need` rows fit; LocalWindow moves its rows instead."""
        if need > len(self._positions):
            raise InternalError(f"{need} rows for a cache of {len(self._positions)}")

    def _value_rows(self, values, shape: tuple[int, ...]) -> np.ndarray | None:
        """values as float32 rows of `shape`; None only for a stream cache."""
        if values is None and self._stream:
            return None
        rows = np.asarray(values, np.float32)
        if rows.shape != shape:
            raise ArgumentError(f"keys and values must be {shape}")
        return rows

    def _check_stream(self, pos: np.ndarray, values: np.ndarray | None) -> None:
        """On a stream cache, positions `pos` must be its next rows' tokens
        and `values`, if given, the stream's rows there."""
        n0, n1 = self._n, self._n + pos.size
        if pos[0] != n0 or pos[-1] != n1 - 1 or (
                values is not None and not np.array_equal(values, self._values[..., n0:n1, :])):
            raise ArgumentError(f"a stream cache's next rows are tokens {n0}..{n1 - 1} "
                                f"with the stream's values")

    def append(self, key_pre: np.ndarray, value: np.ndarray | None, position: int) -> None:
        """One token: extend's checks and rounding, written straight into
        row n without going through the batch form.  A stacked cache takes
        (groups, head_dim) rows, turned at `position` by one rope_rotate."""
        row = (*self._lead, self.rope.head_dim)
        kp = np.asarray(key_pre, np.float32)
        va = self._value_rows(value, row)
        if kp.shape != row:
            raise ArgumentError(f"key and value must be {row}")
        position = int(position)
        if position < 0 or (self._n and position <= self._positions[self._n - 1]):
            raise ArgumentError("positions must be strictly increasing and non-negative")
        if self._stream:
            self._check_stream(np.array([position]), None if va is None else va[..., None, :])
        self._grow(self._n + 1)
        n = self._n
        self._positions[n] = position
        self._keys_post[..., n, :] = rope_rotate(kp, position, self.rope)
        if not self._stream:
            self._values[..., n, :] = va
        self._n = n + 1

    def extend(self, keys_pre: np.ndarray, values: np.ndarray | None, positions: np.ndarray,
               table: RopeTable | None = None) -> None:
        """Batch append of (n, head_dim) rows, (groups, n, head_dim) if stacked.
        Keys and values are rounded to float32 once; each group's keys turn in
        float64 block by block (rope_apply) and land rounded to float32.
        `table` is rope_table(positions), when the caller already holds it."""
        kp32 = np.asarray(keys_pre, np.float32)
        pos = np.asarray(positions, np.int64)
        rows = (*self._lead, pos.size, self.rope.head_dim)
        va32 = self._value_rows(values, rows)
        if pos.ndim != 1 or kp32.shape != rows:
            raise ArgumentError(f"keys and values must be {rows}, one row per position")
        if pos.size == 0:
            return
        prev = self._positions[self._n - 1] if self._n else -1
        if pos[0] <= prev or np.any(pos[1:] <= pos[:-1]) or pos[0] < 0:
            raise ArgumentError("positions must be strictly increasing and non-negative")
        if self._stream:
            self._check_stream(pos, va32)
        self._grow(self._n + pos.size)
        n0, n1 = self._n, self._n + pos.size
        for g in np.ndindex(kp32.shape[:-2]):
            rope_apply(kp32[g], pos, self.rope, table, out=self._keys_post[g][n0:n1])
        self._positions[n0:n1] = pos
        if not self._stream:
            self._values[..., n0:n1, :] = va32
        self._n = n1

    @property
    def positions(self) -> np.ndarray:
        return self._positions[: self._n]

    @property
    def keys_post(self) -> np.ndarray:
        return self._keys_post[..., : self._n, :]

    @property
    def values(self) -> np.ndarray:
        return self._values[..., : self._n, :]

    # The former float64 buffer's name, for its only readers (perfbench's
    # output check and the tests): the same float32 rows, never widened.
    values64 = values

    def visible_count(self, query_position: int) -> int:
        """Tokens with position <= query_position (positions are sorted)."""
        return int(np.searchsorted(self.positions, query_position, side="right"))


@dataclass
class AttentionRow:
    query_position: int
    weights: np.ndarray
    output: np.ndarray


# An index array holding more than this share of its span [0, rows[-1] + 1)
# attends as one dense row over the span.  The 256 retrieval attend calls of
# a 32K exact request (seed 3, 2-core x86, one BLAS thread) took 0.84-0.87 s
# gathered, 0.45-0.50 s dense at a 10, 25 or 50 % cutoff (none measurably
# better); at 8K, 0.16-0.17 s against 0.09-0.11 s.
DENSE_SHARE = 0.25


def _dense_span(rows) -> int:
    """rows[-1] + 1 for a sorted, distinct index array denser than
    DENSE_SHARE of that span; 0 for anything to gather."""
    if not isinstance(rows, np.ndarray) or rows.dtype.kind != "i" or rows.size == 0:
        return 0
    span = int(rows[-1]) + 1
    if rows.size <= DENSE_SHARE * span or rows[0] < 0 or np.any(rows[1:] <= rows[:-1]):
        return 0
    return span


# Softmax weights below this are dropped before the float32 value product.
# Weights under float32's smallest normal (about e^-87), and products of
# small weights with small values, are subnormal, and float32 products over
# them run about 15 times slower: four heads' values over 512 rows took
# 244 us with 323 of their 2,064 weights subnormal and 16 us with those
# dropped (2-core x86, one BLAS thread).  Dropping them moves an output by
# less than rows * 2^-64 * max|value|.
WEIGHT_FLOOR = 2.0 ** -64


def _weights32(weights: np.ndarray) -> np.ndarray:
    """weights rounded to float32 for the value product, those below
    WEIGHT_FLOOR set to 0."""
    w32 = weights.astype(np.float32)
    w32[w32 < WEIGHT_FLOOR] = 0.0
    return w32


def _row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (K, G, k) @ b (K, k, m) as K * G one-row products (one gemv each),
    so every row of the result has the bits it has when its row is
    multiplied alone."""
    return (a[:, :, None, :] @ b[:, None])[:, :, 0]


def attend(queries_pre: np.ndarray, query_position: int, cache: KVCacheHead,
           rows: slice | np.ndarray | tuple) -> tuple[np.ndarray, np.ndarray]:
    """The one attention kernel: exact softmax over the post-rotation scores
    of the cache `rows`, scaled by cache.rope.scale, then the weighted sum
    of their values.

    queries_pre is (d,) or (G, d) against a KVCacheHead, and the results
    keep its leading shape.  A cache that stacks K KV groups (keys_post of
    shape (K, n, d)) takes (K, G, d) queries, each group's against its own
    rows, and with the same bits as that group's rows attended alone.
    `rows` is a slice, an index array, or a tuple of disjoint ones scored as
    one set, so a union of spans needs no gathered copy.  Each is one part,
    read in place or gathered; an index array denser than DENSE_SHARE of
    its span is instead one part over the whole span, whose scores are
    taken at the set and whose weights are zero off it.  Returns float64
    (weights, output), the weights in the order of `rows`.

    The products read the float32 cache as it is stored: the query turns
    in float64 and is rounded to float32, each query row scores as its own
    product, and the float64 softmax's weights are rounded to float32 for
    the value product.  That product runs over each part's row_blocks, and
    the float32 block sums add up in float64, so no float32 sum runs over
    more than 2 * ROPE_BLOCK - 1 rows.  Both products are bandwidth-bound,
    so float32 halves what they read; one float64 operand against float32
    rows would fall off BLAS.  Against the float64 oracle on the same set
    the output moves by at most a few 1e-7 (see engine), also over a
    131,072-row span."""
    scale = cache.rope.scale
    keys, values = cache.keys_post, cache.values
    if keys.ndim == 2:  # one KV group
        keys, values = keys[None], values[None]
    d = keys.shape[-1]
    q32 = rope_rotate(np.reshape(queries_pre, (-1, d)), query_position, cache.rope)
    q32 = q32.astype(np.float32).reshape(len(keys), -1, d)
    span = _dense_span(rows)
    parts = (slice(0, span),) if span else rows if isinstance(rows, tuple) else (rows,)
    scores = np.concatenate([_row_products(q32, keys[:, r].swapaxes(1, 2)) for r in parts], -1)
    weights = softmax(np.multiply(scores[..., rows] if span else scores, scale, dtype=np.float64))
    w32 = _weights32(weights)
    if span:  # the set's weights in place over the span, zero off it
        w32, on_set = np.zeros((*w32.shape[:-1], span), np.float32), w32
        w32[..., rows] = on_set
    out = np.zeros(q32.shape)
    a = 0
    for r in parts:
        v = values[:, r]
        for b in row_blocks(v.shape[1]):
            out += _row_products(w32[..., a + b.start : a + b.stop], v[:, b])
        a += v.shape[1]
    lead = np.shape(queries_pre)[:-1]
    return weights.reshape(*lead, -1), out.reshape(*lead, -1)


def visible_rows(cache: KVCacheHead, query_position: int) -> slice:
    """The cache rows a query at query_position may attend to."""
    if len(cache) == 0:
        raise ArgumentError("cache is empty")
    n = cache.visible_count(query_position)
    if n == 0:
        raise ArgumentError(f"no token visible at position {query_position}")
    return slice(0, n)


def _widened_blocks(rows: np.ndarray):
    """(start, a block of rows widened to float64) over the whole of rows,
    one row_blocks block each, so a product over each block keeps the bits
    of one float64 product over all rows."""
    for r in row_blocks(len(rows)):
        yield r.start, rows[r].astype(np.float64)


def _oracle_scores(q_rot: np.ndarray, keys: np.ndarray, scale: float) -> np.ndarray:
    """Scaled float64 scores of rotated (B, d) queries against every row of
    the rotated keys, widened one block at a time."""
    scores = np.empty((len(q_rot), len(keys)))
    for a, block in _widened_blocks(keys):
        scores[:, a : a + len(block)] = q_rot @ block.T
    scores *= scale
    return scores


def dense_attention(query_pre: np.ndarray, query_position: int, cache: KVCacheHead,
                    scale: float | None = None) -> AttentionRow:
    """Exact causal attention row against every visible cached token, in
    float64: the tests' reference, which no program path calls.  Scores and
    the value sum run over rows widened one block at a time, so its weights
    keep the bits of the float64 products over the whole row on any cache,
    including one whose positions are not 0..n-1, at a fixed BLAS thread
    count (its one-row products are gemv calls; see causal_scores)."""
    if scale is None:
        scale = cache.rope.scale
    n = visible_rows(cache, query_position).stop
    q_rot = rope_rotate(query_pre, query_position, cache.rope)[None]
    weights = softmax(_oracle_scores(q_rot, cache.keys_post[:n], scale))[0]
    output = sum(weights[a : a + len(v)] @ v for a, v in _widened_blocks(cache.values[:n]))
    return AttentionRow(int(query_position), weights, output)


def causal_scores(queries_pre: np.ndarray, positions: np.ndarray, keys_post: np.ndarray,
                  rope: RopeParams, scale: float | None = None) -> np.ndarray:
    """The one causal-score kernel: scaled post-rotation scores of (B, d)
    queries at `positions` against keys_post, the rotated keys of tokens
    0, 1, ... (row j is token j), up to the largest position.  Row i's
    entries past positions[i] are -inf, so softmax gives them weight
    exactly 0.  `scale` defaults to rope.scale.

    It stays float64, bit for bit the float64 product over all rows (the
    float32 keys widen one aligned block at a time), so calibration's head
    scores, stage-1's attention rows and the oracle's true masses, and the
    files written from them, do not depend on the keys' storage type.  A one-row call (one gemv,
    as dense_row_scores makes) keeps its bits only at a fixed BLAS thread
    count, since multi-threaded OpenBLAS splits a gemv by thread count."""
    pos = np.asarray(positions, np.int64)
    if pos.ndim != 1 or pos.size == 0 or np.shape(queries_pre) != (pos.size, rope.head_dim):
        raise ArgumentError("queries must be (B, head_dim), one position per row")
    if np.ndim(keys_post) != 2 or np.shape(keys_post)[1] != rope.head_dim:
        raise ArgumentError(f"keys must be (n, {rope.head_dim}), got {np.shape(keys_post)}")
    if not 0 <= pos.min() <= pos.max() < len(keys_post):
        raise ArgumentError(f"positions must lie in [0, {len(keys_post)}), the keys' rows")
    if scale is None:
        scale = rope.scale
    n = int(pos.max()) + 1
    scores = _oracle_scores(rope_rotate_many(queries_pre, pos, rope), keys_post[:n], scale)
    for row, p in zip(scores, pos):
        row[p + 1 :] = -np.inf
    return scores


def dense_row_scores(query_pre: np.ndarray, query_position: int, cache: KVCacheHead,
                     scale: float | None = None) -> np.ndarray:
    """The scaled post-rotation scores behind dense_attention's softmax:
    causal_scores for one row, on a cache whose positions are 0..n-1, for
    its only readers, perfbench's output check and the tests."""
    if len(cache) == 0 or cache.positions[-1] != len(cache) - 1:
        raise ArgumentError("the cache must hold positions 0..n-1")
    return causal_scores(np.asarray(query_pre)[None], [query_position], cache.keys_post,
                         cache.rope, scale)[0]


# ---------------------------------------------------------------------------
# Synthetic workload generation
# ---------------------------------------------------------------------------


def local_band(head_dim: int) -> slice:
    """Dims of the first half of the rotary pairs (fastest frequencies)."""
    return slice(0, head_dim // 2)


def content_band(head_dim: int) -> slice:
    """Dims of the last quarter of the rotary pairs (slowest frequencies)."""
    return slice(3 * head_dim // 4, head_dim)


# Generator gains, fixed once by measuring planted-structure margins over 20
# seeds (see the generator tests).  They are expressed pre-scaling: dense
# attention later divides scores by sqrt(head_dim).
NEEDLE_LEN = 16
CONCENTRATED_SUPPORT = 2
N_CONTENT = 64
BG_SEEK_PROB = 0.5
BG_KEY_SCALE = 1.0
NEEDLE_KEY_SCALE = 8.0
PROBE_KEY_SCALE = 8.0
RETRIEVAL_QUERY_GAIN = 24.0
LOCAL_QUERY_GAIN = 12.0
LOCAL_KEY_GAIN = 12.0
SINK_KEY_GAIN = 8.0
SINK_QUERY_GAIN = 2.0
NOISE_SCALE = 0.1
VALUE_SCALE = 0.125
# Most threads that draw the generator's streams at once, never more than
# the CPUs this process may run on.  numpy releases the GIL while it fills a
# block with normals: two streams on two threads drew 7.5-8.5 ns a normal,
# one after the other 13-17 ns (2-core x86 host, numpy 2.4).  Each thread
# adds its stream's temporaries to the peak: at 16K the traced peak was the
# workload plus 2.63 float64 (L, d) arrays with one thread, 2.86 with two,
# 3.24-3.25 with three and 3.37-3.51 with four, and the generator tests hold
# it under 3, so more threads on a larger host would not pass.
GEN_WORKERS = 2


def _gen_workers() -> int:
    return min(GEN_WORKERS, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class WorkloadSpec(Record):
    """The settable knobs of the planted-structure generator: stream
    lengths, needle placement, which heads are planted retrieval heads,
    and the probes.  Its gains are the module constants above."""

    seq_len: int = 2048
    decode_len: int = 128
    pre_start: int = 8
    post_start: int = -1          # -1: auto, trailing with room for probes
    planted_retrieval_heads: tuple[int, ...] = (2, 9)
    include_probes: bool = True
    probe_head: int = 2
    diffuse_support: int = 1000


@dataclass(frozen=True)
class ProbeAnnotation(Record):
    kind: str                     # "concentrated" | "diffuse"
    head: int
    position: int
    support: tuple[int, ...]


@dataclass(frozen=True)
class WorkloadAnnotations(Record):
    planted_retrieval_heads: tuple[int, ...]
    planted_local_heads: tuple[int, ...]
    n_pre: tuple[int, ...]
    n_post: tuple[int, ...]
    probes: tuple[ProbeAnnotation, ...]


@dataclass
class Workload:
    """Generated streams: queries per (layer, q_head), keys/values per
    (layer, kv_head), all pre-rotation, float32, plus ground-truth notes."""

    geometry: ModelGeometry
    spec: WorkloadSpec
    seed: int
    queries: np.ndarray    # (n_layers, n_q_heads, seq_len, head_dim)
    keys_pre: np.ndarray   # (n_layers, n_kv_heads, seq_len, head_dim)
    values: np.ndarray     # (n_layers, n_kv_heads, seq_len, head_dim)
    annotations: WorkloadAnnotations

    @property
    def seq_len(self) -> int:
        return self.queries.shape[2]

    @property
    def prefill_len(self) -> int:
        return self.seq_len - self.spec.decode_len

    @staticmethod
    def load(stem: str | Path) -> "Workload":
        """Read a saved workload back, its tensors mapped from the payload.
        Missing meta keys or tensors, needle spans that are empty, overlap,
        come out of order or leave the stream, or a tensor whose shape
        disagrees with the recorded geometry and spec, raise ArgumentError."""
        tensors, meta = load_container(stem, "workload", ("queries", "keys_pre", "values"))
        missing = [k for k in ("seed", "geometry", "spec", "annotations") if k not in meta]
        if missing:
            raise ArgumentError(f"{stem}.json: workload meta lacks {missing}")
        if type(meta["seed"]) is not int:
            raise ArgumentError(f"{stem}.json: seed must be an int, got {meta['seed']!r}")
        geo = ModelGeometry.from_dict(meta["geometry"])
        spec = WorkloadSpec.from_dict(meta["spec"])
        annotations = WorkloadAnnotations.from_dict(meta["annotations"])
        pre, post = annotations.n_pre, annotations.n_post
        # calibration indexes its score rows with these spans
        if not (pre and post and 0 <= min(pre) and max(pre) < min(post)
                and max(post) < spec.seq_len):
            raise ArgumentError(f"{stem}.json: needle spans {pre} and {post} must be "
                                f"non-empty, disjoint and early before late in "
                                f"0..{spec.seq_len - 1}")
        kv_shape = (geo.n_layers, geo.n_kv_heads, spec.seq_len, geo.head_dim)
        shapes = {"queries": (geo.n_layers, geo.n_q_heads, spec.seq_len, geo.head_dim),
                  "keys_pre": kv_shape, "values": kv_shape}
        for name, want in shapes.items():
            got = tensors[name]
            if got.shape != want or got.dtype != np.float32:
                raise ArgumentError(f"{stem}: tensor {name!r} is {got.dtype}{got.shape}, "
                                    f"expected float32{want}")
        return Workload(geo, spec, meta["seed"], tensors["queries"],
                        tensors["keys_pre"], tensors["values"], annotations)


def default_workload_geometry(**overrides) -> ModelGeometry:
    """ModelGeometry's desk-scale defaults with `overrides` applied."""
    return ModelGeometry(**overrides)


def _resolve_layout(spec: WorkloadSpec, geometry: ModelGeometry) -> tuple[int, int, list[int]]:
    """Validate needle/probe placement; returns (pre_start, post_start,
    probe positions)."""
    L, nl = spec.seq_len, NEEDLE_LEN
    n_probes = 2 if spec.include_probes else 0
    post = spec.post_start
    if post < 0:
        post = L - nl - n_probes
    if spec.pre_start < 0 or spec.pre_start + nl > post:
        raise ArgumentError("needle spans overlap or are out of order")
    if post + nl + n_probes > L:
        raise ArgumentError("needle span exceeds sequence length")
    content_dim = geometry.head_dim - content_band(geometry.head_dim).start
    if nl > content_dim:
        raise ArgumentError(
            f"needle length {nl} exceeds the {content_dim}-dim content band"
        )
    probe_positions = list(range(L - n_probes, L))
    for h in spec.planted_retrieval_heads:
        if not (0 <= h < geometry.n_q_heads):
            raise ArgumentError(f"planted retrieval head {h} out of range")
    if spec.include_probes and spec.probe_head not in spec.planted_retrieval_heads:
        raise ArgumentError("probe_head must be a planted retrieval head")
    if not (0 < spec.decode_len < L):
        raise ArgumentError("decode_len must lie in (0, seq_len)")
    return spec.pre_start, post, probe_positions


def _unit_walks(rngs: list[np.random.Generator], n_steps: int, dim: int, rho: float) -> np.ndarray:
    """Unit-norm correlated walks, one per rng: corr(w_t, w_s) ~ rho^|t-s|.
    Returns (n_steps, len(rngs), dim); walk g is [:, g].

    Each rng draws its n_steps + 1 noise rows in row_blocks, which leaves it
    where one draw per step would and yields the same rows; each step then
    updates every walk's row in place.  A step is drift * noise + rho * w
    divided by sqrt(w . w), the dot a stacked matmul: the roundings of the
    per-step form with np.linalg.norm, so each walk is bit-identical to it."""
    walk = np.empty((n_steps + 1, len(rngs), dim))
    for g, rng in enumerate(rngs):
        for r in row_blocks(n_steps + 1):
            walk[r, g] = rng.normal(size=(r.stop - r.start, dim))
    walk[1:] *= np.sqrt(max(1.0 - rho * rho, 0.0))
    # Step t's rows as (G, 1, dim) and (G, dim, 1) views: row @ col is each
    # walk's (1, 1) dot.
    rows, cols = walk[:, :, None, :], walk[:, :, :, None]
    w = rows[0]
    w /= np.sqrt(w @ cols[0])
    for row, col in zip(rows[1:n_steps], cols[1:n_steps]):
        row += rho * w
        row /= np.sqrt(row @ col)
        w = row
    return walk[:n_steps]


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    m = rng.normal(size=(n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# The geometry fields gen_synthetic_workload reads: geometries equal on
# these give the same streams, bit for bit, whatever their other fields.
GENERATOR_FIELDS = ("n_layers", "n_q_heads", "n_kv_heads", "head_dim", "window", "n_sinks")


def gen_synthetic_workload(spec: WorkloadSpec, seed: int,
                           geometry: ModelGeometry | None = None,
                           stem: str | Path | None = None) -> Workload:
    """Deterministic planted-structure workload; see the module docstring.

    Without `stem` the streams fill arrays held in memory.  With it, each
    finished row block is written to the container stem.json/.bin as it is
    made (a ContainerWriter, renamed into place once every stream is in),
    and the workload returned maps that file (Workload.load); the file has
    the bytes the arrays would hold.  A failure leaves no new file in
    place."""
    # Imported here, not with the module: they load logging, and every CLI
    # start imports this module; a cli-32k set-up (one `--help` start) took
    # 0.37 -> 0.46 s with them at the top (medians of 10 runs).
    import queue
    from concurrent.futures import ThreadPoolExecutor

    geo = geometry if geometry is not None else default_workload_geometry()
    if geo.head_dim < 16:
        raise ArgumentError("generator needs head_dim >= 16 for its sub-bands")
    pre, post, probe_positions = _resolve_layout(spec, geo)
    L, d, nl = spec.seq_len, geo.head_dim, NEEDLE_LEN
    loc, con = local_band(d), content_band(d)
    loc_dim, con_dim = loc.stop - loc.start, con.stop - con.start

    # Reserved content vectors: needle contents are exactly orthonormal,
    # probe contents and the background pool are random units.
    rng_emb = derive_rng(seed, "workload-embeddings")
    needle_embs = np.linalg.qr(rng_emb.normal(size=(con_dim, con_dim)))[0].T[:nl]
    probe_emb = dict(zip(("concentrated", "diffuse"), _unit_rows(rng_emb, 2, con_dim)))
    bg_embs = _unit_rows(rng_emb, N_CONTENT, con_dim)

    rng_support = derive_rng(seed, "workload-probe-support")
    probes: list[ProbeAnnotation] = []
    if spec.include_probes:
        # Needle rows and their successor keys carry strong reserved content
        # that is not orthogonal to the probe vectors; keep them out of the
        # probe supports so support scores stay near-equal.
        pool = np.arange(1, pre + nl + (post - pre - nl) // 2)
        pool = pool[~np.isin(pool, np.r_[pre : pre + nl + 1, post : post + nl + 1])]
        need = CONCENTRATED_SUPPORT + spec.diffuse_support
        if need > pool.size:
            raise ArgumentError("probe supports exceed available early positions")
        picks = rng_support.choice(pool, size=need, replace=False)
        probes = [ProbeAnnotation(kind, spec.probe_head, position, tuple(np.sort(rows).tolist()))
                  for kind, position, rows in zip(("concentrated", "diffuse"), probe_positions,
                                                  np.split(picks, [CONCENTRATED_SUPPORT]))]

    rho = float(np.exp(np.log(0.02) / geo.window))
    sink_dir = np.zeros(loc_dim)
    sink_dir[0] = 1.0  # fixed direction inside the locality band

    # One content table: ids below N_CONTENT name background contents, id
    # N_CONTENT + i needle slot i; key_amp is each id's induction-key gain.
    embs = np.concatenate([bg_embs, needle_embs])
    key_amp = np.repeat([BG_KEY_SCALE, NEEDLE_KEY_SCALE], [N_CONTENT, nl])[:, None]
    needle = np.r_[pre : pre + nl, post : post + nl]
    supports = [(np.asarray(p.support), PROBE_KEY_SCALE * probe_emb[p.kind]) for p in probes]
    planted_local = tuple(
        h for h in range(geo.n_q_heads) if h not in spec.planted_retrieval_heads
    )
    retrieval = sorted(set(spec.planted_retrieval_heads))
    ann = WorkloadAnnotations(
        planted_retrieval_heads=tuple(sorted(spec.planted_retrieval_heads)),
        planted_local_heads=planted_local,
        n_pre=tuple(range(pre, pre + nl)),
        n_post=tuple(range(post, post + nl)),
        probes=tuple(probes),
    )

    # Every stream is handed over a block of rows at a time: put(name,
    # (layer, head, first row), rows) writes the rows where they belong.
    kv_shape = (geo.n_layers, geo.n_kv_heads, L, d)
    shapes = {"queries": (geo.n_layers, geo.n_q_heads, L, d),
              "keys_pre": kv_shape, "values": kv_shape}
    if stem is None:
        arrays = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}

        def put(name: str, at: tuple[int, int, int], rows: np.ndarray) -> None:
            layer, head, a = at
            arrays[name][layer, head, a : a + len(rows)] = rows

        sink = contextlib.nullcontext()
    else:
        sink = ContainerWriter(stem, {name: ("<f4", shape) for name, shape in shapes.items()})
        put = sink.write

    # Each stream is one task on a pool of _gen_workers() threads.  A task
    # draws and finishes its noise one row_blocks block at a time in a row
    # buffer (the bits and rng state of one normal(size=(L, d)) * s draw) and
    # hands each finished block to `put`, which stores it as f32, so every
    # stream has the bytes of the one-thread form.  This thread allocates
    # the buffers, one per worker, and lends each to one task at a time; so
    # too a retrieval head's content band and f32 rows.  Memory freed on a
    # worker stays in that thread's heap: row buffers the tasks allocated
    # themselves left 4 MiB more resident after an 8K or 32K workload, and
    # worker-made bands raised decode-8k-exact's peak from 131.8 to 133.4
    # MiB (128.5 with no pool).
    blocks = [(r.start, r.stop) for r in row_blocks(L)]
    workers = _gen_workers()

    def lender(shape: tuple[int, ...], n: int, dtype=np.float64) -> queue.SimpleQueue:
        store = queue.SimpleQueue()
        for _ in range(n):
            store.put(np.empty(shape, dtype))
        return store

    row_bufs = lender((blocks[-1][1] - blocks[-1][0], d), workers)  # the longest

    def noise(buf: np.ndarray, rng: np.random.Generator, a: int, b: int,
              scale: float) -> np.ndarray:
        return np.multiply(rng.standard_normal(out=buf[: b - a]), scale, out=buf[: b - a])

    def kv_group(buf, layer, g, rng_kv, walk, ids):
        # Content id of each position: a background draw, or a needle slot.
        ids[g] = g_ids = rng_kv.integers(0, N_CONTENT, size=L)
        g_ids[needle] = N_CONTENT + np.tile(np.arange(nl), 2)
        for a, b in blocks:
            k = noise(buf, rng_kv, a, b, NOISE_SCALE)
            k[:, loc] += LOCAL_KEY_GAIN * walk[a:b]
            k[: max(geo.n_sinks - a, 0), loc] += SINK_KEY_GAIN * sink_dir
            # Induction keys: position j carries token j-1's content.
            prev = g_ids[max(a, 1) - 1 : b - 1]
            k[b - a - prev.size :, con] += key_amp[prev] * embs[prev]
            for rows, vec in supports:
                k[rows[(rows >= a) & (rows < b)] - a, con] += vec
            put("keys_pre", (layer, g, a), k)
        for a, b in blocks:
            put("values", (layer, g, a), noise(buf, rng_kv, a, b, VALUE_SCALE))

    def local_head(buf, layer, h, walk):
        rng_h = derive_rng(seed, f"workload-L{layer}-q{h}")
        for a, b in blocks:
            q = noise(buf, rng_h, a, b, NOISE_SCALE)
            q[:, loc] += LOCAL_QUERY_GAIN * walk[a:b]
            q[:, loc] += SINK_QUERY_GAIN * sink_dir
            put("queries", (layer, h, a), q)

    def retrieval_head(buf, content, rows32, layer, h, h_ids):
        rng_h = derive_rng(seed, f"workload-L{layer}-q{h}")
        # The seek draws follow the noise in the stream, so only the
        # content band stays f64 until its seek rows are added; the rows
        # wait in f32 and are handed over once the band lands in them.
        for a, b in blocks:
            q = noise(buf, rng_h, a, b, NOISE_SCALE)
            content[a:b] = q[:, con]
            rows32[a:b] = q
        # Background positions go looking for the successor of a
        # random earlier token with probability bg_seek_prob.
        seek = rng_h.random(L) < BG_SEEK_PROB
        targets = rng_h.integers(1, np.maximum(np.arange(L), 1) + 1)
        seek[:2] = False
        for a, b in blocks:
            rows = a + np.flatnonzero(seek[a:b])
            content[rows] += RETRIEVAL_QUERY_GAIN * embs[h_ids[targets[rows] - 1]]
        # Needle rows always seek their own slot's content.
        content[needle] = RETRIEVAL_QUERY_GAIN * embs[h_ids[needle]]
        for p in probes:
            if p.head == h:
                content[p.position] = RETRIEVAL_QUERY_GAIN * probe_emb[p.kind]
        rows32[:, con] = content
        put("queries", (layer, h, 0), rows32)

    def lent(stores, task, *args):
        """task(*bufs, *args), one buffer borrowed from each store for the
        call; returned even when the task raises, so no later task waits."""
        bufs = [store.get() for store in stores]
        try:
            task(*bufs, *args)
        finally:
            for store, buf in zip(stores, bufs):
                store.put(buf)

    def run_all(pool, stores, calls) -> None:
        """Run every (task, *args) on the pool and wait for each; a task's
        exception is raised here as it was (the pool's exit waits for the
        tasks still running)."""
        for f in [pool.submit(lent, stores, *call) for call in calls]:
            f.result()

    with sink, ThreadPoolExecutor(workers) as pool:
        for layer in range(geo.n_layers):
            # Phases: this thread steps the walks, whose recurrence is
            # serial; the pool writes each KV group's ids, keys and values
            # and each local head's queries; the walks are freed; the pool
            # writes each retrieval head's queries from the finished ids.
            rngs = [derive_rng(seed, f"workload-L{layer}-kv{g}") for g in range(geo.n_kv_heads)]
            walks = _unit_walks(rngs, L, loc_dim, rho)
            ids: list[np.ndarray | None] = [None] * geo.n_kv_heads
            run_all(pool, [row_bufs],
                    [*((kv_group, layer, g, rng, walks[:, g], ids)
                       for g, rng in enumerate(rngs)),
                     *((local_head, layer, h, walks[:, qhead_to_kvhead(geo, h)])
                       for h in planted_local)])
            # Retrieval heads read no walk; freed first, the walks are never
            # resident next to the content bands and rows those heads keep,
            # nor those next to the next layer's walks.
            del walks
            n_bands = min(workers, len(retrieval))
            bands, head_rows = lender((L, con_dim), n_bands), lender((L, d), n_bands, np.float32)
            run_all(pool, [row_bufs, bands, head_rows],
                    [(retrieval_head, layer, h, ids[qhead_to_kvhead(geo, h)])
                     for h in retrieval])
            del bands, head_rows
        if stem is None:
            return Workload(geo, spec, int(seed), arrays["queries"], arrays["keys_pre"],
                            arrays["values"], ann)
        sink.commit({"kind": "workload", "seed": int(seed), "geometry": geo.to_dict(),
                     "spec": spec.to_dict(), "annotations": ann.to_dict()})
    return Workload.load(stem)


def build_cache(workload: Workload, layer: int, kv_head: int) -> KVCacheHead:
    """Bulk-load one KV head's full stream into a cache (no truncation)."""
    return build_cache_prefix(workload, layer, kv_head, workload.seq_len)


def build_cache_prefix(workload: Workload, layer: int, kv_head: int, n_tokens: int,
                       table: RopeTable | None = None) -> KVCacheHead:
    """Bulk-load the first n_tokens of one KV head's stream into a stream
    cache sized for the whole stream: it turns and keeps the keys, and
    reads the values in place from workload.values[layer, kv_head], so
    appends take the stream's later rows.  `table`, if given, is
    rope_table(0..n_tokens-1) shared by a caller that builds several heads,
    and without it each rotation block computes its own cos/sin rows."""
    if not (0 <= layer < workload.geometry.n_layers):
        raise ArgumentError(f"layer {layer} out of range")
    if not (0 <= kv_head < workload.geometry.n_kv_heads):
        raise ArgumentError(f"kv_head {kv_head} out of range")
    if not (0 < n_tokens <= workload.seq_len):
        raise ArgumentError("n_tokens out of range")
    cache = KVCacheHead(workload.geometry.rope, capacity=workload.seq_len,
                        values=workload.values[layer, kv_head])
    cache.extend(workload.keys_pre[layer, kv_head, :n_tokens], None, np.arange(n_tokens), table)
    return cache
