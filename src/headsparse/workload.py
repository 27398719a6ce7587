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

The generator also writes each key turned at its own position (keys_post),
as a model writes its post-rotation keys into its KV cache once; every
later stage reads those rows, and only queries turn downstream.  A query is
read only at its own step and never cached, so the workload keeps only the
query rows some stage reads (QueryRows): each head's decode span,
post-needle span, probes and stage-1 rows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import ContainerWriter, load_container
from .errors import ArgumentError, InternalError
from .numerics import softmax
from .record import Record
from .rope import RopeParams, rope_apply, rope_rotate, rope_rotate_many, rope_table, row_blocks
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

    Keeps the positions, the float32 post-rotation keys and the values, all
    that attention reads.  Keys arrive rotated, as the workload's keys_post
    holds them, and are stored as given, rounded to float32: no cache turns
    a key.  Decode's `attend` reads the float32 rows as they are.  Caches
    belong to decode: calibration, stage 1 and the float64 oracle score the
    workload's keys_post with no cache and no values.  The pre-rotation
    keys are not kept: the indexer's ProjectedKeyCache is extended with the
    workload's keys_pre rows by whoever appends the same tokens here.

    The rows are stored one of two ways, fixed at construction.  By
    default the cache owns float32 copies of the key and value rows it is
    given: 8 + 8 * head_dim bytes a row (520 at head_dim 64).  Given
    `stream`, the float32 (keys_post, values) rows of a whole stream (such
    as workload.keys_post[layer, g] and workload.values[layer, g],
    `capacity` rows each), the cache reads both in place through read-only
    views and never writes them (a mapped workload is a copy-on-write map,
    so a write would copy its pages); it owns only its positions, 8 bytes a
    row.  Row i of such a stream cache is token i: positions continue 0, 1,
    ..., and append and extend take key and value rows only to check them.
    None stands for the stream's own rows, and any other rows raise
    ArgumentError, so the cache never attends over rows it was not given.

    With `groups`, the cache stacks that many KV groups over one positions
    vector: keys_post and values are (groups, n, head_dim), and append and
    extend take each group's rows at once.
    """

    def __init__(self, rope: RopeParams, capacity: int, groups: int | None = None,
                 stream: tuple[np.ndarray, np.ndarray] | None = None):
        self.rope = rope
        self._lead = () if groups is None else (groups,)
        self._n = 0
        self._positions = np.empty(capacity, np.int64)
        shape = (*self._lead, capacity, rope.head_dim)
        self._stream = stream is not None
        if stream is None:
            self._keys_post = np.empty(shape, np.float32)
            self._values = np.empty_like(self._keys_post)
            return
        for rows in stream:
            if rows.shape != shape or rows.dtype != np.float32:
                raise ArgumentError(f"stream rows must be float32{shape}, "
                                    f"got {rows.dtype}{rows.shape}")
        self._keys_post, self._values = (rows.view() for rows in stream)
        self._keys_post.flags.writeable = self._values.flags.writeable = False

    def __len__(self) -> int:
        return self._n

    def _grow(self, need: int) -> None:
        """Check that `need` rows fit; LocalWindow moves its rows instead."""
        if need > len(self._positions):
            raise InternalError(f"{need} rows for a cache of {len(self._positions)}")

    def _rows(self, rows, shape: tuple[int, ...]) -> np.ndarray | None:
        """Key or value rows as float32 of `shape`; None only for a stream
        cache."""
        if rows is None and self._stream:
            return None
        rows = np.asarray(rows, np.float32)
        if rows.shape != shape:
            raise ArgumentError(f"keys and values must be {shape}")
        return rows

    def _check_stream(self, pos: np.ndarray, keys: np.ndarray | None,
                      values: np.ndarray | None) -> None:
        """On a stream cache, positions `pos` must be its next rows' tokens
        and the rows given, if any, the stream's rows there."""
        n0, n1 = self._n, self._n + pos.size
        if pos[0] != n0 or pos[-1] != n1 - 1 or any(
                rows is not None and not np.array_equal(rows, mine[..., n0:n1, :])
                for rows, mine in ((keys, self._keys_post), (values, self._values))):
            raise ArgumentError(f"a stream cache's next rows are tokens {n0}..{n1 - 1} "
                                f"with the stream's keys and values")

    def append(self, key_post: np.ndarray | None, value: np.ndarray | None,
               position: int) -> None:
        """One token: extend's checks and rounding, written straight into
        row n without going through the batch form.  A stacked cache takes
        (groups, head_dim) rows."""
        row = (*self._lead, self.rope.head_dim)
        kp, va = self._rows(key_post, row), self._rows(value, row)
        position = int(position)
        if position < 0 or (self._n and position <= self._positions[self._n - 1]):
            raise ArgumentError("positions must be strictly increasing and non-negative")
        if self._stream:
            self._check_stream(np.array([position]),
                               *(None if r is None else r[..., None, :] for r in (kp, va)))
        self._grow(self._n + 1)
        n = self._n
        self._positions[n] = position
        if not self._stream:
            self._keys_post[..., n, :] = kp
            self._values[..., n, :] = va
        self._n = n + 1

    def extend(self, keys_post: np.ndarray | None, values: np.ndarray | None,
               positions: np.ndarray) -> None:
        """Batch append of (n, head_dim) rows, (groups, n, head_dim) if
        stacked, each rounded to float32 once."""
        pos = np.asarray(positions, np.int64)
        if pos.ndim != 1:
            raise ArgumentError("positions must be a vector, one per row")
        rows = (*self._lead, pos.size, self.rope.head_dim)
        kp, va = self._rows(keys_post, rows), self._rows(values, rows)
        if pos.size == 0:
            return
        prev = self._positions[self._n - 1] if self._n else -1
        if pos[0] <= prev or np.any(pos[1:] <= pos[:-1]) or pos[0] < 0:
            raise ArgumentError("positions must be strictly increasing and non-negative")
        if self._stream:
            self._check_stream(pos, kp, va)
        self._grow(self._n + pos.size)
        n0, n1 = self._n, self._n + pos.size
        self._positions[n0:n1] = pos
        if not self._stream:
            self._keys_post[..., n0:n1, :] = kp
            self._values[..., n0:n1, :] = va
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


def _oracle_scores(q_rot: np.ndarray, keys: np.ndarray, scale: float,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Scaled float64 scores of rotated (B, d) queries against every row of
    the rotated keys, widened one block at a time, written to `out` if
    given."""
    scores = np.empty((len(q_rot), len(keys))) if out is None else out
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
                  rope: RopeParams, scale: float | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The one causal-score kernel: scaled post-rotation scores of (B, d)
    queries at `positions` against keys_post, the rotated keys of tokens
    0, 1, ... (row j is token j), up to the largest position, or against
    the first m keys into `out`, a (B, m) float64 array that reaches every
    position.  Row i's entries past positions[i] are -inf, so softmax gives
    them weight exactly 0.  `scale` defaults to rope.scale.

    It stays float64, bit for bit the float64 product over all rows (the
    float32 keys widen one aligned block at a time), so calibration's head
    scores, stage-1's attention rows and the oracle's true masses, and the
    files written from them, do not depend on the keys' storage type.  A
    one-row call (one gemv, as dense_row_scores makes) keeps its bits only
    at a fixed BLAS thread count, since multi-threaded OpenBLAS splits a
    gemv by thread count."""
    pos = np.asarray(positions, np.int64)
    if pos.ndim != 1 or pos.size == 0 or np.shape(queries_pre) != (pos.size, rope.head_dim):
        raise ArgumentError("queries must be (B, head_dim), one position per row")
    if np.ndim(keys_post) != 2 or np.shape(keys_post)[1] != rope.head_dim:
        raise ArgumentError(f"keys must be (n, {rope.head_dim}), got {np.shape(keys_post)}")
    if not 0 <= pos.min() <= pos.max() < len(keys_post):
        raise ArgumentError(f"positions must lie in [0, {len(keys_post)}), the keys' rows")
    n = int(pos.max()) + 1 if out is None else out.shape[-1]
    if out is not None and (out.shape != (pos.size, n) or not pos.max() < n <= len(keys_post)):
        raise ArgumentError(f"output of shape {out.shape} for {pos.size} rows "
                            f"reaching position {pos.max()} of {len(keys_post)} keys")
    if scale is None:
        scale = rope.scale
    scores = _oracle_scores(rope_rotate_many(queries_pre, pos, rope), keys_post[:n], scale, out)
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
# adds its stream's temporaries to the peak: at 16K the traced peak (the
# payload is written to its file and mapped, so not traced) was 2.63 float64
# (L, d) arrays with one thread, 2.86 with two, 3.23-3.40 with three and
# 3.49-3.61 with four, and the generator tests hold it under 3, so more
# threads on a larger host would not pass.
GEN_WORKERS = 2


def _gen_workers() -> int:
    return min(GEN_WORKERS, len(os.sched_getaffinity(0)))


# Rows per block of the generator's streams.  Each worker's row buffer
# holds a block, and a block's temporaries (its f32 cast among them) and
# the key turns' cos/sin table scale with it.  The first 16K generation in
# a fresh process, two workers, traced a peak of 2.99-3.01 float64 (L, d)
# arrays with 4,096-row blocks, at the generator tests' bound of 3, and
# 2.44-2.46 with 1,024.  Each row is drawn, finished and turned alone, so
# every block size gives the same bits.
GEN_BLOCK = 1024


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


class QueryRows:
    """The query rows a workload keeps.  A query is read only at its own
    positions, never cached, and the stages read few of them: each head's
    decode span, its post-needle span, the probes and its stage-1 rows
    (kept_query_positions).  rows[layer, h, k] is the float32 pre-rotation
    query of (layer, h) at token positions[layer, h, k].

    Read by position, queries[layer, heads, positions]: layer an int, heads
    and positions each an int or an int array.  heads and positions
    broadcast against each other as numpy's index arrays do, and each
    pair gives its (head_dim,) row, in a new array; so every head at one
    position is queries[layer, np.arange(n_q_heads), t] and a (H, P) block
    is queries[layer, heads[:, None], positions].  A position the workload
    did not keep, an index outside it, a slice, or heads and positions
    that do not broadcast raise ArgumentError, never another row."""

    def __init__(self, rows: np.ndarray, positions: np.ndarray, seq_len: int):
        self.rows, self.positions, self.seq_len = rows, positions, seq_len
        n_layers, n_heads, _ = positions.shape
        keys = self._key(np.arange(n_layers)[:, None, None], np.arange(n_heads)[:, None],
                         positions).ravel()
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]

    def _key(self, layer, head, position) -> np.ndarray:
        """One int64 key a row, ordered by layer, head, then position."""
        n_heads = self.positions.shape[1]
        return ((np.asarray(layer, np.int64) * n_heads + head) * self.seq_len
                + np.asarray(position, np.int64))

    def __getitem__(self, index) -> np.ndarray:
        layer, heads, positions = index
        n_layers, n_heads, _ = self.positions.shape
        for name, a, n in (("layer", layer, n_layers), ("head", heads, n_heads),
                           ("position", positions, self.seq_len)):
            a = np.asarray(a)
            if a.dtype.kind not in "iu":
                raise ArgumentError(f"query {name} index {index} must be an int or an "
                                    f"int array")
            if a.size and not 0 <= a.min() <= a.max() < n:
                raise ArgumentError(f"query {name} index {a.tolist()} outside [0, {n})")
        try:
            key = self._key(layer, heads, positions)
        except ValueError as e:
            raise ArgumentError(f"query heads and positions do not broadcast: {e}") from e
        at = np.minimum(np.searchsorted(self._keys, key), len(self._keys) - 1)
        missing = self._keys[at] != key
        if np.any(missing):
            lost = np.broadcast_to(positions, key.shape)[missing]
            raise ArgumentError(f"the workload keeps no query row at positions "
                                f"{sorted(set(lost.tolist()))} of those heads")
        return self.rows.reshape(-1, self.rows.shape[-1])[self._order[at]]


@dataclass
class Workload:
    """Generated streams, all float32: keys and values per (layer,
    kv_head), pre-rotation, plus each key turned at its position (keys_post,
    what a model writes into its KV cache), the query rows the stages read
    (QueryRows), and ground-truth notes.  Only queries still turn
    downstream."""

    geometry: ModelGeometry
    spec: WorkloadSpec
    seed: int
    queries: QueryRows     # read as (n_layers, n_q_heads, seq_len, head_dim)
    keys_pre: np.ndarray   # (n_layers, n_kv_heads, seq_len, head_dim)
    keys_post: np.ndarray  # keys_pre's shape, row j turned at position j
    values: np.ndarray     # (n_layers, n_kv_heads, seq_len, head_dim)
    annotations: WorkloadAnnotations

    @property
    def seq_len(self) -> int:
        return self.spec.seq_len

    @property
    def prefill_len(self) -> int:
        return self.seq_len - self.spec.decode_len

    def stage1_positions(self, layer: int, q_head: int) -> np.ndarray:
        """The positions of (layer, q_head)'s stage-1 rows, sorted: the last
        of its kept rows (kept_query_positions)."""
        n = _stage1_span(self.geometry.block_size, self.seq_len)[1]
        kept = self.queries.positions[layer, q_head]
        return np.asarray(kept[len(kept) - n :], np.int64)

    @staticmethod
    def load(stem: str | Path) -> "Workload":
        """Read a saved workload back, its tensors mapped from the payload.
        Missing meta keys, needle spans that are empty, overlap, come out of
        order or leave the stream, a missing tensor or one whose shape
        disagrees with the recorded geometry and spec, or kept query
        positions other than those of its seed, spec and geometry (such as
        a container written with full-length queries) raise ArgumentError."""
        tensors, meta = load_container(stem, "workload")
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
        positions = kept_query_positions(spec, geo, meta["seed"])
        for name, (dtype, want) in _payload_layout(geo, spec.seq_len,
                                                   positions.shape[2]).items():
            got = tensors.get(name)
            if got is None or got.shape != want or got.dtype != np.dtype(dtype):
                found = "missing" if got is None else f"{got.dtype}{got.shape}"
                raise ArgumentError(f"{stem}.json: tensor {name!r} is {found}, expected "
                                    f"{np.dtype(dtype)}{want}; run calibrate again to "
                                    f"rewrite it")
        if not np.array_equal(tensors["query_positions"], positions):
            raise ArgumentError(f"{stem}.json: the kept query positions are not those of its "
                                f"seed, spec and geometry; run calibrate again to rewrite it")
        return Workload(geo, spec, meta["seed"],
                        QueryRows(tensors["queries"], tensors["query_positions"], spec.seq_len),
                        tensors["keys_pre"], tensors["keys_post"], tensors["values"],
                        annotations)


# The payload's tensors, in file order, each of _payload_layout's dtype and
# shape: the kept query rows and their positions, then the KV streams.
PAYLOAD = ("queries", "query_positions", "keys_pre", "keys_post", "values")


def _payload_layout(geo: ModelGeometry, seq_len: int, n_kept: int
                    ) -> dict[str, tuple[str, tuple[int, ...]]]:
    kv = ("<f4", (geo.n_layers, geo.n_kv_heads, seq_len, geo.head_dim))
    return {"queries": ("<f4", (geo.n_layers, geo.n_q_heads, n_kept, geo.head_dim)),
            "query_positions": ("<i4", (geo.n_layers, geo.n_q_heads, n_kept)),
            "keys_pre": kv, "keys_post": kv, "values": kv}


# Stage-1 rows a head (indexer.build_stage1_dataset).
STAGE1_ROWS = 128


def _stage1_span(block_size: int, seq_len: int) -> tuple[np.ndarray, int]:
    """The positions stage-1 rows are drawn from, [4 * block_size, seq_len),
    and how many are drawn."""
    span = np.arange(4 * block_size, seq_len)
    return span, min(STAGE1_ROWS, span.size)


def _draw_stage1_positions(seed: int, block_size: int, seq_len: int, layer: int,
                           q_head: int) -> np.ndarray:
    """One head's stage-1 positions: distinct positions of _stage1_span
    drawn by the head's own stream, sorted; none if the span is empty."""
    span, n = _stage1_span(block_size, seq_len)
    rng = derive_rng(seed, f"stage1-data-L{layer}H{q_head}")
    return np.sort(rng.choice(span, size=n, replace=False))


def kept_query_positions(spec: WorkloadSpec, geometry: ModelGeometry, seed: int) -> np.ndarray:
    """(n_layers, n_q_heads, K) positions of the query rows a workload
    keeps: for each head, the positions every head shares, sorted (the
    decode span, the post-needle span and the probes), then the head's
    stage-1 positions.  A position in both is kept twice, so K is the same
    for every head."""
    _, post, probe_positions = _resolve_layout(spec, geometry)
    L = spec.seq_len
    # a mask, not np.unique, which imports numpy.ma into the generator's
    # traced peak on a first call (1 MiB, 0.12 of a float64 (L, d) array at 16K)
    shared = np.zeros(L, bool)
    shared[np.r_[L - spec.decode_len : L, post : post + NEEDLE_LEN,
                 probe_positions].astype(np.int64)] = True
    shared = np.flatnonzero(shared)
    return np.array([[np.concatenate([shared, _draw_stage1_positions(seed, geometry.block_size,
                                                                      L, layer, h)])
                      for h in range(geometry.n_q_heads)]
                     for layer in range(geometry.n_layers)], np.int64)


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
GENERATOR_FIELDS = ("n_layers", "n_q_heads", "n_kv_heads", "head_dim", "rope_base", "window",
                    "n_sinks", "block_size")


def gen_synthetic_workload(spec: WorkloadSpec, seed: int,
                           geometry: ModelGeometry | None = None,
                           stem: str | Path | None = None) -> Workload:
    """Deterministic planted-structure workload; see the module docstring.
    keys_post holds each float32 key row turned by rope_apply at its
    position under the geometry's rope_base.  Every query stream is drawn
    whole, so each rng stream advances as it would for full-length
    queries, but only the rows of kept_query_positions are finished and
    written, with the bytes they would have there.

    Each finished row block is written to the container stem.json/.bin as
    it is made (a ContainerWriter, renamed into place once every stream is
    in), and the workload returned maps that file (Workload.load), so rows
    no caller reads never become resident.  Without `stem` the container
    is written in a fresh directory, removed before the return (the map
    outlives the unlinked file), under tempfile.tempdir if set, else under
    $TMPDIR as given (gettempdir() would skip one it cannot use), else
    under gettempdir().  That directory needs the payload's size free:
    97 MiB at 32K tokens of the default geometry, 385 MiB at 128K.  The
    mapped bytes stay out of the process's anonymous memory, not out of the
    page cache, which cgroup accounting charges; on a disk-backed $TMPDIR
    the kernel can reclaim those pages, on a tmpfs it cannot.  A failure leaves no new
    file in place, and a temporary directory that cannot be made or
    written raises ArgumentError."""
    # Imported here, not with the module: the pool's modules load logging,
    # and every CLI start imports this module; a cli-32k set-up (one
    # `--help` start) took 0.37 -> 0.46 s with them at the top (medians of
    # 10 runs).
    import queue
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    if stem is None:
        try:
            scratch = tempfile.TemporaryDirectory(
                dir=tempfile.tempdir or os.environ.get("TMPDIR") or None)
        except OSError as e:
            raise ArgumentError(f"cannot make a temporary directory for the workload: "
                                f"{e}") from e
        with scratch as tmp:
            return gen_synthetic_workload(spec, seed, geometry, Path(tmp) / "workload")

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

    # Every stream is handed over a block of rows at a time:
    # sink.write(name, (layer, head, first row), rows) writes the rows where
    # they belong in the payload.
    kept = kept_query_positions(spec, geo, seed)
    sink = ContainerWriter(stem, _payload_layout(geo, L, kept.shape[2]))
    sink.write("query_positions", (0,), kept)

    # Each stream is one task on a pool of _gen_workers() threads.  A task
    # draws its noise a block of rows at a time in a row buffer (the bits
    # and rng state of one normal(size=(L, d)) * s draw, however it is
    # blocked).  A KV task finishes each GEN_BLOCK block and hands it to
    # sink.write, which stores it as f32, so every stream has the bytes of
    # the one-thread form; a query task draws into the buffer's first rows,
    # copies its K kept rows into the last K, finishes those there and
    # writes them at once, so it holds no memory past its buffer.  This
    # thread allocates the buffers, one per worker, and lends each to one
    # task at a time.  Memory freed on a worker stays in that thread's heap:
    # row buffers the tasks allocated themselves left 4 MiB more resident
    # after an 8K or 32K workload.
    blocks = [(r.start, r.stop) for r in row_blocks(L, GEN_BLOCK)]
    n_kept = kept.shape[2]
    workers = _gen_workers()
    row_bufs = queue.SimpleQueue()
    for _ in range(workers):
        # the longest block, and room for the kept rows past a draw block
        row_bufs.put(np.empty((max(blocks[-1][1] - blocks[-1][0], 2 * n_kept), d)))

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
            sink.write("keys_pre", (layer, g, a), k)
        for a, b in blocks:
            sink.write("values", (layer, g, a), noise(buf, rng_kv, a, b, VALUE_SCALE))

    def turn_keys(layer):
        # Each block of rows of every KV group of the layer, read back from
        # the payload as float32 and turned by one cos/sin table.
        for a, b in blocks:
            pos = np.arange(a, b)
            table = rope_table(pos, geo.rope)
            for g in range(geo.n_kv_heads):
                keys = sink.read("keys_pre", (layer, g, a), b - a)
                sink.write("keys_post", (layer, g, a), rope_apply(keys, pos, geo.rope, table))

    def kept_noise(buf, rng_h, pos):
        # Every noise row of the stream drawn in buf's first rows, the one
        # at pos[k] copied to row k of the last n_kept rows, returned.
        n = len(buf) - n_kept
        q = buf[n:]
        order = np.argsort(pos, kind="stable")
        at = pos[order]
        for a in range(0, L, n):
            b = min(a + n, L)
            rows = noise(buf, rng_h, a, b, NOISE_SCALE)
            i, j = np.searchsorted(at, (a, b))
            q[order[i:j]] = rows[at[i:j] - a]
        return q

    def local_head(buf, layer, h, walk):
        pos = kept[layer, h]
        q = kept_noise(buf, derive_rng(seed, f"workload-L{layer}-q{h}"), pos)
        q[:, loc] += LOCAL_QUERY_GAIN * walk[pos]
        q[:, loc] += SINK_QUERY_GAIN * sink_dir
        sink.write("queries", (layer, h, 0), q)

    def retrieval_head(buf, layer, h, h_ids):
        rng_h = derive_rng(seed, f"workload-L{layer}-q{h}")
        pos = kept[layer, h]
        q = kept_noise(buf, rng_h, pos)
        content = q[:, con]
        # Background positions go looking for the successor of a
        # random earlier token with probability bg_seek_prob; the seek
        # draws follow the noise in the stream.
        seek = rng_h.random(L) < BG_SEEK_PROB
        targets = rng_h.integers(1, np.maximum(np.arange(L), 1) + 1)
        seek[:2] = False
        rows = np.flatnonzero(seek[pos])
        content[rows] += RETRIEVAL_QUERY_GAIN * embs[h_ids[targets[pos[rows]] - 1]]
        # Needle rows always seek their own slot's content.
        rows = np.isin(pos, needle)
        content[rows] = RETRIEVAL_QUERY_GAIN * embs[h_ids[pos[rows]]]
        for p in probes:
            if p.head == h:
                content[pos == p.position] = RETRIEVAL_QUERY_GAIN * probe_emb[p.kind]
        sink.write("queries", (layer, h, 0), q)

    def lent(task, *args):
        """task(buf, *args), a row buffer borrowed for the call; returned
        even when the task raises, so no later task waits."""
        buf = row_bufs.get()
        try:
            task(buf, *args)
        finally:
            row_bufs.put(buf)

    def run_all(pool, calls, meanwhile=lambda: None) -> None:
        """Run every (task, *args) on the pool, and meanwhile() on this
        thread, then wait for each task; a task's exception is raised here
        as it was (the pool's exit waits for the tasks still running)."""
        futures = [pool.submit(lent, *call) for call in calls]
        meanwhile()
        for f in futures:
            f.result()

    with sink, ThreadPoolExecutor(workers) as pool:
        for layer in range(geo.n_layers):
            # Phases: this thread steps the walks, whose recurrence is
            # serial; the pool writes each KV group's ids, keys and values
            # and each local head's queries; the walks are freed; the pool
            # writes each retrieval head's queries from the finished ids
            # while this thread turns the finished keys.  Turned on the
            # pool, one block a task, the keys' temporaries stayed in the
            # workers' heaps: 13 MiB more anonymous memory after a 128K
            # workload, and a 12 MiB higher 128K decode peak (seed 0, one
            # BLAS thread, perfbench's set-up and output check).
            rngs = [derive_rng(seed, f"workload-L{layer}-kv{g}") for g in range(geo.n_kv_heads)]
            walks = _unit_walks(rngs, L, loc_dim, rho)
            ids: list[np.ndarray | None] = [None] * geo.n_kv_heads
            run_all(pool, [*((kv_group, layer, g, rng, walks[:, g], ids)
                             for g, rng in enumerate(rngs)),
                           *((local_head, layer, h, walks[:, qhead_to_kvhead(geo, h)])
                             for h in planted_local)])
            # Retrieval heads read no walk; freed first, the walks are never
            # resident next to their seek draws, nor next to the next
            # layer's walks.
            del walks
            run_all(pool, [(retrieval_head, layer, h, ids[qhead_to_kvhead(geo, h)])
                            for h in retrieval], lambda: turn_keys(layer))
        sink.commit({"kind": "workload", "seed": int(seed), "geometry": geo.to_dict(),
                     "spec": spec.to_dict(), "annotations": ann.to_dict()})
    return Workload.load(stem)


def build_cache(workload: Workload, layer: int, kv_head: int) -> KVCacheHead:
    """Bulk-load one KV head's full stream into a cache (no truncation)."""
    return build_cache_prefix(workload, layer, kv_head, workload.seq_len)


def build_cache_prefix(workload: Workload, layer: int, kv_head: int, n_tokens: int
                       ) -> KVCacheHead:
    """The first n_tokens of one KV head's stream as a stream cache sized
    for the whole stream: it reads workload.keys_post[layer, kv_head] and
    workload.values[layer, kv_head] in place and owns only its positions,
    so appends take the stream's later rows."""
    if not (0 <= layer < workload.geometry.n_layers):
        raise ArgumentError(f"layer {layer} out of range")
    if not (0 <= kv_head < workload.geometry.n_kv_heads):
        raise ArgumentError(f"kv_head {kv_head} out of range")
    if not (0 < n_tokens <= workload.seq_len):
        raise ArgumentError("n_tokens out of range")
    cache = KVCacheHead(workload.geometry.rope, capacity=workload.seq_len,
                        stream=(workload.keys_post[layer, kv_head], workload.values[layer, kv_head]))
    cache.extend(None, None, np.arange(n_tokens))
    return cache
