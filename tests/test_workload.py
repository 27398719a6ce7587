"""Geometry, cache, dense-oracle, and generator tests.

The dense oracle is cross-checked against a literal two-loop reimplementation
kept inside this file, so the production path never validates itself.
"""

import dataclasses
import errno
import json
import math
import mmap
import os
import re
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from helpers import gen_rank_teacher

import headsparse.rope as rope_module
import headsparse.workload as workload_module
from headsparse.container import save_container
from headsparse.errors import ArgumentError, InternalError
from headsparse.numerics import softmax
from headsparse.rope import ROPE_BLOCK, RopeParams, rope_apply, rope_rotate, rope_rotate_many
from headsparse.workload import (
    GENERATOR_FIELDS,
    PAYLOAD,
    AttentionRow,
    KVCacheHead,
    ModelGeometry,
    Workload,
    WorkloadAnnotations,
    WorkloadSpec,
    attend,
    build_cache,
    build_cache_prefix,
    causal_scores,
    content_band,
    default_workload_geometry,
    dense_attention,
    dense_row_scores,
    gen_synthetic_workload,
    local_band,
    qhead_to_kvhead,
)


def naive_attention(query_pre, qpos, cache, keys_pre, scale):
    """Reference: explicit per-token loops, no vectorized shortcuts; keys_pre
    are the rows whose turns the cache was filled with."""
    params = cache.rope
    scores, vals = [], []
    for t in range(len(cache)):
        pos = int(cache.positions[t])
        if pos > qpos:
            continue
        qr = rope_rotate(np.asarray(query_pre, float), qpos, params)
        kr = rope_rotate(np.float32(keys_pre[t]).astype(float), pos, params)
        scores.append(float(qr @ kr.astype(np.float32)) * scale)
        vals.append(cache.values[t].astype(float))
    ex = [math.exp(s - max(scores)) for s in scores]
    w = [e / sum(ex) for e in ex]
    out = np.zeros(params.head_dim)
    for wi, vi in zip(w, vals):
        out += wi * vi
    return np.array(w), out


def turned(keys, rope):
    """Reference keys_post: each float32 row of keys (..., n, d) turned in
    float64 at its own position 0..n-1 by one full-length angle table,
    rounded to float32."""
    k = np.asarray(keys, np.float32).astype(np.float64)
    ang = np.arange(k.shape[-2])[:, None] * rope.thetas[None, :]
    c, s = np.cos(ang), np.sin(ang)
    out = np.empty_like(k)
    out[..., 0::2] = k[..., 0::2] * c - k[..., 1::2] * s
    out[..., 1::2] = k[..., 0::2] * s + k[..., 1::2] * c
    return out.astype(np.float32)


def oracle_on_rows(queries_pre, qpos, cache, rows, scale):
    """Float64 attention of (d,) or (G, d) queries over the cache `rows` in
    any form attend takes: the float32 keys and values widened, one product
    each.  Returns (weights, output) shaped as attend's."""
    index = np.r_[rows] if isinstance(rows, tuple) else np.arange(len(cache))[rows]
    q_rot = np.atleast_2d(rope_rotate(queries_pre, qpos, cache.rope))
    weights = softmax((q_rot @ cache.keys_post[index].astype(np.float64).T) * scale)
    out = weights @ cache.values[index].astype(np.float64)
    lead = np.shape(queries_pre)[:-1]
    return weights.reshape(*lead, -1), out.reshape(*lead, -1)


class TestGeometry:
    def test_defaults(self):
        g = ModelGeometry()
        assert g == default_workload_geometry()
        assert g.rope_base == 1.0e6 and g.window == 512 and g.n_sinks == 4
        assert g.retrieval_ratio == 0.15 and g.low_dim == 16
        assert g.top_p == 0.9 and g.block_size == 64
        assert g.scale == pytest.approx(1 / 8)

    def test_divisibility_enforced(self):
        with pytest.raises(ArgumentError):
            ModelGeometry(n_q_heads=10, n_kv_heads=4)

    def test_round_trip(self):
        g = ModelGeometry(n_q_heads=8, n_kv_heads=2, rope_base=1e6)
        assert ModelGeometry.from_dict(g.to_dict()) == g

    def test_low_dim_bound(self):
        with pytest.raises(ArgumentError):
            ModelGeometry(low_dim=65)


class TestQheadToKvhead:
    def test_identity_when_equal(self):
        g = ModelGeometry(n_q_heads=8, n_kv_heads=8)
        assert qhead_to_kvhead(g, 5) == 5

    def test_grouped_examples(self):
        g = ModelGeometry(n_q_heads=32, n_kv_heads=4)
        assert qhead_to_kvhead(g, 9) == 1
        assert qhead_to_kvhead(g, 31) == 3

    def test_surjective_and_constant_on_groups(self):
        g = ModelGeometry(n_q_heads=12, n_kv_heads=3)
        mapped = [qhead_to_kvhead(g, h) for h in range(12)]
        assert set(mapped) == {0, 1, 2}
        for kv in range(3):
            assert mapped.count(kv) == g.group_size

    def test_out_of_range(self):
        g = ModelGeometry(n_q_heads=8, n_kv_heads=4)
        with pytest.raises(ArgumentError):
            qhead_to_kvhead(g, 8)


class TestKVCacheHead:
    def test_append_stores_keys_as_given(self):
        """A cache turns no key: append stores each row it is given,
        rounded to float32, whatever its position."""
        rng = np.random.default_rng(0)
        cache = KVCacheHead(RopeParams(16), capacity=40)
        keys = rng.normal(size=(40, 16))
        for t in range(40):
            cache.append(keys[t], rng.normal(size=16), t * 3)
        assert len(cache) == 40
        assert cache.keys_post.dtype == np.float32
        assert np.array_equal(cache.keys_post, keys.astype(np.float32))

    def test_mirrors_match_canonical_storage(self):
        rng = np.random.default_rng(1)
        cache = KVCacheHead(RopeParams(8), capacity=7)
        keys, vals = rng.normal(size=(7, 8)), rng.normal(size=(7, 8))
        cache.extend(keys, vals, np.arange(7))
        # float32 buffers: keys and values each rounded once, as given
        assert cache.keys_post.dtype == cache.values.dtype == np.float32
        assert np.array_equal(cache.values, vals.astype(np.float32))
        assert np.array_equal(cache.keys_post, keys.astype(np.float32))
        # the former name reads the same float32 rows, not a widened copy
        assert cache.values64.dtype == np.float32
        assert np.shares_memory(cache.values64, cache.values)

    def test_attend_returns_float64_for_every_row_form(self, monkeypatch):
        """Slices, span tuples, dense-span and gathered index arrays all come
        back as float64 weights and outputs, within 1e-6 of the float64
        oracle on the same rows."""
        rng = np.random.default_rng(2)
        cache = KVCacheHead(RopeParams(64), capacity=300)
        cache.extend(rng.normal(size=(300, 64)), rng.normal(size=(300, 64)) * 0.125,
                     np.arange(300))
        assert cache.keys_post.dtype == cache.values.dtype == np.float32
        forms = {"slice": slice(10, 200), "spans": (slice(0, 4), slice(100, 299)),
                 "dense span": np.arange(0, 299, 2), "gather": np.array([3, 50, 298])}
        assert workload_module._dense_span(forms["dense span"])
        assert not workload_module._dense_span(forms["gather"])
        for shape in ((64,), (3, 64)):
            q = rng.normal(size=shape)
            for name, rows in forms.items():
                w, out = attend(q, 299, cache, rows)
                assert w.dtype == out.dtype == np.float64, name
                w_ref, out_ref = oracle_on_rows(q, 299, cache, rows, 0.125)
                assert w.shape == w_ref.shape and out.shape == shape
                assert np.abs(out - out_ref).max() <= 1e-6, name

    def test_positions_must_increase(self):
        cache = KVCacheHead(RopeParams(4), capacity=2)
        cache.append(np.zeros(4), np.zeros(4), 5)
        with pytest.raises(ArgumentError):
            cache.append(np.zeros(4), np.zeros(4), 5)

    def test_visible_count(self):
        cache = KVCacheHead(RopeParams(4), capacity=3)
        cache.extend(np.zeros((3, 4)), np.zeros((3, 4)), np.array([0, 4, 9]))
        assert cache.visible_count(0) == 1
        assert cache.visible_count(8) == 2
        assert cache.visible_count(100) == 3

    @pytest.mark.parametrize("groups", [None, 3])
    def test_append_past_capacity(self, groups):
        """A store is sized once: the row after the last one it has room
        for is a broken invariant, and nothing is written."""
        row = (groups, 4) if groups else (4,)
        cache = KVCacheHead(RopeParams(4), capacity=3, groups=groups)
        for t in range(3):
            cache.append(np.ones(row), np.ones(row), t)
        with pytest.raises(InternalError):
            cache.append(np.ones(row), np.ones(row), 3)
        assert len(cache) == 3 and cache.positions[-1] == 2

    @pytest.mark.parametrize("groups", [None, 3])
    def test_extend_past_capacity(self, groups):
        lead = (groups,) if groups else ()
        cache = KVCacheHead(RopeParams(4), capacity=5, groups=groups)
        cache.extend(np.ones((*lead, 3, 4)), np.ones((*lead, 3, 4)), np.arange(3))
        with pytest.raises(InternalError):
            cache.extend(np.ones((*lead, 3, 4)), np.ones((*lead, 3, 4)), np.arange(3, 6))
        assert len(cache) == 3
        cache.extend(np.ones((*lead, 2, 4)), np.ones((*lead, 2, 4)), np.arange(3, 5))
        assert len(cache) == 5


def reference_buffers(keys, values, positions):
    """The cache buffers as the batch-only store wrote them, casting through
    float64: (positions, keys_post, values), both float32."""
    keys32 = np.asarray(keys, np.float64).astype(np.float32)
    values32 = np.asarray(values, np.float64).astype(np.float32)
    return np.asarray(positions, np.int64), keys32, values32


class TestCacheWritesBitIdentical:
    """append's one-row write and extend's single float32 cast store exactly
    what the float64 round trips of the batch-only store rounded to."""

    @staticmethod
    def buffers(cache):
        return cache.positions, cache.keys_post, cache.values

    @staticmethod
    def assert_identical(got, want):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_extend(self, dtype):
        rng = np.random.default_rng(20)
        rope = RopeParams(64, 1.0e6)
        keys = (rng.normal(size=(300, 64)) * 12).astype(dtype)
        vals = (rng.normal(size=(300, 64)) * 0.125).astype(dtype)
        pos = np.arange(300) * 7 + 3
        cache = KVCacheHead(rope, capacity=300)
        cache.extend(keys[:100], vals[:100], pos[:100])
        cache.extend(keys[100:], vals[100:], pos[100:])
        self.assert_identical(self.buffers(cache), reference_buffers(keys, vals, pos))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_append(self, dtype):
        rng = np.random.default_rng(21)
        rope = RopeParams(64, 1.0e6)
        keys = (rng.normal(size=(80, 64)) * 12).astype(dtype)
        vals = (rng.normal(size=(80, 64)) * 0.125).astype(dtype)
        pos = np.arange(80) * 1000 + 5
        cache = KVCacheHead(rope, capacity=80)
        cache.extend(keys[:10], vals[:10], pos[:10])
        for k, v, t in zip(keys[10:], vals[10:], pos[10:]):
            cache.append(k, v, t)
        self.assert_identical(self.buffers(cache), reference_buffers(keys, vals, pos))

    def test_append_validation(self):
        cache = KVCacheHead(RopeParams(4), capacity=1)
        with pytest.raises(ArgumentError):
            cache.append(np.zeros(4), np.zeros(4), -1)
        with pytest.raises(ArgumentError):
            cache.append(np.zeros(3), np.zeros(3), 0)
        with pytest.raises(ArgumentError):
            cache.append(np.zeros(4), np.zeros((1, 4)), 0)
        cache.append(np.zeros(4), np.zeros(4), 3)
        with pytest.raises(ArgumentError):
            cache.append(np.zeros(4), np.zeros(4), 2)
        assert len(cache) == 1


class TestStackedCache:
    """A KVCacheHead with `groups` stacks K KV groups over one positions
    vector; each group's rows have the bits of a one-group cache fed the
    same rows, through extend and append."""

    K = 3

    def test_rows_equal_one_group_caches(self):
        rng = np.random.default_rng(23)
        rope = RopeParams(64, 1.0e6)
        keys = (rng.normal(size=(self.K, 90, 64)) * 12).astype(np.float32)
        vals = rng.normal(size=(self.K, 90, 64)) * 0.125
        pos = np.arange(90) * 3 + 1
        stacked = KVCacheHead(rope, capacity=90, groups=self.K)
        singles = [KVCacheHead(rope, capacity=90) for _ in range(self.K)]
        stacked.extend(keys[:, :10], vals[:, :10], pos[:10])
        for g, one in enumerate(singles):
            one.extend(keys[g, :10], vals[g, :10], pos[:10])
        for t in range(10, 90):
            stacked.append(keys[:, t], vals[:, t], pos[t])
            for g, one in enumerate(singles):
                one.append(keys[g, t], vals[g, t], pos[t])
        assert len(stacked) == 90
        assert stacked.keys_post.shape == stacked.values.shape == (self.K, 90, 64)
        assert stacked.keys_post.dtype == stacked.values.dtype == np.float32
        assert np.array_equal(stacked.positions, pos)
        for g, one in enumerate(singles):
            assert np.array_equal(stacked.keys_post[g], one.keys_post)
            assert np.array_equal(stacked.values[g], one.values)
        assert stacked.visible_count(pos[40]) == singles[0].visible_count(pos[40]) == 41

    def test_shape_checks(self):
        rope = RopeParams(8)
        stacked, plain = KVCacheHead(rope, 6, groups=self.K), KVCacheHead(rope, 6)
        one_group, k_groups = np.zeros((5, 8)), np.zeros((self.K, 5, 8))
        with pytest.raises(ArgumentError):
            stacked.extend(one_group, one_group, np.arange(5))
        with pytest.raises(ArgumentError):
            stacked.extend(k_groups[1:], k_groups[1:], np.arange(5))
        with pytest.raises(ArgumentError):
            stacked.extend(k_groups, k_groups, np.arange(4))
        with pytest.raises(ArgumentError):
            plain.extend(k_groups, k_groups, np.arange(5))
        with pytest.raises(ArgumentError):
            stacked.append(one_group[0], one_group[0], 0)
        with pytest.raises(ArgumentError):
            stacked.append(k_groups[:, 0], one_group[0], 0)
        with pytest.raises(ArgumentError):
            plain.append(k_groups[:, 0], k_groups[:, 0], 0)
        assert len(stacked) == len(plain) == 0
        stacked.extend(k_groups, k_groups, np.arange(5))
        stacked.append(k_groups[:, 0], k_groups[:, 0], 5)
        assert len(stacked) == 6


class TestScoresRotation:
    @pytest.mark.parametrize("group", [None, 1, 4])
    def test_shared_angles_match_row_rotation(self, group):
        """attend turns every query by one shared angle vector; its weights
        are == those of the per-row rotation with the position repeated,
        each row rounded to float32 and scored as its own product."""
        rng = np.random.default_rng(22)
        cache = KVCacheHead(RopeParams(64, 1.0e6), capacity=50)
        cache.extend(rng.normal(size=(50, 64)), rng.normal(size=(50, 64)), np.arange(50))
        shape = (64,) if group is None else (group, 64)
        q = rng.normal(size=shape).astype(np.float32)
        q2 = np.atleast_2d(q.astype(np.float64))
        for pos in (0, 1, 49, 123_457):
            rows = (slice(0, 20), np.array([3, 30, 41]))
            got, _ = attend(q, pos, cache, rows)
            q32 = rope_rotate_many(q2, np.full(len(q2), pos), cache.rope).astype(np.float32)
            want = np.concatenate([[q @ cache.keys_post[r].T for q in q32] for r in rows], 1)
            assert np.array_equal(np.atleast_2d(got), softmax(want.astype(np.float64) * 0.125))


def gapped_cache(rng, d, n, base=1.0e4, step=1):
    cache = KVCacheHead(RopeParams(d, base), capacity=n)
    cache.extend(rng.normal(size=(n, d)).astype(np.float32),
                 rng.normal(size=(n, d)).astype(np.float32), np.arange(n) * step)
    return cache


def one_row_scores(q, t, keys_post, rope, scale):
    """Row scoring: one rotation angle vector, one (1, d) @ (d, t + 1)
    float64 product over the widened keys of tokens 0..t."""
    keys = keys_post[: t + 1].astype(np.float64)
    return ((np.atleast_2d(rope_rotate(q, t, rope)) @ keys.T) * scale)[0]


class TestCausalScores:
    """causal_scores over the rotated keys of tokens 0..n-1, given as an
    array; the cache's keys_post is such an array when its positions are
    0..n-1, as gapped_cache's are at step 1."""

    @pytest.mark.parametrize("d,base", [(16, 1.0e4), (64, 1.0e4), (64, 1.0e6), (128, 1.0e6)])
    def test_one_row_is_bit_identical_to_row_scoring(self, d, base):
        rng = np.random.default_rng(d)
        cache = gapped_cache(rng, d, 300, base)
        for t in rng.integers(0, 300, size=50):
            q = rng.normal(size=d).astype(np.float32)
            want = one_row_scores(q, int(t), cache.keys_post, cache.rope, 0.125)
            got = causal_scores(q[None], [t], cache.keys_post, cache.rope, 0.125)[0]
            assert np.array_equal(got, want)
            assert np.array_equal(dense_row_scores(q, int(t), cache, 0.125), want)

    @pytest.mark.parametrize("d", [32, 64])
    def test_rows_match_row_scoring_and_mask_the_future(self, d):
        rng = np.random.default_rng(40 + d)
        cache = gapped_cache(rng, d, 400)
        positions = rng.integers(0, 400, size=64)
        queries = rng.normal(size=(64, d))
        got = causal_scores(queries, positions, cache.keys_post, cache.rope)
        assert got.shape == (64, positions.max() + 1)
        for q, t, row in zip(queries, positions, got):
            want = one_row_scores(q, int(t), cache.keys_post, cache.rope, 1 / math.sqrt(d))
            assert np.abs(row[: t + 1] - want).max() <= 1e-12 * np.abs(want).max()
            assert np.all(np.isneginf(row[t + 1 :]))

    @pytest.mark.parametrize("d", [16, 64])
    def test_tail_slices_equal_the_boolean_mask(self, d):
        """Each row's -inf tail is what the (B, n) mask of key index > row
        position marks, with rows at the first and last keys and repeats."""
        rng = np.random.default_rng(50 + d)
        n = 5000
        keys_post = rng.normal(size=(n, d)).astype(np.float32) * 12
        rope = RopeParams(d, 1.0e6)
        rows = np.r_[0, 3, 50, 92, 92, 150, rng.integers(0, n, size=40), n - 1]
        queries = rng.normal(size=(len(rows), d))
        want = (rope_rotate_many(queries, rows, rope) @ keys_post.astype(np.float64).T) * 0.125
        want[np.arange(n)[None, :] > rows[:, None]] = -np.inf
        assert np.array_equal(causal_scores(queries, rows, keys_post, rope, 0.125), want)

    @pytest.mark.parametrize("n", [5000, 9000, 3 * 4096 + 1])
    def test_blocks_are_bit_identical_to_one_float64_product(self, n):
        """The keys widen one row_blocks block at a time; at lengths that
        are no multiple of ROPE_BLOCK (one with a one-row remainder), the
        scores of a batch equal one float64 product over all widened keys,
        at heights up to calibration's and stage 1's.  One row is one gemv,
        which a multi-threaded OpenBLAS splits by its thread count, so it is
        held to the product's last bit instead."""
        assert rope_module.ROPE_BLOCK == 4096
        rng = np.random.default_rng(n)
        cache = gapped_cache(rng, 64, n, base=1.0e6)
        keys = cache.keys_post.astype(np.float64)
        for b in (1, 2, 64, 128):
            positions = np.sort(rng.integers(0, n, size=b))
            positions[-1] = n - 1
            queries = rng.normal(size=(b, 64)) * 3
            want = (rope_rotate_many(queries, positions, cache.rope) @ keys.T) * 0.125
            want[np.arange(n)[None, :] > positions[:, None]] = -np.inf
            got = causal_scores(queries, positions, cache.keys_post, cache.rope, 0.125)
            if b > 1:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
                row = dense_attention(queries[0], n - 1, cache, 0.125)
                np.testing.assert_allclose(row.weights, softmax(want[0]), rtol=1e-13, atol=0)

    def test_out_scores_against_its_width_of_keys(self):
        """Into an (B, m) `out`, the rows score against the first m keys,
        with the bits of a product over them and -inf past each position;
        an `out` of another height, or narrower than the positions or wider
        than the keys, is rejected."""
        rng = np.random.default_rng(11)
        n, rope = 300, RopeParams(16)
        keys_post = rng.normal(size=(n, 16)).astype(np.float32)
        queries, positions = rng.normal(size=(4, 16)), np.array([5, 120, 40, 199])
        out = np.empty((4, 250))
        got = causal_scores(queries, positions, keys_post, rope, 0.125, out=out)
        assert got is out
        want = (rope_rotate_many(queries, positions, rope)
                @ keys_post[:250].astype(np.float64).T) * 0.125
        want[np.arange(250)[None, :] > positions[:, None]] = -np.inf
        assert np.array_equal(got, want)
        for bad in (np.empty((3, 250)), np.empty((4, 199)), np.empty((4, n + 1)),
                    np.empty(250)):
            with pytest.raises(ArgumentError):
                causal_scores(queries, positions, keys_post, rope, out=bad)

    def test_positions_the_keys_do_not_reach_rejected(self):
        rng = np.random.default_rng(9)
        cache = gapped_cache(rng, 8, 20)
        keys, rope = cache.keys_post, cache.rope
        q = rng.normal(size=(2, 8))
        causal_scores(q, [0, 19], keys, rope)
        for bad in ([3, 20], [25, 1], [-1, 3]):
            with pytest.raises(ArgumentError):
                causal_scores(q, bad, keys, rope)
        with pytest.raises(ArgumentError):
            causal_scores(q, [3], keys, rope)
        with pytest.raises(ArgumentError):
            causal_scores(q[:, :4], [3, 4], keys, rope)
        for bad_keys in (keys[:, :4], keys[:0], keys[None]):
            with pytest.raises(ArgumentError):
                causal_scores(q, [0, 1], bad_keys, rope)

    def test_row_scores_need_a_cache_over_positions_from_zero(self):
        """dense_row_scores adapts a cache to causal_scores only when its
        positions are 0..n-1, the keys' row indices."""
        rng = np.random.default_rng(10)
        q = rng.normal(size=8)
        assert dense_row_scores(q, 19, gapped_cache(rng, 8, 20)).shape == (20,)
        late = KVCacheHead(RopeParams(8), capacity=1)
        late.append(np.zeros(8), np.zeros(8), 10)
        for cache in (gapped_cache(rng, 8, 20, step=3), late,
                      KVCacheHead(RopeParams(8), capacity=1)):
            with pytest.raises(ArgumentError):
                dense_row_scores(q, 0, cache)


class TestAttendRowForms:
    """An index array attends either gathered or as one dense row over
    [0, rows[-1] + 1), zero off the set; DENSE_SHARE picks the form, and
    both weigh the set.  The forms round differently in float32, so each is
    held to the float64 oracle on the same rows."""

    @staticmethod
    def forced(monkeypatch, share, *args):
        monkeypatch.setattr(workload_module, "DENSE_SHARE", share)
        return attend(*args)

    @staticmethod
    def cache(rng, n):
        """Unit-scale keys and values at the generator's VALUE_SCALE.  The
        float32 products' rounding scales with |score| x |value|, so the
        absolute bounds hold at these scales and unit-scale queries."""
        cache = KVCacheHead(RopeParams(64), capacity=n)
        cache.extend(rng.normal(size=(n, 64)),
                     rng.normal(size=(n, 64)) * workload_module.VALUE_SCALE, np.arange(n))
        return cache

    @pytest.mark.parametrize("group", [1, 4])
    @pytest.mark.parametrize("share", [0.001, 0.01, 0.1, 0.25, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("end", [4000, 2500])  # 2500: a top-k set short of the prefix
    def test_forms_agree(self, monkeypatch, group, share, end):
        rng = np.random.default_rng(int(share * 1000) + group + end)
        cache = self.cache(rng, 4000)
        rows = np.sort(rng.choice(end - 1, size=max(int(share * end), 1) - 1, replace=False))
        rows = np.append(rows, end - 1)
        q = rng.normal(size=(group, 64))
        w_g, out_g = self.forced(monkeypatch, 1.0, q, 3999, cache, rows)
        w_d, out_d = self.forced(monkeypatch, 0.0, q, 3999, cache, rows)
        w_ref, out_ref = oracle_on_rows(q, 3999, cache, rows, 0.125)
        assert w_d.shape == w_g.shape == (group, rows.size)
        for w, out in ((w_g, out_g), (w_d, out_d)):
            assert np.abs(out - out_ref).max() <= 1e-7
            assert np.abs(w - w_ref).max() <= 2e-7
        np.testing.assert_allclose(w_d.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_full_prefix_equals_dense_attention(self):
        rng = np.random.default_rng(7)
        cache = gapped_cache(rng, 64, 300)
        q = rng.normal(size=64).astype(np.float32)
        for pos in (0, 1, 150, 299):
            w, out = attend(q, pos, cache, np.arange(pos + 1))
            row = dense_attention(q, pos, cache, 0.125)
            w_ref, out_ref = oracle_on_rows(q, pos, cache, slice(0, pos + 1), 0.125)
            assert np.array_equal(row.weights, w_ref)
            assert np.abs(row.output - out_ref).max() <= 1e-15
            assert np.abs(w - row.weights).max() <= 1e-6
            assert np.abs(out - row.output).max() <= 1e-6

    def test_cutoff_is_exclusive(self, monkeypatch):
        """A set of exactly DENSE_SHARE of its span gathers; one row more
        takes the dense row."""
        rng = np.random.default_rng(8)
        cache = gapped_cache(rng, 64, 400)
        q = rng.normal(size=64)
        span = 400
        at = int(workload_module.DENSE_SHARE * span)
        assert at == workload_module.DENSE_SHARE * span
        for size, share in ((at, 1.0), (at + 1, 0.0)):
            rows = np.append(np.sort(rng.choice(span - 1, size - 1, replace=False)), span - 1)
            got = attend(q, 399, cache, rows)
            want = self.forced(monkeypatch, share, q, 399, cache, rows)
            monkeypatch.undo()
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_unsorted_rows_gather_in_their_order(self, monkeypatch):
        rng = np.random.default_rng(9)
        cache = self.cache(rng, 100)
        q = rng.normal(size=64)
        rows = rng.permutation(100)
        w, out = self.forced(monkeypatch, 0.0, q, 99, cache, rows)
        w_ref, out_ref = oracle_on_rows(q, 99, cache, slice(0, 100), 0.125)
        np.testing.assert_allclose(w, w_ref[rows], rtol=0, atol=1e-7)
        np.testing.assert_allclose(out, out_ref, rtol=0, atol=1e-7)

    def test_131k_rows_within_1e6_of_float64(self):
        """Over a 131,072-row cache with near-uniform weights and values
        of mean 0.5, every form sums its values block by block into float64
        and stays within 1e-6 of the float64 oracle on the same rows: a
        dense index array, one span, two long runs and a gathered array of
        more than ROPE_BLOCK rows.  One float32 sum over the whole span
        reads about 4e-6 here."""
        n = 131_072
        rng = np.random.default_rng(23)
        cache = KVCacheHead(RopeParams(64), capacity=n)
        cache.extend(rng.standard_normal((n, 64), np.float32) * np.float32(0.05),
                     rng.standard_normal((n, 64), np.float32) * np.float32(0.125)
                     + np.float32(0.5), np.arange(n))
        q = rng.normal(size=64) * 0.5
        gathered = np.arange(0, n, 8)
        assert gathered.size > rope_module.ROPE_BLOCK
        assert not workload_module._dense_span(gathered)
        forms = {"dense": np.arange(n), "span": (slice(0, n),),
                 "two runs": (slice(0, 60_000), slice(61_000, n)), "gathered": gathered}
        for name, rows in forms.items():
            _, out = attend(q, n - 1, cache, rows)
            _, out_ref = oracle_on_rows(q, n - 1, cache, rows, 0.125)
            assert np.abs(out - out_ref).max() <= 1e-6, name


class TestDenseAttention:
    def test_single_token(self):
        cache = KVCacheHead(RopeParams(4), capacity=1)
        v = np.array([1.0, 2.0, 3.0, 4.0])
        cache.append(np.ones(4), v, 0)
        row = dense_attention(np.ones(4), 0, cache)
        np.testing.assert_allclose(row.weights, [1.0])
        np.testing.assert_allclose(row.output, v, atol=1e-6)

    def test_identical_keys_uniform_weights(self):
        rng = np.random.default_rng(2)
        cache = KVCacheHead(RopeParams(8), capacity=5)
        key = rng.normal(size=8)
        vals = rng.normal(size=(5, 8))
        # All at position 0..4 with the same pre-RoPE key would rotate apart;
        # use a zero key so every score is 0 regardless of rotation.
        cache.extend(np.zeros((5, 8)), vals, np.arange(5))
        row = dense_attention(key, 4, cache)
        np.testing.assert_allclose(row.weights, np.full(5, 0.2), atol=1e-12)
        np.testing.assert_allclose(row.output, vals.astype(np.float32).mean(0), atol=1e-6)

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(3)
        cache = KVCacheHead(RopeParams(16), capacity=64)
        keys = rng.normal(size=(64, 16))
        cache.extend(turned(keys, cache.rope), rng.normal(size=(64, 16)), np.arange(64))
        for qpos in (0, 17, 63):
            q = rng.normal(size=16)
            row = dense_attention(q, qpos, cache)
            w_ref, out_ref = naive_attention(q, qpos, cache, keys, 0.25)
            assert len(row.weights) == qpos + 1
            np.testing.assert_allclose(row.weights, w_ref, atol=1e-5)
            np.testing.assert_allclose(row.output, out_ref, atol=1e-5)

    def test_causality_and_normalization(self):
        rng = np.random.default_rng(4)
        cache = KVCacheHead(RopeParams(8), capacity=30)
        cache.extend(rng.normal(size=(30, 8)), rng.normal(size=(30, 8)), np.arange(30))
        row = dense_attention(rng.normal(size=8), 11, cache)
        assert len(row.weights) == 12  # nothing beyond the query position
        assert row.weights.sum() == pytest.approx(1.0, abs=1e-6)

    def test_no_visible_token(self):
        cache = KVCacheHead(RopeParams(4), capacity=1)
        cache.append(np.zeros(4), np.zeros(4), 10)
        with pytest.raises(ArgumentError):
            dense_attention(np.zeros(4), 5, cache)

    def test_scores_consistent_with_row(self):
        rng = np.random.default_rng(5)
        cache = KVCacheHead(RopeParams(8), capacity=12)
        cache.extend(rng.normal(size=(12, 8)), rng.normal(size=(12, 8)), np.arange(12))
        q = rng.normal(size=8)
        s = dense_row_scores(q, 9, cache)
        row = dense_attention(q, 9, cache)
        np.testing.assert_allclose(np.exp(s - s.max()) / np.exp(s - s.max()).sum(),
                                   row.weights, atol=1e-12)
        # the --oracle pass takes its weights this way, without the value sum
        assert np.array_equal(softmax(s), row.weights)


def small_spec(**kw):
    base = dict(seq_len=768, decode_len=64, diffuse_support=200)
    base.update(kw)
    return WorkloadSpec(**base)


def small_geometry(**kw):
    base = dict(n_q_heads=8, n_kv_heads=4, window=192)
    base.update(kw)
    return default_workload_geometry(**base)


SMALL_SPEC = small_spec(planted_retrieval_heads=(1, 6), probe_head=1)


def owned_bytes(cache):
    """Bytes of the arrays the cache allocated itself, not views it reads."""
    return sum(v.nbytes for v in vars(cache).values()
               if isinstance(v, np.ndarray) and v.flags.owndata)


class TestCacheFootprint:
    def test_build_cache_owns_no_extra_copies(self):
        # per token: an int64 position (8); the keys and values are the
        # workload's rows, read in place
        w = gen_synthetic_workload(SMALL_SPEC, 0, small_geometry())
        cache = build_cache(w, 0, 1)
        assert owned_bytes(cache) == w.seq_len * 8
        assert not cache._keys_post.flags.owndata and not cache._values.flags.owndata
        assert np.shares_memory(cache.keys_post, w.keys_post[0, 1])
        assert np.shares_memory(cache.values, w.values[0, 1])
        assert not np.shares_memory(cache.keys_post, w.keys_post[0, 0])
        assert not np.shares_memory(cache.values, w.values[0, 0])

    def test_build_allocates_only_its_positions(self):
        """build_cache of a 65,536-row head allocates its 8 bytes per row
        and a few KiB; a turned copy of its keys (16 MiB here) or one
        rotation block's cos/sin (2 MiB) would not fit."""
        n, d = 65_536, 64
        geo = ModelGeometry(n_q_heads=1, n_kv_heads=1, head_dim=d)
        rng = np.random.default_rng(0)
        keys, values = rng.standard_normal((2, 1, 1, n, d), np.float32)
        ann = WorkloadAnnotations((), (), (0,), (1,), ())
        w = Workload(geo, WorkloadSpec(seq_len=n, decode_len=1), 0,
                     np.zeros((1, 1, n, d), np.float32), keys, keys, values, ann)
        tracemalloc.start()
        try:
            cache = build_cache(w, 0, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert owned_bytes(cache) == n * 8
        assert peak - n * 8 < 2**20, f"{(peak - n * 8) / 2**20:.1f} MiB over"


class TestStreamCache:
    """A cache given a stream's key and value rows reads them in place: it
    owns only its positions, writes no row, and refuses rows that are not
    the stream's own."""

    n, d = 12, 8

    def stream(self, seed=0):
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(self.n, self.d)).astype(np.float32)
        return keys, rng.normal(size=(self.n, self.d)).astype(np.float32)

    def test_reads_the_stream_in_place(self):
        keys, values = self.stream()
        before = keys.copy(), values.copy()
        cache = KVCacheHead(RopeParams(self.d), capacity=self.n, stream=(keys, values))
        cache.extend(None, None, np.arange(5))
        cache.extend(keys[5:7].astype(np.float64), values[5:7].astype(np.float64),
                     np.arange(5, 7))
        cache.append(None, None, 7)
        cache.append(keys[8], values[8], 8)
        owned = KVCacheHead(RopeParams(self.d), capacity=self.n)
        owned.extend(keys[:9], values[:9], np.arange(9))
        for name in ("positions", "keys_post", "values"):
            assert np.array_equal(getattr(cache, name), getattr(owned, name)), name
        assert np.shares_memory(cache.keys_post, keys)
        assert np.shares_memory(cache.values, values)
        assert owned_bytes(cache) == self.n * 8
        for mine, given in ((cache.keys_post, keys), (cache.values, values)):
            assert not mine.flags.writeable and given.flags.writeable
        assert np.array_equal(keys, before[0]) and np.array_equal(values, before[1])

    def test_stacked_groups(self):
        keys, values = (a.reshape(2, 6, self.d) for a in self.stream())
        cache = KVCacheHead(RopeParams(self.d), capacity=6, groups=2, stream=(keys, values))
        cache.extend(keys[:, :3], values[:, :3], np.arange(3))
        cache.append(None, None, 3)
        assert np.array_equal(cache.keys_post, keys[:, :4])
        assert np.array_equal(cache.values, values[:, :4])
        for key, value in ((keys[:, 4], values[:, 5]), (keys[:, 5], values[:, 4])):
            with pytest.raises(ArgumentError):
                cache.append(key, value, 4)

    @pytest.mark.parametrize("how", ["append", "extend"])
    @pytest.mark.parametrize("which", [0, 1], ids=["keys", "values"])
    def test_refuses_other_rows(self, how, which):
        rows = self.stream()
        cache = KVCacheHead(RopeParams(self.d), capacity=self.n, stream=rows)
        cache.extend(None, None, np.arange(4))
        other = [a.copy() for a in rows]
        other[which][4, 3] += 1.0
        with pytest.raises(ArgumentError):
            if how == "append":
                cache.append(other[0][4], other[1][4], 4)
            else:
                cache.extend(other[0][4:6], other[1][4:6], np.arange(4, 6))
        assert len(cache) == 4

    @pytest.mark.parametrize("positions", [[5], [4, 6], [3, 4]])
    def test_rows_are_tokens(self, positions):
        """Row i is token i: a gap, or a position already held, is refused."""
        cache = KVCacheHead(RopeParams(self.d), capacity=self.n, stream=self.stream())
        cache.extend(None, None, np.arange(4))
        with pytest.raises(ArgumentError):
            cache.extend(None, None, np.array(positions))
        if len(positions) == 1:
            with pytest.raises(ArgumentError):
                cache.append(None, None, positions[0])
        assert len(cache) == 4

    def test_stream_must_fit_the_cache(self):
        keys, values = self.stream()
        for bad in (values.astype(np.float64), values[:-1], values[:, :-2]):
            for stream in ((keys, bad), (bad, values)):
                with pytest.raises(ArgumentError):
                    KVCacheHead(RopeParams(self.d), capacity=self.n, stream=stream)

    def test_an_owned_cache_needs_keys_and_values(self):
        keys, values = self.stream()
        cache = KVCacheHead(RopeParams(self.d), capacity=self.n)
        for key, value in ((keys, None), (None, values)):
            with pytest.raises(ArgumentError):
                cache.append(None if key is None else key[0],
                             None if value is None else value[0], 0)
            with pytest.raises(ArgumentError):
                cache.extend(None if key is None else key[:2],
                             None if value is None else value[:2], np.arange(2))
        assert len(cache) == 0

    def test_reads_a_mapped_workload(self, tmp_path):
        """A cache over a mapped workload reads the payload's rows, and
        decoding over it leaves the map's pages as they were."""
        w = gen_synthetic_workload(SMALL_SPEC, 3, small_geometry(), stem=tmp_path / "w")
        cache = build_cache_prefix(w, 0, 2, w.prefill_len)
        for t in range(w.prefill_len, w.seq_len):
            cache.append(w.keys_post[0, 2, t], w.values[0, 2, t], t)
        assert np.shares_memory(cache.keys_post, w.keys_post)
        assert np.shares_memory(cache.values, w.values)
        held = gen_synthetic_workload(SMALL_SPEC, 3, small_geometry())
        assert np.array_equal(cache.keys_post, held.keys_post[0, 2])
        assert np.array_equal(cache.values, held.values[0, 2])
        for name in ("keys_post", "values"):
            assert getattr(w, name).tobytes() == getattr(held, name).tobytes()


class TestGenerator:
    def test_deterministic(self):
        a = gen_synthetic_workload(SMALL_SPEC, 11, small_geometry())
        b = gen_synthetic_workload(SMALL_SPEC, 11, small_geometry())
        np.testing.assert_array_equal(a.queries, b.queries)
        np.testing.assert_array_equal(a.keys_pre, b.keys_pre)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.annotations == b.annotations

    def test_only_generator_fields_change_the_streams(self):
        """The generator reads only GENERATOR_FIELDS of its geometry, so a
        change to any other field (one each) leaves every stream byte for
        byte as it was; a new field must be listed one way or the other."""
        geo = small_geometry()
        others = {"retrieval_ratio": 0.5, "low_dim": 8, "top_p": 0.5, "block_size": 16}
        init = {f.name for f in dataclasses.fields(ModelGeometry) if f.init}
        assert set(others) == init - set(GENERATOR_FIELDS)
        base = gen_synthetic_workload(SMALL_SPEC, 4, geo)
        for name, value in others.items():
            assert getattr(geo, name) != value
            w = gen_synthetic_workload(SMALL_SPEC, 4, dataclasses.replace(geo, **{name: value}))
            for arr in PAYLOAD:
                assert getattr(w, arr).tobytes() == getattr(base, arr).tobytes(), (name, arr)
            assert w.annotations == base.annotations

    def test_rope_base_changes_the_turned_keys_only(self):
        """rope_base is a generator field since keys_post is turned at it:
        another base changes keys_post, to the turns at that base, and
        leaves queries, keys_pre and values byte for byte as they were."""
        geo = small_geometry()
        base = gen_synthetic_workload(SMALL_SPEC, 4, geo)
        other = gen_synthetic_workload(SMALL_SPEC, 4, dataclasses.replace(geo, rope_base=1.0e4))
        for arr in ("queries", "keys_pre", "values"):
            assert getattr(other, arr).tobytes() == getattr(base, arr).tobytes(), arr
        assert other.keys_post.tobytes() != base.keys_post.tobytes()
        assert np.array_equal(other.keys_post, turned(other.keys_pre, RopeParams(64, 1.0e4)))

    def test_seed_changes_streams(self):
        a = gen_synthetic_workload(SMALL_SPEC, 11, small_geometry())
        b = gen_synthetic_workload(SMALL_SPEC, 12, small_geometry())
        assert not np.array_equal(a.queries, b.queries)

    def test_annotation_layout(self):
        w = gen_synthetic_workload(SMALL_SPEC, 0, small_geometry())
        ann = w.annotations
        assert ann.planted_retrieval_heads == (1, 6)
        assert len(ann.planted_local_heads) == 6
        assert len(ann.n_pre) == len(ann.n_post) == 16
        assert max(ann.n_pre) < min(ann.n_post)
        assert max(ann.n_post) < w.seq_len
        kinds = {p.kind for p in ann.probes}
        assert kinds == {"concentrated", "diffuse"}
        for p in ann.probes:
            assert max(p.support) < min(q.position for q in ann.probes)

    def test_overlapping_needle_rejected(self):
        with pytest.raises(ArgumentError):
            gen_synthetic_workload(
                small_spec(pre_start=740, planted_retrieval_heads=(1,), probe_head=1),
                0, small_geometry(),
            )

    def test_needle_exceeding_sequence_rejected(self):
        with pytest.raises(ArgumentError):
            gen_synthetic_workload(
                small_spec(seq_len=40, post_start=30, include_probes=False,
                           planted_retrieval_heads=(1,), probe_head=1),
                0, small_geometry(),
            )

    def test_planted_retrieval_separation_20_seeds(self):
        # Induction match: the key at j+1 carries token j's content, so the
        # query at post-needle row post+i matches the key at pre+i+1.
        spec = SMALL_SPEC
        geo = small_geometry()
        for seed in range(20):
            w = gen_synthetic_workload(spec, seed, geo)
            ann = w.annotations
            for h in ann.planted_retrieval_heads:
                g = qhead_to_kvhead(geo, h)
                match_dots, bg_dots = [], []
                for i, t in enumerate(ann.n_post[:-1]):
                    q = w.queries[0, h, t].astype(float)
                    match = ann.n_pre[i] + 1
                    keys = w.keys_pre[0, g].astype(float)
                    dots = keys @ q
                    match_dots.append(dots[match])
                    mask = np.ones(len(dots), bool)
                    special = set(ann.n_pre) | set(ann.n_post)
                    special |= {s + 1 for s in special}
                    mask[list(special)] = False
                    bg_dots.extend(dots[mask &
                                        (np.arange(len(dots)) <= t)])
                bg = np.array(bg_dots)
                gap = np.mean(match_dots) - bg.mean()
                assert gap >= 3 * bg.std(), f"seed {seed} head {h}: gap {gap}"

    def test_planted_local_mass_in_window(self):
        geo = small_geometry()
        for seed in range(5):
            w = gen_synthetic_workload(SMALL_SPEC, seed, geo)
            ann = w.annotations
            for h in ann.planted_local_heads[:2]:
                g = qhead_to_kvhead(geo, h)
                cache = build_cache(w, 0, g)
                fracs = []
                for t in range(300, w.seq_len, 97):
                    row = dense_attention(w.queries[0, h, t], t, cache)
                    keep = np.zeros(t + 1, bool)
                    keep[: geo.n_sinks] = True
                    keep[max(0, t - geo.window + 1) :] = True
                    fracs.append(row.weights[keep].sum())
                assert np.mean(fracs) >= 0.95, f"seed {seed} head {h}: {np.mean(fracs):.4f}"

    def test_probe_scores_shape_adaptivity(self):
        # Concentrated probe: nearly all mass on 2 tokens; diffuse probe:
        # spread over its support.
        w = gen_synthetic_workload(SMALL_SPEC, 3, small_geometry())
        geo, ann = w.geometry, w.annotations
        sizes = {}
        for p in ann.probes:
            cache = build_cache(w, 0, qhead_to_kvhead(geo, p.head))
            row = dense_attention(w.queries[0, p.head, p.position], p.position, cache)
            support_mass = row.weights[list(p.support)].sum()
            assert support_mass >= 0.95
            order = np.argsort(-row.weights)
            csum = np.cumsum(row.weights[order])
            sizes[p.kind] = int(np.searchsorted(csum, 0.9) + 1)
        assert sizes["diffuse"] >= 10 * sizes["concentrated"]

    def test_save_load_round_trip(self, tmp_path):
        w = gen_synthetic_workload(SMALL_SPEC, 7, small_geometry())
        streamed = gen_synthetic_workload(SMALL_SPEC, 7, small_geometry(), tmp_path / "wl")
        for back in (streamed, Workload.load(tmp_path / "wl")):
            for name in PAYLOAD:
                np.testing.assert_array_equal(getattr(back, name), getattr(w, name))
            assert back.annotations == w.annotations
            assert back.geometry == w.geometry
            assert back.spec == w.spec
            assert back.seed == 7

    @pytest.mark.parametrize("meta_key", ["seed", "geometry", "spec", "annotations"])
    def test_load_rejects_meta_without_key(self, tmp_path, meta_key):
        gen_synthetic_workload(SMALL_SPEC, 7, small_geometry(), tmp_path / "wl")
        path = tmp_path / "wl.json"
        manifest = json.loads(path.read_text())
        del manifest["meta"][meta_key]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ArgumentError, match=meta_key):
            Workload.load(tmp_path / "wl")

    @pytest.mark.parametrize("tensor", PAYLOAD)
    def test_load_rejects_missing_or_misshapen_tensor(self, tmp_path, tensor):
        """A container without one of the tensors, such as one written
        before keys_post was stored, or with one of the wrong shape raises
        ArgumentError naming the file and asking for calibrate again."""
        w = gen_synthetic_workload(SMALL_SPEC, 7, small_geometry())
        arrays = {name: getattr(w, name) for name in PAYLOAD}
        meta = {"kind": "workload", "seed": 7, "geometry": w.geometry.to_dict(),
                "spec": w.spec.to_dict(), "annotations": w.annotations.to_dict()}
        absent = {k: v for k, v in arrays.items() if k != tensor}
        save_container(tmp_path / "absent", absent, meta)
        # same element count, wrong layout: passes the container's checks
        arrays[tensor] = arrays[tensor].swapaxes(2, 3)
        save_container(tmp_path / "swapped", arrays, meta)
        for stem in ("absent", "swapped"):
            with pytest.raises(ArgumentError) as caught:
                Workload.load(tmp_path / stem)
            message = str(caught.value)
            assert repr(tensor) in message and str(tmp_path / f"{stem}.json") in message
            assert "run calibrate again" in message

    def test_bands_are_disjoint(self):
        lb, cb = local_band(64), content_band(64)
        assert lb.stop <= cb.start
        assert cb.stop == 64


def per_step_unit_walk(rng, n_steps, dim, rho):
    """Reference: one rng draw and one np.linalg.norm per step."""
    out = np.empty((n_steps, dim))
    w = rng.normal(size=dim)
    w /= np.linalg.norm(w)
    drift = np.sqrt(max(1.0 - rho * rho, 0.0))
    for t in range(n_steps):
        out[t] = w
        w = rho * w + drift * rng.normal(size=dim)
        w /= np.linalg.norm(w)
    return out


def per_step_unit_walks(rngs, n_steps, dim, rho):
    """The per-step reference for each rng, stacked as (n_steps, G, dim)."""
    return np.stack([per_step_unit_walk(rng, n_steps, dim, rho) for rng in rngs], axis=1)


class TestUnitWalkBitIdentity:
    """The block-drawn walks, stepped together, must each equal the per-step
    reference exactly and leave every stream where it would.  Compared
    in-process rather than against a stored digest: the dot products follow
    the BLAS kernel, so the bits can differ between machines but not between
    the two forms."""

    @pytest.mark.parametrize("seed, n_steps, dim, rho", [
        (0, 1, 2, 0.5), (1, 300, 32, 0.9923), (5, 257, 7, 0.0),
        (9, 64, 16, 1.0), (13, 2000, 32, 0.99),
    ])
    def test_matches_per_step_reference(self, seed, n_steps, dim, rho):
        for n_rngs in (1, 2, 4):
            ref_rngs = [np.random.default_rng(seed + g) for g in range(n_rngs)]
            rngs = [np.random.default_rng(seed + g) for g in range(n_rngs)]
            want = per_step_unit_walks(ref_rngs, n_steps, dim, rho)
            got = workload_module._unit_walks(rngs, n_steps, dim, rho)
            assert got.shape == want.shape == (n_steps, n_rngs, dim)
            assert np.array_equal(got, want), n_rngs
            for rng, ref_rng in zip(rngs, ref_rngs):
                assert np.array_equal(rng.normal(size=3), ref_rng.normal(size=3))

    @pytest.mark.parametrize("n_walks", [1, 2, 4])
    def test_stacked_dot_rounds_as_the_norm(self, n_walks):
        """The stepped walks' (G, 1, 1) dots, read from (G, dim) rows that
        sit apart in a wider array, equal np.linalg.norm squared before the
        root, as the per-step form takes it, for every dim up to 64."""
        rng = np.random.default_rng(n_walks)
        for dim in range(1, 65):
            base = rng.normal(size=(8, n_walks, dim + 5))
            walk = base[:, :, 2 : 2 + dim]
            rows, cols = walk[:, :, None, :], walk[:, :, :, None]
            for t in range(walk.shape[0]):
                got = np.sqrt(rows[t] @ cols[t]).ravel()
                want = [np.linalg.norm(v) for v in walk[t]]
                assert np.array_equal(got, want), (dim, t)

    @pytest.mark.parametrize("seq_len", [768, 2048])
    def test_workload_matches_per_step_form(self, monkeypatch, seq_len):
        spec = small_spec(seq_len=seq_len, planted_retrieval_heads=(1, 6), probe_head=1)
        got = gen_synthetic_workload(spec, 3, small_geometry())
        monkeypatch.setattr(workload_module, "_unit_walks", per_step_unit_walks)
        want = gen_synthetic_workload(spec, 3, small_geometry())
        for name in PAYLOAD:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.annotations == want.annotations


def per_layer_generation(spec, seed, geo):
    """Reference: the generator's stream loop in its per-layer form, every
    KV head of a layer first (per-step walks and content ids kept in
    lists), then every query head, each stream's noise one whole
    normal(size=(L, d)) * scale.  Returns (queries, keys_pre, keys_post,
    values), keys_post turned by one full-length angle table."""
    wm = workload_module
    pre, post, probe_positions = wm._resolve_layout(spec, geo)
    L, d, nl = spec.seq_len, geo.head_dim, wm.NEEDLE_LEN
    loc, con = local_band(d), content_band(d)
    loc_dim, con_dim = loc.stop - loc.start, con.stop - con.start
    rng_emb = wm.derive_rng(seed, "workload-embeddings")
    needle_embs = np.linalg.qr(rng_emb.normal(size=(con_dim, con_dim)))[0].T[:nl]
    probe_embs = wm._unit_rows(rng_emb, 2, con_dim)
    bg_embs = wm._unit_rows(rng_emb, wm.N_CONTENT, con_dim)
    probes = []
    if spec.include_probes:
        rng_support = wm.derive_rng(seed, "workload-probe-support")
        hi_pool = pre + nl + (post - pre - nl) // 2
        needle_ish = {j for start in (pre, post) for j in range(start, start + nl + 1)}
        pool = np.array([j for j in range(1, hi_pool) if j not in needle_ish])
        picks = rng_support.choice(pool, size=wm.CONCENTRATED_SUPPORT
                                   + spec.diffuse_support, replace=False)
        probes = [("concentrated", probe_positions[0],
                   np.sort(picks[: wm.CONCENTRATED_SUPPORT])),
                  ("diffuse", probe_positions[1], np.sort(picks[wm.CONCENTRATED_SUPPORT:]))]
    rho = float(np.exp(np.log(0.02) / geo.window))
    sink_dir = np.zeros(loc_dim)
    sink_dir[0] = 1.0
    queries = np.zeros((geo.n_layers, geo.n_q_heads, L, d), np.float32)
    keys = np.zeros((geo.n_layers, geo.n_kv_heads, L, d), np.float32)
    values = np.zeros((geo.n_layers, geo.n_kv_heads, L, d), np.float32)
    needle_rows = {pre + i: i for i in range(nl)}
    needle_rows.update({post + i: i for i in range(nl)})
    for layer in range(geo.n_layers):
        walks, contents = [], []
        for g in range(geo.n_kv_heads):
            rng_kv = wm.derive_rng(seed, f"workload-L{layer}-kv{g}")
            walks.append(per_step_unit_walk(rng_kv, L, loc_dim, rho))
            ids = rng_kv.integers(0, wm.N_CONTENT, size=L)
            contents.append(ids)
            k = rng_kv.normal(size=(L, d)) * wm.NOISE_SCALE
            k[:, loc] += wm.LOCAL_KEY_GAIN * walks[g]
            k[: geo.n_sinks, loc] += wm.SINK_KEY_GAIN * sink_dir
            prev_emb = np.zeros((L, con_dim))
            prev_amp = np.zeros((L, 1))
            prev_emb[1:] = bg_embs[ids[: L - 1]]
            prev_amp[1:] = wm.BG_KEY_SCALE
            for row, slot in needle_rows.items():
                if row + 1 < L:
                    prev_emb[row + 1] = needle_embs[slot]
                    prev_amp[row + 1] = wm.NEEDLE_KEY_SCALE
            k[:, con] += prev_amp * prev_emb
            for kind, _, support in probes:
                which = 0 if kind == "concentrated" else 1
                k[support, con] += wm.PROBE_KEY_SCALE * probe_embs[which]
            keys[layer, g] = k
            values[layer, g] = rng_kv.normal(size=(L, d)) * wm.VALUE_SCALE
        for h in range(geo.n_q_heads):
            rng_h = wm.derive_rng(seed, f"workload-L{layer}-q{h}")
            g = qhead_to_kvhead(geo, h)
            q = rng_h.normal(size=(L, d)) * wm.NOISE_SCALE
            if h in spec.planted_retrieval_heads:
                ids = contents[g]
                seek = rng_h.random(L) < wm.BG_SEEK_PROB
                targets = rng_h.integers(1, np.maximum(np.arange(L), 1) + 1)
                seek[:2] = False
                tgt_emb = bg_embs[ids[np.maximum(targets - 1, 0)]]
                for row, slot in needle_rows.items():
                    hit = targets - 1 == row
                    tgt_emb[hit] = needle_embs[slot]
                q[seek, con.start : con.stop] += wm.RETRIEVAL_QUERY_GAIN * tgt_emb[seek]
                for row, slot in needle_rows.items():
                    q[row, con] = wm.RETRIEVAL_QUERY_GAIN * needle_embs[slot]
                for kind, position, _ in probes:
                    if h == spec.probe_head:
                        which = 0 if kind == "concentrated" else 1
                        q[position, con] = wm.RETRIEVAL_QUERY_GAIN * probe_embs[which]
            else:
                q[:, loc] += wm.LOCAL_QUERY_GAIN * walks[g]
                q[:, loc] += wm.SINK_QUERY_GAIN * sink_dir
            queries[layer, h] = q
    return queries, keys, turned(keys, geo.rope), values


def assert_matches_per_layer_form(seed, **spec_kw):
    geo = small_geometry(n_layers=2)
    spec = small_spec(planted_retrieval_heads=(1, 6), probe_head=1, **spec_kw)
    got = gen_synthetic_workload(spec, seed, geo)
    for name, want in zip(PAYLOAD, per_layer_generation(spec, seed, geo)):
        arr = getattr(got, name)
        assert arr.dtype == want.dtype and arr.tobytes() == want.tobytes(), name


class TestGenerationOneGroupAtATime:
    """Generation steps a layer's walks together, then writes each KV
    group's keys and values and each local query head on a thread pool, and
    last the retrieval query heads, drawing and finishing all noise one row
    block at a time; the streams stay byte-equal to the per-layer form at
    every pool size."""

    @pytest.mark.parametrize("seq_len", [768, 2048])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("probes", [True, False])
    def test_matches_per_layer_form(self, seq_len, seed, probes):
        assert_matches_per_layer_form(seed, seq_len=seq_len, include_probes=probes)

    @pytest.mark.parametrize("layout", [
        # the late needle ends at row L - 1, so no induction key follows it
        dict(include_probes=False, post_start=768 - 16),
        dict(pre_start=0),
    ])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_edge_layouts_match_per_layer_form(self, layout, seed):
        assert_matches_per_layer_form(seed, **layout)

    @pytest.mark.parametrize("row_block", [1, 7, 64])
    @pytest.mark.parametrize("layout", [
        dict(seq_len=770),
        dict(seq_len=768, include_probes=False, post_start=768 - 16),
        dict(seq_len=771, pre_start=0),
    ])
    def test_block_boundaries_match_per_layer_form(self, monkeypatch, row_block, layout):
        """Blocks far smaller than the streams put boundaries inside the
        sinks, the needles, a needle and the key after it, the probe
        supports, and leave a last block that takes the remainder."""
        monkeypatch.setattr(rope_module, "ROPE_BLOCK", row_block)
        assert_matches_per_layer_form(3, **layout)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("row_block", [1, 7, 64, 4096])
    @pytest.mark.parametrize("layout", [
        dict(seq_len=770),
        dict(seq_len=768, include_probes=False, post_start=768 - 16),
        dict(seq_len=771, pre_start=0),
    ])
    def test_every_pool_size_matches_per_layer_form(self, monkeypatch, workers,
                                                    row_block, layout):
        """The pool forced to one worker and to two, whatever the host's
        CPUs, at the block layouts above and at whole-stream blocks."""
        monkeypatch.setattr(workload_module, "_gen_workers", lambda: workers)
        monkeypatch.setattr(rope_module, "ROPE_BLOCK", row_block)
        assert_matches_per_layer_form(3, **layout)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("row_block", [7, 4096])
    @pytest.mark.parametrize("layout", [
        dict(seq_len=770),
        dict(seq_len=768, include_probes=False, post_start=768 - 16),
        dict(seq_len=771, pre_start=0),
    ])
    def test_streamed_file_matches_per_layer_form(self, monkeypatch, tmp_path, workers,
                                                  row_block, layout):
        """Each row block written to the payload file as it is finished
        gives the file that save_container writes for the per-layer form's
        arrays with the workload's meta: the same payload bytes and
        manifest, and no other file."""
        monkeypatch.setattr(workload_module, "_gen_workers", lambda: workers)
        monkeypatch.setattr(rope_module, "ROPE_BLOCK", row_block)
        geo = small_geometry(n_layers=2)
        spec = small_spec(planted_retrieval_heads=(1, 6), probe_head=1, **layout)
        streamed = gen_synthetic_workload(spec, 3, geo, tmp_path / "streamed")
        save_container(tmp_path / "held",
                       dict(zip(PAYLOAD, per_layer_generation(spec, 3, geo))),
                       {"kind": "workload", "seed": 3, "geometry": geo.to_dict(),
                        "spec": spec.to_dict(), "annotations": streamed.annotations.to_dict()})
        for suffix in (".bin", ".json"):
            held, written = (tmp_path / f"{stem}{suffix}" for stem in ("held", "streamed"))
            assert written.read_bytes() == held.read_bytes(), suffix
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "held.bin", "held.json", "streamed.bin", "streamed.json"]

    def test_without_stem_the_workload_maps_a_removed_payload(self, monkeypatch, tmp_path):
        """A workload generated without a stem leaves nothing in the temp
        directory, and no array of it owns its data: each is a view of the
        payload's map, which outlives the removed file."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        w = gen_synthetic_workload(SMALL_SPEC, 3, small_geometry())
        assert list(tmp_path.iterdir()) == []
        for name in PAYLOAD:
            arr = base = getattr(w, name)
            while isinstance(base, (np.ndarray, memoryview)):
                base = base.obj if isinstance(base, memoryview) else base.base
            assert not arr.flags.owndata and isinstance(base, mmap.mmap), name

    @pytest.mark.parametrize("kind", ["missing", "file", "full"])
    def test_unusable_temp_dir_raises_argument_error(self, monkeypatch, tmp_path, kind):
        """A temp directory that is missing or is a file, or a disk that
        fills while the payload is written, raises ArgumentError naming the
        path, and leaves no file behind."""
        scratch = tmp_path / "tmp"
        if kind == "file":
            scratch.write_text("")
        elif kind == "full":
            scratch.mkdir()

            def full(fd, data, offset):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            monkeypatch.setattr(os, "pwrite", full)
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        with pytest.raises(ArgumentError, match=re.escape(str(scratch))):
            gen_synthetic_workload(SMALL_SPEC, 3, small_geometry())
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if kind == "missing" else ["tmp"])
        if kind == "full":
            assert list(scratch.iterdir()) == []

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        """Eight workers lent eight buffers, switching threads every
        microsecond: a buffer lent to two tasks at once, or a task reading
        content ids before their group's task wrote them, moves bytes."""
        monkeypatch.setattr(workload_module, "_gen_workers", lambda: 8)
        monkeypatch.setattr(rope_module, "ROPE_BLOCK", 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert_matches_per_layer_form(0, seq_len=770)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("label", ["workload-L1-q3", "workload-L1-q1"],
                             ids=["local-head", "retrieval-head"])
    def test_task_error_is_raised_as_it_was(self, monkeypatch, tmp_path, workers, label):
        """An exception inside one stream's task leaves the generator as the
        same object, after every pool thread has ended and the temporary
        container is removed; the tasks queued behind it (local heads 4-7,
        retrieval head 6) still get buffers."""
        error = InternalError(f"no stream for {label}")
        derive_rng = workload_module.derive_rng

        def failing(seed, name):
            if name == label:
                raise error
            return derive_rng(seed, name)

        monkeypatch.setattr(workload_module, "_gen_workers", lambda: workers)
        monkeypatch.setattr(workload_module, "derive_rng", failing)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        threads = threading.active_count()
        with pytest.raises(InternalError) as caught:
            gen_synthetic_workload(SMALL_SPEC, 3, small_geometry(n_layers=2))
        assert caught.value is error
        assert threading.active_count() == threads
        assert list(tmp_path.iterdir()) == []

    def test_peak_is_under_three_head_arrays(self):
        """At 16K the traced peak stays below three float64 (L, d) arrays.
        The payload is written to its file block by block and mapped, so it
        is not on the traced heap.  A layer's four walks are two of the
        arrays; each worker's row buffer with its temporaries (the f32 cast
        ContainerWriter.write makes of a block among them) and the layer's
        content ids, then, once the walks are freed, each worker's retrieval
        head's (L, 16) content band and seek draws fit in the third.  The
        per-layer form held 5.7 beside the payload, one KV group at a time
        2.15, the serial form 2.56; the pool holds 2.63 with one worker and
        2.86 with two, the most workers it starts, so the slack is 0.14 of
        an array (1.1 MiB)."""
        spec = WorkloadSpec(seq_len=16384, decode_len=64)
        geo = default_workload_geometry()
        tracemalloc.start()
        try:
            w = gen_synthetic_workload(spec, 0, geo)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        head = w.seq_len * geo.head_dim * 8
        assert peak < 3 * head, f"{peak / head:.2f} head arrays"


class TestTurnedKeys:
    """keys_post is each float32 key row turned by rope_apply's rule: at
    9,000 tokens, drawn in two ROPE_BLOCK blocks (4,096 rows, then 4,904)
    and turned in eight TURN_BLOCK blocks (the last 1,832 rows), with one
    or two generator workers and two layers."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equal_to_rope_apply_and_rope_rotate(self, monkeypatch, workers):
        monkeypatch.setattr(workload_module, "_gen_workers", lambda: workers)
        geo = default_workload_geometry(n_layers=2)
        w = gen_synthetic_workload(WorkloadSpec(seq_len=9000), 0, geo)
        assert 9000 // ROPE_BLOCK == 2 and 9000 % ROPE_BLOCK
        assert 9000 // workload_module.TURN_BLOCK == 8
        assert w.keys_post.dtype == np.float32
        positions = np.arange(w.seq_len)
        for layer in range(geo.n_layers):
            for g in range(geo.n_kv_heads):
                keys32 = np.asarray(w.keys_pre[layer, g], np.float32)
                assert np.array_equal(w.keys_post[layer, g],
                                      rope_apply(keys32, positions, geo.rope)), (layer, g)
        rng = np.random.default_rng(0)
        for t in rng.choice(np.arange(w.prefill_len, w.seq_len), 16, replace=False):
            for layer in range(geo.n_layers):
                want = rope_rotate(w.keys_pre[layer, :, t], int(t), geo.rope)
                assert np.array_equal(w.keys_post[layer, :, t], want.astype(np.float32)), t


class TestRankTeacher:
    def test_deterministic(self):
        a = gen_rank_teacher(5)
        b = gen_rank_teacher(5)
        np.testing.assert_array_equal(a.a, b.a)
        np.testing.assert_array_equal(a.keys_pre, b.keys_pre)

    def test_row_is_distribution(self):
        t = gen_rank_teacher(0, n_keys=128, n_queries=4)
        row = t.attention_row(t.queries[0])
        assert row.shape == (128,)
        assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_top_tokens_match_sort(self):
        t = gen_rank_teacher(1, n_keys=64, n_queries=2)
        s = t.scores(t.queries[1])
        expect = set(np.argsort(-s, kind="stable")[:8].tolist())
        assert t.top_tokens(t.queries[1], 8) == expect

    def test_score_spread_near_target(self):
        t = gen_rank_teacher(2, n_keys=2048, n_queries=32, score_std=3.0)
        stds = [t.scores(q).std() for q in t.queries]
        assert 1.0 < float(np.mean(stds)) < 9.0
