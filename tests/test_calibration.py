"""Calibration tests: the retrieval score on hand-built streams and on the
planted workload, the head partition, and their persistence."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from headsparse.calibration import (
    calibrate,
    group_retrieval_scores,
    load_partitions,
    partition_heads,
    save_partitions,
)
from headsparse.errors import ArgumentError
from headsparse.indexer import build_stage1_dataset
from headsparse.numerics import softmax
from headsparse.rope import rope_apply, rope_rotate
from headsparse.workload import (
    ModelGeometry,
    Workload,
    WorkloadAnnotations,
    WorkloadSpec,
    default_workload_geometry,
    gen_synthetic_workload,
    qhead_to_kvhead,
)

from test_workload import SMALL_SPEC, small_geometry


def with_ratio(workload, ratio):
    """The same streams under a geometry whose retrieval_ratio is `ratio`."""
    geo = dataclasses.replace(workload.geometry, retrieval_ratio=ratio)
    return dataclasses.replace(workload, geometry=geo)


def rotated_keys(workload, layer, g):
    """One KV group's keys of tokens 0..L-1 turned by rope_apply, as the
    generator turns keys_post."""
    return rope_apply(workload.keys_pre[layer, g], np.arange(workload.seq_len),
                      workload.geometry.rope)


def one_head_scores(n_pre, n_post, keys, query=(0, 0, 0, 0)):
    """group_retrieval_scores of a one-head stream of len(keys) tokens at
    head_dim 4 whose late rows all carry `query`.  At rope_base 1e12 the
    second pair turns 1e-6 rad a token, so a query and key carried there
    score their plain dot product; the first pair is left at 0."""
    keys = np.asarray(keys, np.float32)
    n = len(keys)
    geo = ModelGeometry(n_q_heads=1, n_kv_heads=1, head_dim=4, low_dim=1, rope_base=1e12)
    queries = np.zeros((1, 1, n, 4), np.float32)
    queries[0, 0, list(n_post)] = query
    ann = WorkloadAnnotations((), (0,), tuple(n_pre), tuple(n_post), ())
    w = Workload(geo, WorkloadSpec(seq_len=n, decode_len=1), 0, queries, None,
                 rope_apply(keys, np.arange(n), geo.rope)[None, None], None, ann)
    return group_retrieval_scores(w, 0, 0)[0]


def spike_keys(n, rows, gain=100.0):
    """Keys that are 0 except for `gain` on the second pair's first dim at `rows`."""
    keys = np.zeros((n, 4))
    keys[list(rows), 2] = gain
    return keys


class TestRetrievalScore:
    """The score of one head from its late rows, on hand-built streams."""

    def test_full_mass_gives_one(self):
        score = one_head_scores((0, 1), (6, 7), spike_keys(8, (0, 1)), (0, 0, 100, 0))
        assert score == pytest.approx(1.0, abs=1e-15) and score <= 1.0

    def test_uniform_causal_hand_value(self):
        # zero queries attend uniformly over the t + 1 visible tokens
        got = one_head_scores((0, 1), (6, 7), np.ones((8, 4)))
        assert got == pytest.approx((2 / 7 + 2 / 8) / 2, abs=1e-12)
        assert got == pytest.approx(0.2679, abs=5e-5)

    def test_zero_mass(self):
        assert one_head_scores((0,), (5,), spike_keys(8, (4,)), (0, 0, 100, 0)) == 0.0

    def test_future_tokens_carry_no_mass(self):
        # the late row at 5 cannot see the spike at 6, so it stays uniform
        got = one_head_scores((0,), (5,), spike_keys(8, (6,)), (0, 0, 100, 0))
        assert got == pytest.approx(1 / 6, abs=1e-15)

    def test_monotone_under_mass_transfer(self):
        query = (0, 0, 1, 0)
        base = one_head_scores((0, 1), (6,), spike_keys(8, (5,), 1.0), query)
        moved = one_head_scores((0, 1), (6,), spike_keys(8, (1,), 1.0), query)
        assert moved > base


class TestPartitionHeads:
    def test_top1_of_4(self):
        part = partition_heads([0.9, 0.1, 0.2, 0.05], 0.25)
        assert part.retrieval_set == (0,)
        assert part.local_set == (1, 2, 3)

    def test_full_ratio(self):
        part = partition_heads([0.1, 0.2], 1.0)
        assert part.retrieval_set == (0, 1)
        assert part.local_set == ()

    def test_tie_break_by_index(self):
        part = partition_heads([0.5, 0.5, 0.5, 0.5], 0.5)
        assert part.retrieval_set == (0, 1)

    def test_boundary_scores_ordered(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.random(16)
            part = partition_heads(scores, 0.3)
            if part.retrieval_set and part.local_set:
                assert min(scores[list(part.retrieval_set)]) >= max(
                    scores[list(part.local_set)]
                )

    def test_rank_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.random(12)
        base = partition_heads(scores, 0.25)
        for transform in (np.exp, lambda s: 3 * s + 7, lambda s: s**3):
            same = partition_heads(transform(scores), 0.25)
            assert same.retrieval_set == base.retrieval_set

    def test_ratio_bounds(self):
        with pytest.raises(ArgumentError):
            partition_heads([0.5], 0.0)
        with pytest.raises(ArgumentError):
            partition_heads([0.5], 1.5)

    def test_rounding_half_up(self):
        # 0.15 * 16 = 2.4 -> 2; 0.15 * 10 = 1.5 -> 2
        assert len(partition_heads(list(np.arange(16.0)), 0.15).retrieval_set) == 2
        assert len(partition_heads(list(np.arange(10.0)), 0.15).retrieval_set) == 2


class TestWorkloadCalibration:
    def test_planted_heads_selected(self):
        for seed in (0, 1, 2):
            w = gen_synthetic_workload(SMALL_SPEC, seed, small_geometry())
            parts = calibrate(w)
            assert len(parts) == 1
            # round(0.15 * 8) = 1: only the strongest planted head fits, so
            # widen the ratio to the planted count for this check.
            part = calibrate(with_ratio(w, 2 / 8))[0]
            assert set(part.retrieval_set) == set(
                w.annotations.planted_retrieval_heads
            )

    def test_planted_scores_dominate(self):
        w = gen_synthetic_workload(SMALL_SPEC, 5, small_geometry())
        part = calibrate(w)[0]
        planted = set(w.annotations.planted_retrieval_heads)
        planted_scores = [part.scores[h] for h in planted]
        other_scores = [
            part.scores[h] for h in range(part.n_heads) if h not in planted
        ]
        assert min(planted_scores) > 0.8
        assert max(other_scores) < 0.2

    def test_head_score_uses_annotations(self):
        w = gen_synthetic_workload(SMALL_SPEC, 8, small_geometry())
        h = w.annotations.planted_retrieval_heads[0]
        g = qhead_to_kvhead(w.geometry, h)
        scores = group_retrieval_scores(w, 0, g)
        assert scores[h - g * w.geometry.group_size] > 0.8


def reference_scores(workload):
    """The per-row form over arrays: one float64 attention row per late
    position and query head, from the rotated query and the widened keys
    of tokens 0..t, and the mean of its early-span masses;
    (n_layers, n_q_heads)."""
    geo, ann = workload.geometry, workload.annotations
    out = np.zeros((geo.n_layers, geo.n_q_heads))
    for layer in range(geo.n_layers):
        keys = [rotated_keys(workload, layer, g).astype(np.float64)
                for g in range(geo.n_kv_heads)]
        for h in range(geo.n_q_heads):
            k = keys[qhead_to_kvhead(geo, h)]
            masses = []
            for t in ann.n_post:
                q = rope_rotate(workload.queries[layer, h, t], t, geo.rope)
                weights = softmax(k[: t + 1] @ q * geo.scale)
                masses.append(weights[list(ann.n_pre)].sum())
            out[layer, h] = np.mean(masses)
    return out


def reference_calibrate(workload, ratio):
    return [partition_heads(s, ratio) for s in reference_scores(workload)]


def assert_matches_reference(got, want):
    """Scores within 1e-12 relative of the per-row form; identical splits."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g.scores, w.scores, rtol=1e-12, atol=0)
        assert g.retrieval_set == w.retrieval_set
        assert g.local_set == w.local_set
        assert g.ratio == w.ratio


class TestBatchedScores:
    """calibrate's one masked product per KV group against the per-row
    form."""

    @pytest.mark.parametrize("n_layers, n_kv_heads", [(1, 4), (2, 8), (2, 2)])
    def test_matches_per_row_form(self, n_layers, n_kv_heads):
        # group sizes 2, 1 and 4 over 8 query heads
        geo = small_geometry(n_layers=n_layers, n_kv_heads=n_kv_heads)
        for seed in (0, 1):
            w = gen_synthetic_workload(SMALL_SPEC, seed, geo)
            ratio = geo.retrieval_ratio
            assert_matches_reference(calibrate(w), reference_calibrate(w, ratio))

    @pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0])
    def test_ratio_override(self, ratio):
        w = gen_synthetic_workload(SMALL_SPEC, 6, small_geometry(n_kv_heads=8))
        assert_matches_reference(calibrate(with_ratio(w, ratio)),
                                 reference_calibrate(w, ratio))

    def test_group_scores_per_head(self):
        geo = small_geometry(n_kv_heads=2)
        w = gen_synthetic_workload(SMALL_SPEC, 7, geo)
        want = reference_scores(w)[0]
        for g in range(geo.n_kv_heads):
            got = group_retrieval_scores(w, 0, g)
            heads = slice(g * geo.group_size, (g + 1) * geo.group_size)
            np.testing.assert_allclose(got, want[heads], rtol=1e-12, atol=0)

    def test_keys_must_reach_late_span(self):
        w = gen_synthetic_workload(SMALL_SPEC, 7, small_geometry())
        short = dataclasses.replace(w, keys_post=w.keys_post[..., : max(w.annotations.n_post), :])
        with pytest.raises(ArgumentError):
            group_retrieval_scores(short, 0, 0)


def test_offline_stages_never_read_values():
    """Calibration and stage 1 score the workload's rotated keys without a
    cache, so a workload without values gives what the full workload gives,
    and calibration reads no pre-rotation key either."""
    w = gen_synthetic_workload(SMALL_SPEC, 3, small_geometry())
    no_values = dataclasses.replace(w, values=None)
    assert calibrate(dataclasses.replace(no_values, keys_pre=None)) == calibrate(w)
    for h in w.annotations.planted_retrieval_heads:
        got = build_stage1_dataset(no_values, w.geometry, 0, h, seed=3, n_rows=32)
        want = build_stage1_dataset(w, w.geometry, 0, h, seed=3, n_rows=32)
        for name in ("keys_pre", "queries", "positions", "attn"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_calibrate_holds_one_cache_at_a_time():
    """Traced peak of calibrate on a 16K workload stays below 3.5 caches of
    n * (16 d + 8) bytes, the unit a KV cache of the stream takes.  It
    builds no cache and turns no key: the group's score rows over the
    workload's rotated keys (measured 1.00; 1.75 when calibration turned
    each group's keys with a shared cos/sin table)."""
    w = gen_synthetic_workload(WorkloadSpec(seq_len=16384, decode_len=64), 0,
                               default_workload_geometry())
    cache_bytes = w.seq_len * (16 * w.geometry.head_dim + 8)
    tracemalloc.start()
    try:
        calibrate(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * cache_bytes, f"peak {peak / cache_bytes:.2f} caches"


class TestPersistence:
    def test_round_trip(self, tmp_path):
        w = gen_synthetic_workload(SMALL_SPEC, 2, small_geometry())
        parts = calibrate(with_ratio(w, 0.25))
        path = tmp_path / "partition.csv"
        save_partitions(path, parts)
        back = load_partitions(path, ratio=0.25)
        assert back == parts

    def test_role_ratio_mismatch_detected(self, tmp_path):
        parts = [partition_heads([0.9, 0.1, 0.2, 0.05], 0.25)]
        path = tmp_path / "partition.csv"
        save_partitions(path, parts)
        with pytest.raises(ArgumentError):
            load_partitions(path, ratio=0.75)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArgumentError):
            load_partitions(tmp_path / "nope.csv", ratio=0.15)
