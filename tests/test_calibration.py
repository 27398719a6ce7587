"""Calibration tests: the needle layout, the retrieval score, and the
head partition, plus an end-to-end planted-workload check."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from headsparse.calibration import (
    NeedleLayout,
    calibrate,
    group_retrieval_scores,
    load_partitions,
    partition_heads,
    retrieval_score,
    save_partitions,
)
from headsparse.errors import ArgumentError
from headsparse.workload import (
    WorkloadSpec,
    build_cache,
    build_cache_prefix,
    default_workload_geometry,
    dense_attention,
    gen_synthetic_workload,
    qhead_to_kvhead,
)

from test_workload import SMALL_SPEC, small_geometry


def with_ratio(workload, ratio):
    """The same streams under a geometry whose retrieval_ratio is `ratio`."""
    geo = dataclasses.replace(workload.geometry, retrieval_ratio=ratio)
    return dataclasses.replace(workload, geometry=geo)


def uniform_rows(layout):
    """Causal uniform attention at the late-span positions."""
    return {t: np.full(t + 1, 1.0 / (t + 1)) for t in layout.n_post}


class TestBuildSequence:
    """The layout of a calibration sequence's two needle copies."""

    def test_layout_invariants_enforced(self):
        with pytest.raises(ArgumentError):
            NeedleLayout(n_pre=(0, 5), n_post=(5, 6), total_len=10)
        with pytest.raises(ArgumentError):
            NeedleLayout(n_pre=(6,), n_post=(2,), total_len=10)
        with pytest.raises(ArgumentError):
            NeedleLayout(n_pre=(0,), n_post=(10,), total_len=10)


class TestRetrievalScore:
    def test_full_mass_gives_one(self):
        layout = NeedleLayout((0, 1), (6, 7), 8)
        rows = {}
        for t in layout.n_post:
            w = np.zeros(t + 1)
            w[[0, 1]] = 0.5
            rows[t] = w
        assert retrieval_score(rows, layout) == 1.0

    def test_uniform_causal_hand_value(self):
        layout = NeedleLayout((0, 1), (6, 7), 8)
        got = retrieval_score(uniform_rows(layout), layout)
        assert got == pytest.approx((2 / 7 + 2 / 8) / 2, abs=1e-12)
        assert got == pytest.approx(0.2679, abs=5e-5)

    def test_zero_mass(self):
        layout = NeedleLayout((0,), (5,), 8)
        w = np.zeros(6)
        w[4] = 1.0
        assert retrieval_score({5: w}, layout) == 0.0

    def test_missing_row_rejected(self):
        layout = NeedleLayout((0,), (5, 6), 8)
        w = np.full(6, 1 / 6)
        with pytest.raises(ArgumentError):
            retrieval_score({5: w}, layout)

    def test_monotone_under_mass_transfer(self):
        layout = NeedleLayout((0, 1), (6,), 8)
        w = np.full(7, 1 / 7)
        base = retrieval_score({6: w}, layout)
        w2 = w.copy()
        w2[1] += w2[5]
        w2[5] = 0.0
        moved = retrieval_score({6: w2}, layout)
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
        scores = group_retrieval_scores(w, 0, g, build_cache(w, 0, g))
        assert scores[h - g * w.geometry.group_size] > 0.8


def reference_scores(workload):
    """The per-row form: one dense_attention row per late position and
    query head, reduced by retrieval_score; (n_layers, n_q_heads)."""
    geo = workload.geometry
    ann = workload.annotations
    layout = NeedleLayout(ann.n_pre, ann.n_post, workload.seq_len)
    out = np.zeros((geo.n_layers, geo.n_q_heads))
    for layer in range(geo.n_layers):
        caches = [build_cache(workload, layer, g) for g in range(geo.n_kv_heads)]
        for h in range(geo.n_q_heads):
            cache = caches[qhead_to_kvhead(geo, h)]
            rows = {t: dense_attention(workload.queries[layer, h, t], t, cache).weights
                    for t in layout.n_post}
            out[layer, h] = retrieval_score(rows, layout)
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
    """calibrate's one masked product per KV head against the per-row
    dense_attention form it replaced."""

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
            got = group_retrieval_scores(w, 0, g, build_cache(w, 0, g))
            heads = slice(g * geo.group_size, (g + 1) * geo.group_size)
            np.testing.assert_allclose(got, want[heads], rtol=1e-12, atol=0)

    def test_cache_must_reach_late_span(self):
        w = gen_synthetic_workload(SMALL_SPEC, 7, small_geometry())
        short = build_cache_prefix(w, 0, 0, max(w.annotations.n_post))
        with pytest.raises(ArgumentError):
            group_retrieval_scores(w, 0, 0, short)


def test_calibrate_holds_one_cache_at_a_time():
    """Traced peak of calibrate on a 16K workload stays below 3.5 caches of
    n * (16 d + 8) bytes: one cache at a time, plus its cos/sin table and
    the group's score rows (measured 2.5)."""
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
