"""Indexer tests: projected scoring, the KL loss and its analytic
gradients against finite differences, and training on the planted
low-rank teacher."""

import math

import numpy as np
import pytest

from headsparse.errors import ArgumentError
from headsparse.indexer import (
    ProjectedKeyCache,
    Projector,
    Stage1Config,
    TrainingRow,
    index_recall,
    init_projector,
    projected_scores,
    projector_grad,
    projector_loss,
    train_projector,
)
from headsparse.numerics import softmax
from headsparse.rope import RopeParams
from headsparse.selection import top_k_static, top_p_exact
from headsparse.workload import KVCacheHead, gen_rank_teacher


def fill_cache(rng, d=16, n=32):
    cache = KVCacheHead(RopeParams(d))
    cache.extend(rng.normal(size=(n, d)), rng.normal(size=(n, d)), np.arange(n))
    return cache


def teacher_dataset(teacher, queries):
    return [TrainingRow(teacher.attention_row(q), q, teacher.keys_pre) for q in queries]


def heldout_recall(proj, teacher, queries, budget=64):
    vals = []
    for q in queries:
        s = (proj.w_q @ q) @ (proj.w_k @ teacher.keys_pre.T)
        sel = set(top_k_static(s, budget).active_set.tolist())
        vals.append(index_recall(sel, teacher.top_tokens(q, budget)))
    return float(np.mean(vals))


RECALL_CONFIG = Stage1Config(steps=1500, max_lr=3e-3, rows_per_step=32)


class TestProjectedScores:
    def test_identity_projection_gives_raw_dots(self):
        rng = np.random.default_rng(0)
        cache = fill_cache(rng)
        proj = Projector(np.eye(16), np.eye(16))
        q = rng.normal(size=16)
        got = projected_scores(q, cache, proj, query_position=20)
        expect = cache.keys_pre[:21].astype(float) @ q
        np.testing.assert_allclose(got, expect, atol=1e-6)

    def test_null_projection(self):
        rng = np.random.default_rng(1)
        cache = fill_cache(rng)
        proj = Projector(np.zeros((4, 16)), np.ones((4, 16)))
        got = projected_scores(rng.normal(size=16), cache, proj, query_position=5)
        np.testing.assert_array_equal(got, np.zeros(6))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(2)
        cache = fill_cache(rng, n=32)
        proj = Projector(rng.normal(size=(8, 16)), rng.normal(size=(8, 16)))
        q = rng.normal(size=16)
        got = projected_scores(q, cache, proj, query_position=31)
        for n in range(32):
            s = 0.0
            for i in range(8):
                s += float(proj.w_q[i] @ q) * float(proj.w_k[i] @ cache.keys_pre[n].astype(float))
            assert got[n] == pytest.approx(s, abs=1e-6)

    def test_causal_mask(self):
        rng = np.random.default_rng(3)
        cache = fill_cache(rng)
        proj = init_projector(4, 16, seed=0)
        assert projected_scores(rng.normal(size=16), cache, proj, query_position=7).size == 8

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        cache = fill_cache(rng)
        proj = init_projector(4, 8, seed=0)
        with pytest.raises(ArgumentError):
            projected_scores(rng.normal(size=16), cache, proj, query_position=3)

    def test_projected_key_cache_matches(self):
        rng = np.random.default_rng(6)
        cache = fill_cache(rng, n=20)
        proj = init_projector(8, 16, seed=2)
        pkc = ProjectedKeyCache(proj, capacity=4)
        q = rng.normal(size=16)
        np.testing.assert_allclose(
            pkc.scores(cache, q, 12), projected_scores(q, cache, proj, 12), atol=1e-12
        )
        # grow the cache and re-score: incremental projection must agree
        cache.extend(rng.normal(size=(9, 16)), rng.normal(size=(9, 16)), np.arange(20, 29))
        np.testing.assert_allclose(
            pkc.scores(cache, q, 28), projected_scores(q, cache, proj, 28), atol=1e-12
        )


class TestRecallMetric:
    def test_perfect(self):
        assert index_recall({1, 2}, {1, 2}) == 1.0

    def test_disjoint(self):
        assert index_recall({5, 6}, {1, 2}) == 0.0

    def test_hand_case(self):
        assert index_recall({2, 4, 9}, {1, 2, 3, 4}) == 0.5

    def test_empty_reference(self):
        with pytest.raises(ArgumentError):
            index_recall({1}, set())


class TestProjectorLoss:
    def test_exact_match_up_to_shift(self):
        p = np.array([0.7, 0.2, 0.1])
        scores = np.log(p) + 13.0
        assert projector_loss(p, scores) == pytest.approx(0.0, abs=1e-12)

    def test_both_uniform(self):
        assert projector_loss(np.full(4, 0.25), np.zeros(4)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        got = projector_loss(np.array([0.9, 0.1]), np.zeros(2))
        expect = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.3681, abs=5e-5)

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            projector_loss(np.array([1.0]), np.zeros(2))


def random_instance(rng, n=24, d=12, r=5):
    # scale 0.25 keeps softmax(scores) well above the KL floor of 1e-9,
    # so central differences see the same smooth loss the gradient assumes
    proj = Projector(rng.normal(size=(r, d)) * 0.25, rng.normal(size=(r, d)) * 0.25)
    rows = []
    for _ in range(3):
        raw = rng.normal(size=n)
        rows.append(TrainingRow(softmax(raw * 2), rng.normal(size=d), rng.normal(size=(n, d))))
    return proj, rows


def batch_loss(proj, rows):
    total = 0.0
    for row in rows:
        s = (proj.w_q @ row.query_pre) @ (proj.w_k @ row.keys_pre.T)
        total += projector_loss(row.full_attn, s)
    return total / len(rows)


class TestProjectorGrad:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(7)
        proj, _ = random_instance(rng)
        row_q = rng.normal(size=12)
        keys = rng.normal(size=(24, 12))
        s = (proj.w_q @ row_q) @ (proj.w_k @ keys.T)
        rows = [TrainingRow(softmax(s), row_q, keys)]
        g_wq, g_wk, loss = projector_grad(rows, proj)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.abs(g_wq).max() <= 1e-6
        assert np.abs(g_wk).max() <= 1e-6

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-3
        for _ in range(8):
            proj, rows = random_instance(rng)
            g_wq, g_wk, _ = projector_grad(rows, proj)
            for mat_name, grad in (("w_q", g_wq), ("w_k", g_wk)):
                for _ in range(6):
                    i = int(rng.integers(grad.shape[0]))
                    j = int(rng.integers(grad.shape[1]))
                    bumped = proj.copy()
                    getattr(bumped, mat_name)[i, j] += h
                    dipped = proj.copy()
                    getattr(dipped, mat_name)[i, j] -= h
                    fd = (batch_loss(bumped, rows) - batch_loss(dipped, rows)) / (2 * h)
                    if abs(grad[i, j]) > 1e-6:
                        assert abs(fd - grad[i, j]) / abs(grad[i, j]) < 1e-4

    def test_duplication_invariance(self):
        rng = np.random.default_rng(9)
        proj, rows = random_instance(rng)
        g1 = projector_grad(rows, proj)
        g2 = projector_grad(rows + rows, proj)
        np.testing.assert_allclose(g1[0], g2[0], atol=1e-12)
        np.testing.assert_allclose(g1[1], g2[1], atol=1e-12)

    def test_empty_batch(self):
        rng = np.random.default_rng(10)
        proj, _ = random_instance(rng)
        with pytest.raises(ArgumentError):
            projector_grad([], proj)


class TestRankingInvariance:
    def test_constant_shift_leaves_selection(self):
        rng = np.random.default_rng(11)
        s = rng.normal(size=200) * 3
        for c in (5.0, -40.0):
            np.testing.assert_array_equal(
                top_p_exact(s, 0.9).active_set, top_p_exact(s + c, 0.9).active_set
            )
            np.testing.assert_array_equal(
                top_k_static(s, 10).active_set, top_k_static(s + c, 10).active_set
            )


class TestTraining:
    @pytest.mark.parametrize("bad", [{"rows_per_step": 0}, {"steps": 0},
                                     {"warmup_steps": -1}])
    def test_config_rejects_empty_batches_and_steps(self, bad):
        with pytest.raises(ArgumentError, match="must be positive"):
            Stage1Config(**bad)

    def test_deterministic(self):
        teacher = gen_rank_teacher(0, n_keys=96, n_queries=16)
        ds = teacher_dataset(teacher, teacher.queries)
        cfg = Stage1Config(steps=30)
        p1, t1 = train_projector(ds, cfg, seed=5)
        p2, t2 = train_projector(ds, cfg, seed=5)
        np.testing.assert_array_equal(p1.w_q, p2.w_q)
        np.testing.assert_array_equal(p1.w_k, p2.w_k)
        assert t1 == t2

    def test_zero_lr_no_op(self):
        teacher = gen_rank_teacher(1, n_keys=64, n_queries=8)
        ds = teacher_dataset(teacher, teacher.queries)
        cfg = Stage1Config(steps=10, max_lr=0.0)
        proj, _ = train_projector(ds, cfg, seed=3)
        fresh = init_projector(proj.r, proj.head_dim, 3, label="stage1-init")
        np.testing.assert_array_equal(proj.w_q, fresh.w_q)
        np.testing.assert_array_equal(proj.w_k, fresh.w_k)

    def test_smoothed_trace_decreases(self):
        teacher = gen_rank_teacher(2, n_keys=256, n_queries=64)
        ds = teacher_dataset(teacher, teacher.queries)
        proj, trace = train_projector(ds, Stage1Config(steps=300), seed=0)
        from headsparse.optim import smooth_trace

        sm = smooth_trace(np.array(trace), 20)
        # partial windows at the head are single-batch noise; judge the
        # non-increase claim on full windows only, with 1% slack
        full = sm[19:]
        assert full[-1] < 0.5 * full[0]
        assert np.diff(full).max() <= 0.01 * full[0]

    def test_planted_rank8_recall(self):
        teacher = gen_rank_teacher(4, n_keys=512, n_queries=192)
        ds = teacher_dataset(teacher, teacher.queries[:128])
        proj, _ = train_projector(ds, RECALL_CONFIG, seed=4, r=16)
        assert heldout_recall(proj, teacher, teacher.queries[128:]) >= 0.9


class TestPersistence:
    def test_round_trip(self, tmp_path):
        proj = init_projector(16, 64, seed=9)
        proj.save(tmp_path / "p", layer=2, head=5)
        back, meta = Projector.load(tmp_path / "p")
        # storage is f32, so compare at f32 resolution
        np.testing.assert_array_equal(back.w_q, proj.w_q.astype(np.float32))
        np.testing.assert_array_equal(back.w_k, proj.w_k.astype(np.float32))
        assert (meta["layer"], meta["head"], meta["r"]) == (2, 5, 16)

    def test_wrong_kind_rejected(self, tmp_path):
        from headsparse.container import save_container

        save_container(tmp_path / "x", {"w_q": np.zeros((2, 2))}, {"kind": "other"})
        with pytest.raises(ArgumentError):
            Projector.load(tmp_path / "x")
