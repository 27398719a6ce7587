"""Distillation tests: restricted top-10 KL, its gradient, teacher caching,
and the toy self-distillation loop."""

import math

import numpy as np
import pytest
from helpers import toy_logits_sparse

from headsparse import distill as distill_module
from headsparse.distill import (
    Stage2Config,
    TeacherCache,
    TopKLogits,
    build_teacher_cache,
    distill_grad,
    distill_loss,
    extract_top10,
    gen_toy_corpus,
    make_toy_model,
    toy_logits_dense,
    toy_self_distill,
)
from headsparse.errors import ArgumentError
from headsparse.numerics import softmax
from headsparse.optim import smooth_trace
from headsparse.rope import rope_unrotate_many
from headsparse.selection import top_p_exact


class TestTopKLogits:
    def test_shape_checked(self):
        with pytest.raises(ArgumentError):
            TopKLogits(np.arange(9), np.zeros(9))

    def test_duplicate_indices_rejected(self):
        idx = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 8])
        with pytest.raises(ArgumentError):
            TopKLogits(idx, np.zeros(10))

    def test_increasing_values_rejected(self):
        with pytest.raises(ArgumentError):
            TopKLogits(np.arange(10), np.arange(10, dtype=float))


class TestExtractTop10:
    def test_strictly_decreasing(self):
        top = extract_top10(np.arange(50, 0, -1, dtype=float))
        np.testing.assert_array_equal(top.indices, np.arange(10))

    def test_all_equal_tie_break(self):
        top = extract_top10(np.zeros(30))
        np.testing.assert_array_equal(top.indices, np.arange(10))

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=100)
        top = extract_top10(z)
        oracle = np.argsort(-z, kind="stable")[:10]
        np.testing.assert_array_equal(top.indices, oracle)
        np.testing.assert_array_equal(top.values, z[oracle])
        assert np.all(np.diff(top.values) <= 0)

    def test_small_vocab_rejected(self):
        with pytest.raises(ArgumentError):
            extract_top10(np.zeros(9))


class TestDistillLoss:
    def test_teacher_equal_up_to_shift(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=64)
        top = extract_top10(z)
        assert distill_loss(top, z + 3.7) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_vs_uniform(self):
        # teacher puts everything on one index, student is flat on the ten
        vals = np.array([40.0] + [0.0] * 9)
        top = TopKLogits(np.arange(10), vals)
        got = distill_loss(top, np.zeros(64))
        assert got == pytest.approx(math.log(10), abs=1e-10)
        assert got == pytest.approx(2.3026, abs=5e-5)

    def test_off_index_logits_ignored(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=64)
        top = extract_top10(z)
        student = rng.normal(size=64)
        bumped = student.copy()
        mask = np.ones(64, bool)
        mask[top.indices] = False
        bumped[mask] += rng.normal(size=mask.sum()) * 50
        assert distill_loss(top, student) == distill_loss(top, bumped)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            top = extract_top10(rng.normal(size=32))
            assert distill_loss(top, rng.normal(size=32)) >= 0.0

    def test_vocab_too_small(self):
        top = TopKLogits(np.arange(10, 20), np.zeros(10))
        with pytest.raises(ArgumentError):
            distill_loss(top, np.zeros(15))


class TestDistillGrad:
    def test_zero_at_match(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=40)
        top = extract_top10(z)
        assert np.abs(distill_grad(top, z - 1.0)).max() <= 1e-12

    def test_zero_off_indices(self):
        rng = np.random.default_rng(5)
        top = extract_top10(rng.normal(size=80))
        g = distill_grad(top, rng.normal(size=80))
        mask = np.ones(80, bool)
        mask[top.indices] = False
        assert np.all(g[mask] == 0.0)
        # softmax residual sums to zero across the ten
        assert g[top.indices].sum() == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-5
        for _ in range(10):
            top = extract_top10(rng.normal(size=48))
            student = rng.normal(size=48)
            g = distill_grad(top, student)
            for i in top.indices:
                up, dn = student.copy(), student.copy()
                up[i] += h
                dn[i] -= h
                fd = (distill_loss(top, up) - distill_loss(top, dn)) / (2 * h)
                if abs(g[i]) > 1e-6:
                    assert abs(fd - g[i]) / abs(g[i]) < 1e-4


class TestTeacherCache:
    def test_round_trip_bit_exact(self, tmp_path):
        model = make_toy_model(1)
        corpus = gen_toy_corpus(1, n_seq=2, seq_len=64)
        cache = build_teacher_cache(model, corpus)
        cache.save(tmp_path / "teach")
        back = TeacherCache.load(tmp_path / "teach")
        np.testing.assert_array_equal(back.indices, cache.indices)
        np.testing.assert_array_equal(back.values, cache.values)

    def test_entries_match_dense_forward(self):
        model = make_toy_model(2)
        corpus = gen_toy_corpus(2, n_seq=1, seq_len=60)
        cache = build_teacher_cache(model, corpus)
        logits = toy_logits_dense(model, corpus[0])
        for i in (0, 17, 59):
            top = extract_top10(logits[i])
            np.testing.assert_array_equal(cache.entry(0, i).indices, top.indices)

    def test_wrong_kind_rejected(self, tmp_path):
        from headsparse.container import save_container

        save_container(tmp_path / "x", {"w": np.zeros(3)}, {"kind": "projector"})
        with pytest.raises(ArgumentError):
            TeacherCache.load(tmp_path / "x")


class TestToyModel:
    def test_deterministic(self):
        a, b = make_toy_model(7), make_toy_model(7)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_p_one_sparse_equals_dense(self):
        model = make_toy_model(3)
        tokens = gen_toy_corpus(3, n_seq=1, seq_len=80)[0]
        dense = toy_logits_dense(model, tokens)
        sparse = toy_logits_sparse(model, tokens, 1.0)
        np.testing.assert_allclose(sparse, dense, atol=1e-12)

    def test_sparse_differs_at_low_p(self):
        model = make_toy_model(3)
        tokens = gen_toy_corpus(3, n_seq=1, seq_len=80)[0]
        dense = toy_logits_dense(model, tokens)
        sparse = toy_logits_sparse(model, tokens, 0.5)
        assert np.abs(sparse - dense).max() > 1e-4

    def test_corpus_replay_planted(self):
        tokens = gen_toy_corpus(9, n_seq=3, seq_len=96, motif_len=16)
        np.testing.assert_array_equal(
            tokens[:, 96 - 16 - 8 : 96 - 8], tokens[:, 4:20]
        )


def batch_mean_loss(model, corpus, teacher, p):
    total = 0.0
    for s in range(corpus.shape[0]):
        logits = toy_logits_sparse(model, corpus[s], p)
        for i in range(corpus.shape[1]):
            total += distill_loss(teacher.entry(s, i), logits[i])
    return total / corpus.size


class TestToyBackward:
    def test_batch_kl_matches_scalar_ops(self):
        from headsparse.distill import _restricted_kl_batch

        rng = np.random.default_rng(8)
        logits = rng.normal(size=(15, 64))
        tops = [extract_top10(rng.normal(size=64)) for _ in range(15)]
        t_idx = np.stack([t.indices for t in tops])
        t_val = np.stack([t.values for t in tops])
        loss, g = _restricted_kl_batch(t_idx, t_val, logits)
        want = np.mean([distill_loss(t, z) for t, z in zip(tops, logits)])
        assert loss == pytest.approx(float(want), abs=1e-12)
        want_g = np.stack([distill_grad(t, z) for t, z in zip(tops, logits)]) / 15
        np.testing.assert_allclose(g, want_g, atol=1e-14)

    def test_finite_difference_full_p(self):
        # p = 1 keeps every token active, so no selection boundary can flip
        # under the bump and the fixed-routing gradient is the exact one
        from headsparse.distill import _sparse_forward, _toy_backward

        model = make_toy_model(5, vocab=32, d=8)
        corpus = gen_toy_corpus(5, n_seq=1, seq_len=44, vocab=32)
        teacher = build_teacher_cache(model, corpus)
        proj = model.frozen_projector()
        tokens = corpus[0]
        fwd = _sparse_forward(model.params, tokens, model.rope, model.scale, 1.0, proj)
        grads, _ = _toy_backward(model.params, tokens, fwd, teacher.indices[0],
                                 teacher.values[0], model.rope, model.scale)
        rng = np.random.default_rng(0)
        h = 1e-6
        for name in sorted(grads):
            g = grads[name]
            for _ in range(4):
                i = int(rng.integers(g.shape[0]))
                j = int(rng.integers(g.shape[1]))
                vals = []
                for delta in (h, -h):
                    bumped = model.copy()
                    bumped.params[name][i, j] += delta
                    vals.append(batch_mean_loss(bumped, corpus, teacher, 1.0))
                fd = (vals[0] - vals[1]) / (2 * h)
                assert fd == pytest.approx(g[i, j], rel=2e-3, abs=1e-7), name


def inline_dense_logits(model, tokens):
    """Reference: the teacher forward with its softmax written inline."""
    params = model.params
    _, pos, qh, kh, v = distill_module._embed_project(params, tokens, model.rope)
    scores = (qh @ kh.T) * model.scale
    scores = np.where(pos[None, :] <= pos[:, None], scores, -np.inf)
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = shifted / shifted.sum(axis=1, keepdims=True)
    return ((weights @ v) @ params["w_o"].T) @ params["w_head"].T


def per_row_forward_backward(model, tokens, p, t_idx, t_val):
    """Reference: the student forward and backward one row at a time over
    each row's gathered top-p set. Returns (logits, loss, grads)."""
    params, scale = model.params, model.scale
    x, pos, qh, kh, v = distill_module._embed_project(params, tokens, model.rope)
    proj = model.frozen_projector()
    sel = (x @ proj.w_q.T) @ (proj.w_k @ x.T)
    active, weights, attn = [], [], np.empty_like(x)
    for i in range(tokens.size):
        s_i = top_p_exact(sel[i, : i + 1], p).active_set
        w_i = softmax((kh[s_i] @ qh[i]) * scale)
        active.append(s_i)
        weights.append(w_i)
        attn[i] = w_i @ v[s_i]
    y = attn @ params["w_o"].T
    logits = y @ params["w_head"].T
    loss, g_logits = distill_module._restricted_kl_batch(t_idx, t_val, logits)
    g_y = g_logits @ params["w_head"]
    g_attn = g_y @ params["w_o"]
    g_qh, g_kh, g_v = np.zeros_like(qh), np.zeros_like(kh), np.zeros_like(v)
    for i, (s_i, w_i) in enumerate(zip(active, weights)):
        g_w = v[s_i] @ g_attn[i]
        g_u = w_i * (g_w - float(w_i @ g_w))
        g_qh[i] += scale * (g_u @ kh[s_i])
        g_kh[s_i] += scale * g_u[:, None] * qh[i]
        g_v[s_i] += w_i[:, None] * g_attn[i]
    g_q = rope_unrotate_many(g_qh, pos, model.rope)
    g_k = rope_unrotate_many(g_kh, pos, model.rope)
    g_x = g_q @ params["w_q"] + g_k @ params["w_k"] + g_v @ params["w_v"]
    g_emb = np.zeros_like(params["emb"])
    np.add.at(g_emb, tokens, g_x)
    grads = {"emb": g_emb, "w_q": g_q.T @ x, "w_k": g_k.T @ x, "w_v": g_v.T @ x,
             "w_o": g_y.T @ attn, "w_head": g_logits.T @ y}
    return logits, loss, grads


class TestMaskedAttention:
    """The teacher, the student and its backward share one masked attention;
    the per-row forms above are their references."""

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_dense_equals_inline_softmax_form(self, seed):
        model = make_toy_model(seed)
        tokens = gen_toy_corpus(seed, n_seq=1, seq_len=96)[0]
        assert np.array_equal(toy_logits_dense(model, tokens),
                              inline_dense_logits(model, tokens))

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9, 1.0])
    def test_matches_per_row_forms(self, seed, p):
        # a teacher of other weights keeps the gradient macroscopic at p = 1,
        # where the model's own teacher leaves only float32 rounding dust
        model = make_toy_model(seed, vocab=64, d=16)
        corpus = gen_toy_corpus(seed, n_seq=1, seq_len=72, vocab=64)
        teacher = build_teacher_cache(make_toy_model(seed + 100, vocab=64, d=16), corpus)
        tokens, t_idx, t_val = corpus[0], teacher.indices[0], teacher.values[0]
        fwd = distill_module._sparse_forward(model.params, tokens, model.rope,
                                             model.scale, p, model.frozen_projector())
        grads, loss = distill_module._toy_backward(model.params, tokens, fwd, t_idx,
                                                   t_val, model.rope, model.scale)
        want_logits, want_loss, want_grads = per_row_forward_backward(
            model, tokens, p, t_idx, t_val)

        def close(got, want):
            return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        assert close(fwd["logits"], want_logits)
        assert close(np.array(loss), np.array(want_loss))
        for name, want in want_grads.items():
            assert close(grads[name], want), name


class TestSelfDistill:
    def test_missing_teacher(self):
        model = make_toy_model(0)
        corpus = gen_toy_corpus(0, n_seq=2, seq_len=64)
        with pytest.raises(ArgumentError):
            toy_self_distill(model, corpus, None, Stage2Config(steps=1), 0)

    def test_shape_mismatch(self):
        model = make_toy_model(0)
        corpus = gen_toy_corpus(0, n_seq=2, seq_len=64)
        teacher = build_teacher_cache(model, corpus)
        with pytest.raises(ArgumentError):
            toy_self_distill(model, corpus[:, :32], teacher, Stage2Config(steps=1), 0)

    def test_start_at_teacher_full_p(self):
        model = make_toy_model(4)
        corpus = gen_toy_corpus(4, n_seq=2, seq_len=64)
        teacher = build_teacher_cache(model, corpus)
        cfg = Stage2Config(steps=2, top_p=1.0)
        _, trace = toy_self_distill(model, corpus, teacher, cfg, seed=0)
        assert trace[0] <= 1e-6

    def test_zero_lr_flat_trace(self):
        model = make_toy_model(4)
        corpus = gen_toy_corpus(4, n_seq=2, seq_len=64)
        teacher = build_teacher_cache(model, corpus)
        cfg = Stage2Config(steps=5, max_lr=0.0)
        _, trace = toy_self_distill(model, corpus, teacher, cfg, seed=0)
        assert trace[0] > 0
        assert all(v == trace[0] for v in trace)

    def test_deterministic(self):
        model = make_toy_model(4)
        corpus = gen_toy_corpus(4, n_seq=2, seq_len=64)
        teacher = build_teacher_cache(model, corpus)
        cfg = Stage2Config(steps=8)
        _, t1 = toy_self_distill(model, corpus, teacher, cfg, seed=3)
        _, t2 = toy_self_distill(model, corpus, teacher, cfg, seed=3)
        assert t1 == t2

    def test_reference_task_halves_loss(self):
        # baseline run of this exact configuration: smoothed trace fell from
        # 0.0100 to 0.0013 over 100 steps (ratio 0.13); the gate is 0.5
        model = make_toy_model(0)
        corpus = gen_toy_corpus(0, n_seq=4, seq_len=112)
        teacher = build_teacher_cache(model, corpus)
        student, trace = toy_self_distill(
            model, corpus, teacher, Stage2Config(steps=100), seed=0
        )
        sm = smooth_trace(np.array(trace), 20)[19:]
        assert sm[-1] <= 0.5 * sm[0]
        # trained weights moved; the projector snapshot would not have
        assert np.abs(student.params["w_q"] - model.params["w_q"]).max() > 0
