"""Indexer tests: projected scoring, the KL loss and its analytic
gradients against finite differences and the per-row reference, the
batched stage-1 dataset, and training on the planted low-rank teacher."""

import math

import numpy as np
import pytest
from helpers import gen_rank_teacher

import headsparse.rope as rope_module
from headsparse.errors import ArgumentError, InternalError, NumericError
from headsparse.indexer import (
    ProjectedKeyCache,
    Projector,
    Stage1Config,
    Stage1Dataset,
    build_stage1_dataset,
    init_projector,
    projector_grad,
    train_projector,
)
from headsparse.numerics import softmax, softmax_kl
from headsparse.rope import RopeParams
from headsparse.selection import top_k_static, top_p_exact
from headsparse.workload import (
    KVCacheHead,
    WorkloadSpec,
    build_cache,
    default_workload_geometry,
    dense_row_scores,
    gen_synthetic_workload,
    visible_rows,
)


def projected_scores(query_pre, cache, keys_pre, projector, query_position):
    """Projected relevance scores for every token visible at query_position,
    recomputed from all the pre-rotation rows the cache was filled with; the
    reference for ProjectedKeyCache."""
    q = np.asarray(query_pre, np.float64)
    if q.shape != (projector.head_dim,):
        raise ArgumentError(
            f"query length {q.shape} does not match projector head_dim {projector.head_dim}"
        )
    if cache.rope.head_dim != projector.head_dim:
        raise ArgumentError("cache head_dim does not match projector")
    rows = visible_rows(cache, query_position)
    u = projector.w_q @ q
    proj_keys = np.asarray(keys_pre, np.float32)[rows].astype(np.float64) @ projector.w_k.T
    return proj_keys @ u


def index_recall(selected, reference_top):
    """Fraction of the reference top set that the selection recovered."""
    ref = set(reference_top)
    if not ref:
        raise ArgumentError("reference set must be non-empty")
    return len(set(selected) & ref) / len(ref)


def fill_cache(rng, d=16, n=32, capacity=None):
    """A cache of n random rows, with room for `capacity` (n by default),
    and the float32 keys it was filled with."""
    keys = rng.normal(size=(n, d)).astype(np.float32)
    cache = KVCacheHead(RopeParams(d), capacity or n)
    cache.extend(keys, rng.normal(size=(n, d)), np.arange(n))
    return cache, keys


def teacher_dataset(teacher, queries):
    """Shared-key form: every row sees all of the teacher's keys."""
    rows = np.stack([teacher.attention_row(q) for q in queries])
    last = np.full(len(queries), len(teacher.keys_pre) - 1)
    return Stage1Dataset(teacher.keys_pre, np.asarray(queries), last, rows)


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
        cache, keys = fill_cache(rng)
        proj = Projector(np.eye(16), np.eye(16))
        q = rng.normal(size=16)
        got = projected_scores(q, cache, keys, proj, query_position=20)
        expect = keys[:21].astype(float) @ q
        np.testing.assert_allclose(got, expect, atol=1e-6)

    def test_null_projection(self):
        rng = np.random.default_rng(1)
        cache, keys = fill_cache(rng)
        proj = Projector(np.zeros((4, 16)), np.ones((4, 16)))
        got = projected_scores(rng.normal(size=16), cache, keys, proj, query_position=5)
        np.testing.assert_array_equal(got, np.zeros(6))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(2)
        cache, keys = fill_cache(rng, n=32)
        proj = Projector(rng.normal(size=(8, 16)), rng.normal(size=(8, 16)))
        q = rng.normal(size=16)
        got = projected_scores(q, cache, keys, proj, query_position=31)
        for n in range(32):
            s = 0.0
            for i in range(8):
                s += float(proj.w_q[i] @ q) * float(proj.w_k[i] @ keys[n].astype(float))
            assert got[n] == pytest.approx(s, abs=1e-6)

    def test_causal_mask(self):
        rng = np.random.default_rng(3)
        cache, keys = fill_cache(rng)
        proj = init_projector(4, 16, seed=0)
        assert projected_scores(rng.normal(size=16), cache, keys, proj, query_position=7).size == 8

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        cache, keys = fill_cache(rng)
        proj = init_projector(4, 8, seed=0)
        with pytest.raises(ArgumentError):
            projected_scores(rng.normal(size=16), cache, keys, proj, query_position=3)

    def test_projected_key_cache_matches(self):
        rng = np.random.default_rng(6)
        cache, keys = fill_cache(rng, n=20, capacity=29)
        proj = init_projector(8, 16, seed=2)
        pkc = ProjectedKeyCache(proj, capacity=29)
        pkc.extend(keys)
        q = rng.normal(size=16)
        np.testing.assert_allclose(
            pkc.scores(cache, q, 12), projected_scores(q, cache, keys, proj, 12), atol=1e-12
        )
        # grow the cache and re-score: incremental projection must agree
        more = rng.normal(size=(9, 16))
        cache.extend(more, rng.normal(size=(9, 16)), np.arange(20, 29))
        pkc.extend(more)
        keys = np.concatenate([keys, more.astype(np.float32)])
        np.testing.assert_allclose(
            pkc.scores(cache, q, 28), projected_scores(q, cache, keys, proj, 28), atol=1e-12
        )

    @pytest.mark.parametrize("n", [4096, 4097, 8969, 12_388])
    def test_blocks_keep_the_bits_of_one_product(self, n):
        """Projected one row_blocks block at a time, the last block taking
        the remainder, the keys score with the bits of the one product
        `keys @ w_k.T` over all of them, as when the cache's whole prompt
        was projected at once."""
        rng = np.random.default_rng(n)
        keys = (rng.normal(size=(n, 64)) * 12).astype(np.float32)
        proj = init_projector(16, 64, seed=n)
        pkc = ProjectedKeyCache(proj, capacity=n)
        pkc.extend(keys)
        cache = KVCacheHead(RopeParams(64), capacity=n)
        cache.extend(keys, keys, np.arange(n))
        q = rng.normal(size=64)
        want = (keys.astype(np.float64) @ proj.w_k.T) @ (proj.w_q @ q)
        assert np.array_equal(pkc.scores(cache, q, n - 1), want)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_edges_feed_every_row_once(self, monkeypatch, block):
        """With ROPE_BLOCK at 1, 7 and 64, a prompt at a length no multiple of
        it and then single appends give the rows of the reference projection
        in order, each once (equal up to the rounding of shorter products)."""
        monkeypatch.setattr(rope_module, "ROPE_BLOCK", block)
        rng = np.random.default_rng(block)
        keys = (rng.normal(size=(333, 16)) * 12).astype(np.float32)
        proj = init_projector(8, 16, seed=block)
        cache = KVCacheHead(RopeParams(16), capacity=333)
        pkc = ProjectedKeyCache(proj, capacity=333)
        cache.extend(keys[:300], keys[:300], np.arange(300))
        pkc.extend(keys[:300])
        for t in range(300, 333):
            cache.append(keys[t], keys[t], t)
            pkc.extend(keys[t : t + 1])
        for t in (0, 150, 299, 332):
            q = rng.normal(size=16)
            want = projected_scores(q, cache, keys, proj, t)
            got = pkc.scores(cache, q, t)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_scores_out_of_step_with_the_cache_raise(self):
        rng = np.random.default_rng(8)
        cache, keys = fill_cache(rng, n=20)
        pkc = ProjectedKeyCache(init_projector(4, 16, seed=0), capacity=21)
        q = rng.normal(size=16)
        with pytest.raises(InternalError):
            pkc.scores(cache, q, 5)
        pkc.extend(keys[:19])
        with pytest.raises(InternalError):
            pkc.scores(cache, q, 19)
        pkc.extend(keys[19:])
        assert pkc.scores(cache, q, 19).shape == (20,)
        pkc.extend(keys[:1])
        with pytest.raises(InternalError):
            pkc.scores(cache, q, 19)
        with pytest.raises(ArgumentError):
            pkc.extend(keys[0])

    def test_extend_past_capacity(self):
        """Sized once like the cache it follows: one row past capacity is a
        broken invariant, and nothing is projected."""
        rng = np.random.default_rng(9)
        _, keys = fill_cache(rng, n=6)
        pkc = ProjectedKeyCache(init_projector(4, 16, seed=0), capacity=5)
        pkc.extend(keys[:4])
        with pytest.raises(InternalError):
            pkc.extend(keys[4:6])
        assert len(pkc) == 4
        pkc.extend(keys[4:5])
        with pytest.raises(InternalError):
            pkc.extend(keys[5:6])
        assert len(pkc) == 5


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


def projector_loss(full_attn, proj_scores):
    return float(softmax_kl(full_attn, proj_scores)[0])


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


def random_instance(rng, n=24, d=12, r=5, n_rows=3, gain=0.25):
    """Rows at varied positions over one key matrix.  gain 0.25 keeps the
    projected scores within a few units, so central differences at h = 1e-4
    stay far inside the 1e-4 relative bound."""
    proj = Projector(rng.normal(size=(r, d)) * gain, rng.normal(size=(r, d)) * gain)
    positions = rng.integers(n // 2, n, size=n_rows)
    raw = rng.normal(size=(n_rows, n)) * 2
    raw[np.arange(n)[None, :] > positions[:, None]] = -np.inf
    keys = rng.normal(size=(n, d))
    return proj, Stage1Dataset(keys, rng.normal(size=(n_rows, d)), positions, softmax(raw))


def take(ds, idx):
    return Stage1Dataset(ds.keys_pre, ds.queries[idx], ds.positions[idx], ds.attn[idx])


def batch_loss(proj, ds):
    """Mean row KL, scored one row at a time over each row's own prefix."""
    total = 0.0
    for u, t, p in zip(ds.queries, ds.positions, ds.attn):
        s = (proj.w_q @ u) @ (proj.w_k @ ds.keys_pre[: t + 1].T)
        total += projector_loss(p[: t + 1], s)
    return total / len(ds.positions)


def per_row_grad(ds, proj):
    """The per-row loop that the batched projector_grad replaced; the
    reference the batch gradient is held to."""
    g_wq, g_wk = np.zeros_like(proj.w_q), np.zeros_like(proj.w_k)
    for u, t, p in zip(ds.queries, ds.positions, ds.attn):
        keys = np.asarray(ds.keys_pre[: t + 1], np.float64)
        a = proj.w_q @ u
        kt_rho = keys.T @ (softmax((keys @ proj.w_k.T) @ a) - p[: t + 1])
        g_wq += np.outer(proj.w_k @ kt_rho, u)
        g_wk += np.outer(a, kt_rho)
    return g_wq / len(ds.positions), g_wk / len(ds.positions)


def assert_grads_close(got, want, rtol=1e-12):
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= rtol * np.abs(w).max()


class TestProjectorGrad:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(7)
        proj, ds = random_instance(rng)
        s = (ds.queries @ proj.w_q.T) @ (proj.w_k @ ds.keys_pre.T)
        s[np.arange(24)[None, :] > ds.positions[:, None]] = -np.inf
        at_optimum = Stage1Dataset(ds.keys_pre, ds.queries, ds.positions, softmax(s))
        g_wq, g_wk, loss = projector_grad(at_optimum, proj)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.abs(g_wq).max() <= 1e-6
        assert np.abs(g_wk).max() <= 1e-6

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-4
        for _ in range(8):
            proj, ds = random_instance(rng)
            g_wq, g_wk, _ = projector_grad(ds, proj)
            for mat_name, grad in (("w_q", g_wq), ("w_k", g_wk)):
                for _ in range(6):
                    i = int(rng.integers(grad.shape[0]))
                    j = int(rng.integers(grad.shape[1]))
                    bumped = proj.copy()
                    getattr(bumped, mat_name)[i, j] += h
                    dipped = proj.copy()
                    getattr(dipped, mat_name)[i, j] -= h
                    fd = (batch_loss(bumped, ds) - batch_loss(dipped, ds)) / (2 * h)
                    if abs(grad[i, j]) > 1e-6:
                        assert abs(fd - grad[i, j]) / abs(grad[i, j]) < 1e-4

    def test_reported_loss_is_the_descended_function(self):
        # projected scores span ~60 units, so softmax entries fall below
        # 1e-9 where the attention row still has mass: the loss must be the
        # exact KL, with no floor, for its central differences to match
        rng = np.random.default_rng(12)
        proj, ds = random_instance(rng, gain=1.0)
        s = (ds.queries @ proj.w_q.T) @ (proj.w_k @ ds.keys_pre.T)
        visible = np.arange(24)[None, :] <= ds.positions[:, None]
        assert softmax(np.where(visible, s, -np.inf))[visible].min() < 1e-9

        def reported(p):
            return projector_grad(ds, p)[2]

        assert reported(proj) == pytest.approx(batch_loss(proj, ds), rel=1e-12)
        g_wq, g_wk, _ = projector_grad(ds, proj)
        h = 1e-4
        for mat_name, grad in (("w_q", g_wq), ("w_k", g_wk)):
            for i, j in np.ndindex(grad.shape):
                bumped = proj.copy()
                getattr(bumped, mat_name)[i, j] += h
                dipped = proj.copy()
                getattr(dipped, mat_name)[i, j] -= h
                fd = (reported(bumped) - reported(dipped)) / (2 * h)
                if abs(grad[i, j]) > 1e-6:
                    assert abs(fd - grad[i, j]) / abs(grad[i, j]) < 1e-4, (mat_name, i, j)

    @pytest.mark.parametrize("seed", range(6))
    def test_batch_matches_per_row_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        proj, ds = random_instance(rng, n=200, d=16, r=8, n_rows=32, gain=0.5)
        assert len(set(ds.positions.tolist())) > 10
        assert_grads_close(projector_grad(ds, proj)[:2], per_row_grad(ds, proj))

    def test_shared_key_teacher_form_matches_per_row_reference(self):
        teacher = gen_rank_teacher(3, n_keys=512, n_queries=48)
        ds = teacher_dataset(teacher, teacher.queries)
        for seed in range(3):
            proj = init_projector(16, 64, seed)
            assert_grads_close(projector_grad(ds, proj)[:2], per_row_grad(ds, proj))

    def test_mass_past_position_rejected(self):
        rng = np.random.default_rng(13)
        proj, ds = random_instance(rng)
        leaky = ds.attn.copy()
        row = int(np.argmin(ds.positions))
        leaky[row] = softmax(np.zeros(24))
        with pytest.raises(NumericError):
            projector_grad(Stage1Dataset(ds.keys_pre, ds.queries, ds.positions, leaky), proj)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(9)
        proj, ds = random_instance(rng)
        g1 = projector_grad(ds, proj)
        g2 = projector_grad(take(ds, np.tile(np.arange(3), 2)), proj)
        np.testing.assert_allclose(g1[0], g2[0], atol=1e-12)
        np.testing.assert_allclose(g1[1], g2[1], atol=1e-12)

    def test_empty_batch(self):
        rng = np.random.default_rng(10)
        proj, ds = random_instance(rng)
        with pytest.raises(ArgumentError):
            projector_grad(take(ds, np.array([], int)), proj)


class TestStage1Dataset:
    @pytest.mark.parametrize("q_head", [2, 5])
    def test_rows_match_per_row_reference(self, q_head):
        geo = default_workload_geometry()
        w = gen_synthetic_workload(WorkloadSpec(seq_len=1024, decode_len=64,
                                                diffuse_support=200), 3, geo)
        ds = build_stage1_dataset(w, geo, 0, q_head, seed=3, n_rows=48)
        cache = build_cache(w, 0, q_head // geo.group_size)
        n = int(ds.positions.max()) + 1
        assert ds.attn.shape == (48, n) and ds.keys_pre.shape == (n, geo.head_dim)
        np.testing.assert_array_equal(ds.keys_pre, w.keys_pre[0, q_head // geo.group_size, :n])
        for u, t, row in zip(ds.queries, ds.positions, ds.attn):
            want = softmax(dense_row_scores(u, t, cache, geo.scale))
            assert np.abs(row[: t + 1] - want).max() <= 1e-12
            assert np.all(row[t + 1 :] == 0)

    def test_positions_sorted_distinct_and_past_floor(self):
        geo = default_workload_geometry()
        w = gen_synthetic_workload(WorkloadSpec(seq_len=768, decode_len=64,
                                                diffuse_support=200), 1, geo)
        ds = build_stage1_dataset(w, geo, 0, 9, seed=1, n_rows=600)
        assert np.all(np.diff(ds.positions) > 0)
        assert ds.positions.min() >= 4 * geo.block_size
        assert len(ds.positions) == 768 - 4 * geo.block_size


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
