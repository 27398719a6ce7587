"""Engine tests: restricted-softmax consistency against sub-cache oracles,
sink+window masks, sparsity accounting, and the full decode loop."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from test_workload import SMALL_SPEC, oracle_on_rows, small_geometry

import headsparse.workload as workload_module
from headsparse.calibration import partition_heads
from headsparse.engine import (
    DecodeTrace,
    FullCaches,
    LocalWindow,
    compute_sparsity,
    local_head_decode,
    local_spans,
    memory_sparsity,
    prefill,
    restricted_attention,
    retrieval_head_decode,
    run_workload,
    sparsity_report,
)
from headsparse.errors import ArgumentError, InternalError
from headsparse.indexer import ProjectedKeyCache, init_projector
from headsparse.reports import record_true_masses
from headsparse.rope import ROPE_BLOCK, RopeParams, rope_apply
from headsparse.selection import histogram_threshold_scores
from headsparse.workload import (
    PAYLOAD,
    KVCacheHead,
    ModelGeometry,
    Workload,
    WorkloadAnnotations,
    WorkloadSpec,
    build_cache,
    default_workload_geometry,
    dense_attention,
    gen_synthetic_workload,
    qhead_to_kvhead,
)


def random_cache(rng, n, d=32):
    """A cache of n random rows at positions 0..n-1, and its float32
    pre-rotation keys (the cache keeps only their rotations)."""
    keys = rng.normal(size=(n, d)).astype(np.float32)
    cache = KVCacheHead(RopeParams(d), capacity=n)
    cache.extend(rope_apply(keys, np.arange(n), cache.rope), rng.normal(size=(n, d)),
                 np.arange(n))
    return cache, keys


def projected(projector, keys_pre):
    """A ProjectedKeyCache extended with the rows of a cache."""
    pkc = ProjectedKeyCache(projector, capacity=len(keys_pre))
    pkc.extend(keys_pre)
    return pkc


def sub_cache(cache, active):
    """Rebuild a cache containing only the active tokens, original positions."""
    sub = KVCacheHead(cache.rope, capacity=max(active.size, 1))
    sub.extend(cache.keys_post[active], cache.values[active], cache.positions[active])
    return sub


def small_partition(n_q=8, ratio=0.25, planted=(1, 6)):
    scores = [1.0 if h in planted else 0.0 for h in range(n_q)]
    return partition_heads(scores, ratio)


SMALL_GEO = small_geometry()
SMALL_WORKLOAD = gen_synthetic_workload(SMALL_SPEC, seed=11, geometry=SMALL_GEO)


def local_active_indices(n_visible, window, n_sinks):
    """Indices a local head attends to: local_spans as one index array."""
    return np.r_[local_spans(n_visible, window, n_sinks)]


def small_projectors(partition, geometry, seed=0):
    return {
        (layer, h): init_projector(geometry.low_dim, geometry.head_dim, seed + 31 * h)
        for layer in range(geometry.n_layers)
        for h in partition.retrieval_set
    }


class TestLocalMask:
    def test_hand_example(self):
        np.testing.assert_array_equal(
            local_active_indices(10, window=2, n_sinks=4), [0, 1, 2, 3, 8, 9]
        )

    def test_short_prefix_covers_all(self):
        np.testing.assert_array_equal(
            local_active_indices(5, window=2, n_sinks=4), np.arange(5)
        )

    def test_exact_boundary(self):
        # tail start == n_sinks: contiguous, no gap and no overlap
        np.testing.assert_array_equal(
            local_active_indices(6, window=2, n_sinks=4), np.arange(6)
        )

    def test_self_only(self):
        np.testing.assert_array_equal(local_active_indices(7, 1, 0), [6])

    def test_rejects_empty(self):
        with pytest.raises(ArgumentError):
            local_active_indices(0, 2, 2)


class TestLocalDecode:
    def test_covered_prefix_equals_dense(self):
        rng = np.random.default_rng(0)
        cache, _ = random_cache(rng, 7)
        q = rng.normal(size=32)
        out = local_head_decode(q, 6, cache, window=4, n_sinks=4)
        np.testing.assert_allclose(out, dense_attention(q, 6, cache).output, atol=1e-5)

    def test_self_only_returns_own_value(self):
        rng = np.random.default_rng(1)
        cache, _ = random_cache(rng, 12)
        out = local_head_decode(rng.normal(size=32), 11, cache, 1, 0)
        np.testing.assert_allclose(out, cache.values[11], atol=1e-12)

    def test_matches_sub_cache_oracle(self):
        rng = np.random.default_rng(2)
        cache, keys = random_cache(rng, 100)
        q = rng.normal(size=32)
        out = local_head_decode(q, 99, cache, window=4, n_sinks=4)
        active = local_active_indices(100, 4, 4)
        assert active.size == 8
        oracle = dense_attention(q, 99, sub_cache(cache, active))
        np.testing.assert_allclose(out, oracle.output, atol=1e-6)

    def test_partial_visibility(self):
        rng = np.random.default_rng(3)
        cache, keys = random_cache(rng, 100)
        q = rng.normal(size=32)
        out = local_head_decode(q, 40, cache, window=8, n_sinks=2)
        active = local_active_indices(41, 8, 2)
        assert active.max() == 40
        oracle = dense_attention(q, 40, sub_cache(cache, active))
        np.testing.assert_allclose(out, oracle.output, atol=1e-6)


class TestGroupedLocalDecode:
    """A (G, d) block of local queries decodes as G one-head decodes, bit
    for bit, each within float32 rounding of the float64 oracle over
    local_active_indices."""

    # (cache length, query position, window, n_sinks)
    CASES = [
        (5, 4, 8, 4),      # prefix shorter than sinks + window
        (12, 11, 8, 4),    # tail start == n_sinks: the two slices meet
        (13, 12, 8, 4),    # one token past the boundary: two slices
        (60, 59, 8, 0),    # no sinks
        (60, 59, 1, 3),    # window of one
        (100, 40, 8, 2),   # cache longer than the query position
        (100, 2, 8, 4),    # partial visibility inside the sinks
    ]

    @pytest.mark.parametrize("group", [1, 2, 4])
    @pytest.mark.parametrize("n, pos, window, n_sinks", CASES)
    def test_matches_per_head_restricted_attention(self, group, n, pos, window,
                                                   n_sinks):
        rng = np.random.default_rng(group * 1000 + n + pos)
        cache, _ = random_cache(rng, n)
        queries = rng.normal(size=(group, 32)).astype(np.float32)
        outs = local_head_decode(queries, pos, cache, window, n_sinks)
        want = local_active_indices(pos + 1, window, n_sinks)
        assert outs.shape == (group, 32)
        for q, out in zip(queries, outs):
            _, ref = oracle_on_rows(q, pos, cache, want, 1 / np.sqrt(32))
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("group", [2, 3, 4])
    @pytest.mark.parametrize("n, pos, window, n_sinks", CASES + [(2000, 1999, 512, 4)])
    def test_rows_bit_identical_to_one_head_calls(self, group, n, pos, window, n_sinks):
        """Each query row is its own product in both attend products, so a
        grouped row has the bits of the same head decoded alone."""
        rng = np.random.default_rng(group * 7 + n + pos)
        cache, _ = random_cache(rng, n)
        queries = rng.normal(size=(group, 32)) * 3
        outs = local_head_decode(queries, pos, cache, window, n_sinks)
        for q, out in zip(queries, outs):
            assert np.array_equal(out, local_head_decode(q, pos, cache, window, n_sinks))

    def test_vector_query_keeps_its_shape(self):
        rng = np.random.default_rng(12)
        cache, _ = random_cache(rng, 30)
        q = rng.normal(size=32)
        out = local_head_decode(q, 29, cache, 8, 4)
        block = local_head_decode(q[None, :], 29, cache, 8, 4)
        assert out.shape == (32,)
        np.testing.assert_array_equal(out, block[0])


class TestRetrievalDecode:
    def test_p_one_equals_dense(self):
        rng = np.random.default_rng(4)
        cache, keys = random_cache(rng, 300)
        proj = init_projector(8, 32, seed=0)
        q = rng.normal(size=32)
        trace = retrieval_head_decode(q, 299, cache, projected(proj, keys), p=1.0)
        assert trace.tokens_selected == 300
        np.testing.assert_allclose(trace.output, dense_attention(q, 299, cache).output,
                                   atol=1e-5)

    def test_single_token_cache(self):
        rng = np.random.default_rng(5)
        cache, keys = random_cache(rng, 1)
        trace = retrieval_head_decode(
            rng.normal(size=32), 0, cache, projected(init_projector(8, 32, 0), keys), p=0.9
        )
        np.testing.assert_allclose(trace.output, cache.values[0], atol=1e-12)
        assert trace.tokens_selected == 1

    @pytest.mark.parametrize("mode", ["exact", "histogram"])
    def test_restricted_softmax_oracle_4k(self, mode):
        rng = np.random.default_rng(6)
        cache, keys = random_cache(rng, 4096)
        proj = init_projector(8, 32, seed=1)
        q = rng.normal(size=32)
        trace = retrieval_head_decode(
            q, 4095, cache, projected(proj, keys), p=0.9, mode=mode
        )
        assert 0 < trace.tokens_selected < 4096
        assert trace.covered_projected_mass >= 0.9
        oracle = dense_attention(q, 4095, sub_cache(cache, trace.active_set))
        np.testing.assert_allclose(trace.output, oracle.output, atol=1e-6)

    def test_histogram_runs_match_gather(self, monkeypatch):
        """Histogram mode attends over the merged runs: the same active set as
        the selection, and, like the gathered rows, within float32 rounding
        of the float64 oracle on that set."""
        monkeypatch.setattr(workload_module, "DENSE_SHARE", 1.0)  # always gather
        rng = np.random.default_rng(9)
        cache, keys = random_cache(rng, 4096)
        pkc = projected(init_projector(8, 32, seed=2), keys)
        n_runs = []
        for pos in (4095, 3000, 1500):
            for p in (0.5, 0.9):
                q = rng.normal(size=32) * 3
                trace = retrieval_head_decode(q, pos, cache, pkc, p, "histogram")
                sel = histogram_threshold_scores(pkc.scores(cache, q, pos), 64, p)
                assert np.array_equal(trace.active_set, sel.active_set)
                gathered = restricted_attention(q, pos, cache, sel.active_set)
                _, ref = oracle_on_rows(q, pos, cache, sel.active_set, 1 / np.sqrt(32))
                assert np.abs(trace.output - ref).max() <= 1e-6
                assert np.abs(gathered - ref).max() <= 1e-6
                n_runs.append(len(sel.spans))
        assert max(n_runs) > 1

    def test_attention_argument_counts_tokens(self, monkeypatch):
        """Local and retrieval steps both attend through restricted_attention,
        and len() of its fourth argument is the number of tokens attended
        (perfbench's per-layer token means read it)."""
        import headsparse.engine as eng

        seen = []
        original = eng.restricted_attention

        def spy(query_pre, query_position, cache, active):
            seen.append(len(active))
            return original(query_pre, query_position, cache, active)

        monkeypatch.setattr(eng, "restricted_attention", spy)
        rng = np.random.default_rng(10)
        cache, keys = random_cache(rng, 2000)
        local_head_decode(rng.normal(size=(3, 32)), 1999, cache, 64, 4)
        assert seen == [68]
        pkc = projected(init_projector(8, 32, seed=3), keys)
        for mode in ("exact", "histogram", "top_k"):
            trace = retrieval_head_decode(rng.normal(size=32), 1999, cache, pkc,
                                          0.9, mode, top_k=50)
            assert seen[-1] == trace.tokens_selected
        assert len(seen) == 4

    def test_unknown_mode(self):
        rng = np.random.default_rng(8)
        cache, keys = random_cache(rng, 10)
        with pytest.raises(ArgumentError):
            retrieval_head_decode(
                rng.normal(size=32), 9, cache, projected(init_projector(4, 32, 0), keys),
                0.9, "sorted",
            )


def per_call_rotation(keys_pre, positions, rope):
    """Rotated keys as a cache stored them when every build computed the
    angles of its own positions: cos/sin of position * theta, one float64
    turn of the float32 keys, rounded to float32."""
    kp = np.asarray(keys_pre, np.float32).astype(np.float64)
    ang = np.asarray(positions, np.float64)[:, None] * rope.thetas[None, :]
    c, s = np.cos(ang), np.sin(ang)
    out = np.empty_like(kp)
    out[:, 0::2] = kp[:, 0::2] * c - kp[:, 1::2] * s
    out[:, 1::2] = kp[:, 0::2] * s + kp[:, 1::2] * c
    return out.astype(np.float32)


def random_workload(geometry, seq_len, seed, decode_len=1):
    """Random streams in a Workload shell, keys_post the per-call turns of
    keys_pre; prefill reads only the turned keys, values and geometry."""
    rng = np.random.default_rng(seed)
    shape = (geometry.n_layers, geometry.n_kv_heads, seq_len, geometry.head_dim)
    keys = (rng.normal(size=shape) * 12).astype(np.float32)
    values = (rng.normal(size=shape) * 0.125).astype(np.float32)
    queries = np.zeros((geometry.n_layers, geometry.n_q_heads, seq_len,
                        geometry.head_dim), np.float32)
    ann = WorkloadAnnotations((), (), (0,), (1,), ())
    turned = np.stack([[per_call_rotation(k, np.arange(seq_len), geometry.rope) for k in layer]
                       for layer in keys])
    return Workload(geometry, WorkloadSpec(seq_len=seq_len, decode_len=decode_len),
                    seed, queries, keys, turned, values, ann)


class TestCachesReadTheTurnedKeys:
    """No cache turns a key: prefill, build_cache, FullCaches and appends
    hold the workload's keys_post rows, read in place, and a LocalWindow
    holds copies of its rows."""

    @pytest.mark.parametrize("head_dim", [16, 64, 128])
    @pytest.mark.parametrize("base", [1.0e4, 1.0e6])
    def test_prefill_then_append(self, head_dim, base):
        geo = ModelGeometry(n_layers=2, n_q_heads=4, n_kv_heads=2,
                            head_dim=head_dim, rope_base=base)
        L, n = 700, 517
        wl = random_workload(geo, L, seed=head_dim, decode_len=L - n)
        caches = prefill(wl)
        for (layer, g), cache in caches.items():
            for t in range(n, L):
                cache.append(wl.keys_post[layer, g, t], wl.values[layer, g, t], t)
            assert np.array_equal(cache.positions, np.arange(L))
            assert np.array_equal(cache.keys_post,
                                  per_call_rotation(wl.keys_pre[layer, g], np.arange(L), geo.rope))
            assert np.shares_memory(cache.keys_post, wl.keys_post[layer, g])
            assert np.array_equal(cache.values, wl.values[layer, g])

    def test_every_build_reads_the_workload_rows(self):
        """build_cache, FullCaches builds, prefill and a LocalWindow
        (gapped positions) hold the rows of keys_post."""
        geo = ModelGeometry(n_layers=1, n_q_heads=4, n_kv_heads=2, head_dim=64,
                            rope_base=1.0e6, window=200, n_sinks=4)
        L, n = 461, 333
        wl = random_workload(geo, L, seed=7, decode_len=L - n)
        full = FullCaches(wl, {})
        for g in range(geo.n_kv_heads):
            assert np.array_equal(build_cache(wl, 0, g).keys_post, wl.keys_post[0, g])
            assert np.array_equal(full[0, g].keys_post, wl.keys_post[0, g])
        caches = prefill(wl, groups={(0, 0)})
        window = LocalWindow(wl, 0, n, geo.window, geo.n_sinks)
        keep = np.r_[0:4, n - 200:n]
        assert sorted(caches) == [(0, 0)]
        assert np.array_equal(window.positions, keep)
        assert np.array_equal(window.keys_post, wl.keys_post[0][:, keep])
        assert not np.shares_memory(window.keys_post, wl.keys_post)
        assert np.array_equal(caches[0, 0].keys_post, wl.keys_post[0, 0, :n])


class TestProjectedKeysFeed:
    @pytest.mark.parametrize("mode", ["exact", "histogram"])
    def test_scores_keep_the_lazy_projection_bits(self, monkeypatch, mode):
        """Each retrieval step of run_workload scores with the bits of the
        former lazy sync: at each scores call, the cache rows not yet
        projected went through one product, read from the pre-rotation keys
        the cache kept (here the workload's, which it copied)."""
        import headsparse.indexer as indexer_module

        part = small_partition()
        projs = small_projectors(part, SMALL_GEO)
        heads = {id(proj): h for (_, h), proj in projs.items()}
        projected: dict[int, list] = {}
        original = indexer_module.ProjectedKeyCache.scores

        def lazy_reference(pkc, cache, query_pre, query_position):
            got = original(pkc, cache, query_pre, query_position)
            keys = SMALL_WORKLOAD.keys_pre[0, heads[id(pkc.projector)] // SMALL_GEO.group_size]
            rows = projected.setdefault(id(pkc), [])
            done = sum(len(r) for r in rows)
            rows.append(keys[done:len(cache)].astype(np.float64) @ pkc.projector.w_k.T)
            u = pkc.projector.w_q @ np.asarray(query_pre, np.float64)
            want = np.concatenate(rows)[: cache.visible_count(query_position)] @ u
            assert np.array_equal(got, want)
            return got

        monkeypatch.setattr(indexer_module.ProjectedKeyCache, "scores", lazy_reference)
        res = run_workload(SMALL_WORKLOAD, SMALL_GEO, [part], projs, mode=mode)
        steps = SMALL_WORKLOAD.seq_len - SMALL_WORKLOAD.prefill_len
        assert sum(map(len, projected.values())) == steps * len(part.retrieval_set)
        assert len(res.traces) == steps * SMALL_GEO.n_q_heads


class TestPrefill:
    def test_cache_only_mode(self):
        caches = prefill(SMALL_WORKLOAD)
        assert sorted(caches) == [(0, g) for g in range(SMALL_GEO.n_kv_heads)]
        assert all(len(c) == SMALL_WORKLOAD.prefill_len for c in caches.values())

    def test_partition_count_checked(self):
        part = small_partition()
        projs = small_projectors(part, SMALL_GEO)
        with pytest.raises(ArgumentError):
            run_workload(SMALL_WORKLOAD, SMALL_GEO, [], projs)
        with pytest.raises(ArgumentError):
            run_workload(SMALL_WORKLOAD, SMALL_GEO, [part, part], projs)


def make_trace(layer, head, position, active, role="retrieval"):
    active = np.asarray(active)
    return DecodeTrace(
        layer=layer, q_head=head, position=position, role=role,
        tokens_selected=active.size, covered_projected_mass=1.0,
        output=np.zeros(1), active_set=active,
    )


class TestSparsityMetrics:
    def test_attend_everything(self):
        traces = [make_trace(0, h, 9, np.arange(10)) for h in range(4)]
        assert compute_sparsity(traces) == 0.0

    def test_hundred_of_thousand(self):
        traces = [make_trace(0, h, 999, np.arange(100)) for h in range(4)]
        assert compute_sparsity(traces) == pytest.approx(0.9)

    def test_weighted_mean(self):
        full = [make_trace(0, 0, 999, np.arange(1000))]
        solo = [make_trace(0, 1, 999, np.arange(1))]
        got = compute_sparsity(full + solo)
        assert got == pytest.approx(1 - (0.5 * 1.0 + 0.5 * 0.001))
        assert got == pytest.approx(0.4995, abs=1e-4)

    def test_memory_one_to_one_equals_compute(self):
        traces = [make_trace(0, h, 999, np.arange(h, h + 100)) for h in range(3)]
        assert memory_sparsity(traces, lambda h: h) == pytest.approx(
            compute_sparsity(traces)
        )

    def test_disjoint_union(self):
        a = make_trace(0, 0, 999, np.arange(100))
        b = make_trace(0, 1, 999, np.arange(500, 600))
        got = memory_sparsity([a, b], lambda h: 0)
        assert got == pytest.approx(0.8)

    def test_identical_selection_idempotent(self):
        a = make_trace(0, 0, 999, np.arange(100))
        b = make_trace(0, 1, 999, np.arange(100))
        assert memory_sparsity([a, b], lambda h: 0) == pytest.approx(
            compute_sparsity([a, b])
        )

    def test_empty_traces_rejected(self):
        with pytest.raises(ArgumentError):
            compute_sparsity([])


def unique_memory_sparsity(traces, gqa_map):
    """Reference union: sort-and-dedupe each KV-head step's active sets."""
    groups = {}
    for t in traces:
        groups.setdefault((t.layer, gqa_map(t.q_head), t.position), []).append(
            t.active_set)
    fracs = [np.unique(np.concatenate(sets)).size / (position + 1)
             for (_, _, position), sets in groups.items()]
    return 1.0 - float(np.mean(fracs))


class TestMemorySparsityReference:
    @pytest.mark.parametrize("group", [1, 2, 3, 4])
    def test_matches_unique_union(self, group):
        rng = np.random.default_rng(40 + group)
        traces = []
        for layer in range(2):
            for position in rng.integers(0, 3000, size=6):
                n = int(position) + 1
                for g in range(2):
                    shared = np.sort(rng.choice(n, size=rng.integers(1, n + 1),
                                                replace=False))
                    for k in range(group):
                        kind = rng.integers(3)
                        if kind == 0:      # identical across the group
                            active = shared
                        elif kind == 1:    # contiguous, may overlap the rest
                            a = int(rng.integers(n))
                            active = np.arange(a, int(rng.integers(a, n)) + 1)
                        else:              # disjoint from the shared set
                            rest = np.setdiff1d(np.arange(n), shared)
                            active = rest if rest.size else shared
                        traces.append(make_trace(layer, g * group + k,
                                                 int(position), active))
        gqa = lambda h: h // group  # noqa: E731
        assert memory_sparsity(traces, gqa) == unique_memory_sparsity(traces, gqa)


@pytest.fixture(scope="module")
def run():
    part = small_partition()
    projs = small_projectors(part, SMALL_GEO)
    return part, projs, run_workload(SMALL_WORKLOAD, SMALL_GEO, [part], projs)


class TestRunWorkload:
    def test_trace_shape(self, run):
        part, _, res = run
        decode_len = SMALL_WORKLOAD.seq_len - SMALL_WORKLOAD.prefill_len
        assert len(res.traces) == decode_len * SMALL_GEO.n_q_heads
        roles = {t.q_head: t.role for t in res.traces}
        for h in range(SMALL_GEO.n_q_heads):
            assert roles[h] == ("retrieval" if part.is_retrieval(h) else "local")

    def test_mass_floor(self, run):
        _, _, res = run
        for t in res.traces:
            assert t.covered_projected_mass >= 0.9 - 1e-12

    def test_restricted_consistency_sampled(self, run):
        _, _, res = run
        caches = res.caches
        for t in res.traces[:: max(len(res.traces) // 40, 1)]:
            kv = qhead_to_kvhead(SMALL_GEO, t.q_head)
            cache = caches[(t.layer, kv)]
            oracle = dense_attention(
                SMALL_WORKLOAD.queries[t.layer, t.q_head, t.position],
                t.position,
                sub_cache(cache, t.active_set),
                SMALL_GEO.scale,
            )
            np.testing.assert_allclose(t.output, oracle.output, atol=1e-6)

    def test_memory_not_above_compute(self, run):
        _, _, res = run
        assert res.report.memory_sparsity <= res.report.compute_sparsity + 1e-12

    def test_local_active_counts(self, run):
        part, _, res = run
        cap = SMALL_GEO.window + SMALL_GEO.n_sinks
        for t in res.traces:
            if t.role == "local":
                assert t.tokens_selected == min(cap, t.position + 1)

    def test_deterministic(self, run):
        part, projs, res = run
        res2 = run_workload(SMALL_WORKLOAD, SMALL_GEO, [part], projs)
        assert len(res.traces) == len(res2.traces)
        for a, b in zip(res.traces[::97], res2.traces[::97]):
            np.testing.assert_array_equal(a.active_set, b.active_set)
            np.testing.assert_array_equal(a.output, b.output)

    def test_histogram_mode(self):
        part = small_partition()
        projs = small_projectors(part, SMALL_GEO)
        res = run_workload(
            SMALL_WORKLOAD, SMALL_GEO, [part], projs, mode="histogram"
        )
        for t in res.traces:
            assert t.covered_projected_mass >= 0.9 - 1e-12
        assert res.report.memory_sparsity <= res.report.compute_sparsity + 1e-12

    def test_oracle_masses(self):
        part = small_partition()
        projs = small_projectors(part, SMALL_GEO)
        res = run_workload(SMALL_WORKLOAD, SMALL_GEO, [part], projs)
        record_true_masses(SMALL_WORKLOAD, res.traces)
        assert all(t.covered_true_mass is not None for t in res.traces)
        for t in res.traces:
            assert 0.0 <= t.covered_true_mass <= 1.0
            if t.role == "local":
                # sink+window rule was tuned to hold nearly all true mass
                assert t.covered_true_mass > 0.5

    def test_missing_projector(self):
        part = small_partition()
        with pytest.raises(ArgumentError):
            run_workload(SMALL_WORKLOAD, SMALL_GEO, [part], {})

    @pytest.mark.parametrize("mode, top_k", [("bogus", None), ("top_k", None), ("top_k", 0),
                                             ("exact", 0), ("histogram", -1)])
    @pytest.mark.parametrize("planted", [(), (1, 6)])
    def test_bad_mode_before_any_cache(self, monkeypatch, mode, top_k, planted):
        """An unknown mode, top_k mode without a budget, or a budget below
        one token under any mode, is refused before prefill, also when no
        head would ever select."""
        import headsparse.engine as eng

        def no_cache(*args, **kwargs):
            raise AssertionError("a cache was built")

        monkeypatch.setattr(eng, "prefill", no_cache)
        monkeypatch.setattr(eng, "LocalWindow", no_cache)
        part = small_partition(ratio=max(len(planted), 0.1) / 8, planted=planted)
        projs = small_projectors(part, SMALL_GEO)
        with pytest.raises(ArgumentError):
            run_workload(SMALL_WORKLOAD, SMALL_GEO, [part], projs, mode=mode, top_k=top_k)


class TestDenseDegeneration:
    def test_full_ratio_full_p(self):
        part = partition_heads([1.0] * SMALL_GEO.n_q_heads, 1.0)
        assert len(part.local_set) == 0
        projs = small_projectors(part, SMALL_GEO)
        geo = dataclasses.replace(SMALL_GEO, top_p=1.0)
        res = run_workload(SMALL_WORKLOAD, geo, [part], projs)
        for t in res.traces:
            cache = res.caches[(t.layer, qhead_to_kvhead(SMALL_GEO, t.q_head))]
            assert t.tokens_selected == t.position + 1
            oracle = dense_attention(
                SMALL_WORKLOAD.queries[t.layer, t.q_head, t.position],
                t.position, cache, SMALL_GEO.scale,
            )
            np.testing.assert_allclose(t.output, oracle.output, atol=1e-5)
        assert res.report.compute_sparsity == pytest.approx(0.0, abs=1e-12)


class TestSparsityReportAssembly:
    def test_per_head_means(self):
        traces = [
            make_trace(0, 0, 9, np.arange(4)),
            make_trace(0, 0, 10, np.arange(6)),
            make_trace(0, 1, 9, np.arange(10)),
        ]
        rep = sparsity_report(traces, small_geometry())
        assert rep.per_head_active[0, 0] == pytest.approx(5.0)
        assert rep.per_head_active[0, 1] == pytest.approx(10.0)


def full_cache_reference(wl, geo, partition):
    """Decode as every group did before local windows: prefill each group's
    whole prompt, append each decode token, and run local_head_decode one
    group at a time over the full cache.  Returns the full caches,
    {(layer, q_head, t): (output, indices)} for the local heads and
    {(layer, q_head, t): dense weights} for all; every layer uses
    `partition`."""
    caches = prefill(wl)
    local, dense = {}, {}
    for t in range(wl.prefill_len, wl.seq_len):
        for (layer, g), cache in caches.items():
            cache.append(wl.keys_post[layer, g, t], wl.values[layer, g, t], t)
        for (layer, g), cache in caches.items():
            heads = range(g * geo.group_size, (g + 1) * geo.group_size)
            for h in heads:
                dense[layer, h, t] = dense_attention(wl.queries[layer, h, t], t, cache,
                                                     geo.scale).weights
            loc = [h for h in heads if not partition.is_retrieval(h)]
            if loc:
                outs = local_head_decode(wl.queries[layer, loc, t], t, cache,
                                         geo.window, geo.n_sinks)
                active = local_active_indices(t + 1, geo.window, geo.n_sinks)
                local.update({(layer, h, t): (out, active) for h, out in zip(loc, outs)})
    return caches, local, dense


def cache_arrays(cache):
    return cache.positions, cache.keys_post, cache.values


class TestBoundedCaches:
    """A group with no retrieval head decodes from a cache of its sinks, its
    last `window` prompt tokens and its appends; outputs, sets and the
    caches handed out stay == to decoding from full caches."""

    # (window, retrieval heads): the default partition; prompts whose
    # P - window sits just past, at, and below n_sinks; every group with a
    # retrieval head
    CASES = [(192, (1, 6)), (699, (1, 6)), (700, (1, 6)), (702, (1, 6)),
             (192, (0, 3, 5, 6))]

    @pytest.mark.parametrize("window, planted", CASES)
    def test_equal_to_full_cache_reference(self, window, planted):
        geo = small_geometry(window=window)
        part = small_partition(ratio=len(planted) / 8, planted=planted)
        res = run_workload(SMALL_WORKLOAD, geo, [part], small_projectors(part, geo))
        full, local, _ = full_cache_reference(SMALL_WORKLOAD, geo, part)
        n_local = 0
        for t in res.traces:
            if t.role == "local":
                out, active = local[t.layer, t.q_head, t.position]
                assert np.array_equal(t.output, out)
                assert np.array_equal(t.active_set, active)
                n_local += 1
        assert n_local == len(local)
        gs = geo.group_size
        lacking = {(0, g) for g in range(geo.n_kv_heads)
                   if not any(map(part.is_retrieval, range(g * gs, (g + 1) * gs)))}
        assert set(dict(res.caches)) == set(full) - lacking
        for key in sorted(full):
            cache = res.caches[key]
            assert res.caches[key] is cache
            for got, ref, built in zip(cache_arrays(cache), cache_arrays(full[key]),
                                       cache_arrays(build_cache(SMALL_WORKLOAD, *key))):
                assert np.array_equal(got, ref) and np.array_equal(got, built)

    def test_bounded_cache_rows(self):
        geo, wl = SMALL_GEO, SMALL_WORKLOAD
        window = LocalWindow(wl, 0, wl.prefill_len, geo.window, geo.n_sinks)
        caches = prefill(wl, groups={(0, 1)})
        P, w, s = wl.prefill_len, geo.window, geo.n_sinks
        keep = np.r_[0:s, P - w:P]
        assert np.array_equal(window.positions, keep)
        full = prefill(wl)
        for name in ("keys_post", "values"):
            for g in range(geo.n_kv_heads):
                assert np.array_equal(getattr(window, name)[g], getattr(full[0, g], name)[keep])
        assert sorted(caches) == [(0, 1)]
        assert len(caches[0, 1]) == P

    @pytest.mark.parametrize("mode", ["exact", "histogram"])
    def test_oracle_masses_equal_full_cache_reference(self, mode):
        """The oracle scores its rows in batches (gemm), the reference one
        row at a time (gemv), so the masses agree to rounding only."""
        part = small_partition()
        res = run_workload(SMALL_WORKLOAD, SMALL_GEO, [part],
                           small_projectors(part, SMALL_GEO), mode=mode)
        record_true_masses(SMALL_WORKLOAD, res.traces)
        _, _, dense = full_cache_reference(SMALL_WORKLOAD, SMALL_GEO, part)
        for t in res.traces:
            want = float(dense[t.layer, t.q_head, t.position][t.active_set].sum())
            assert abs(t.covered_true_mass - want) <= 1e-12


TWO_LAYER_GEO = small_geometry(n_layers=2)
TWO_LAYER_WORKLOAD = gen_synthetic_workload(SMALL_SPEC, seed=12, geometry=TWO_LAYER_GEO)


class TestLocalWindows:
    """Each layer's local heads decode in one local_head_decode call over
    its LocalWindow; outputs and sets stay == to decoding each group alone
    over its full cache, also after the window moves down."""

    P = SMALL_WORKLOAD.prefill_len  # 704, with 64 decode steps

    # (window, n_sinks, retrieval heads, n_layers): windows that fill and
    # move during decode (16 < 64 steps, and 1); no sinks; prompts whose
    # P - window sits below, at and just past n_sinks; two layers; a group
    # with no local head (heads 0 and 1) beside groups of only local heads
    # Windows as long as the stream and longer (a dense request) keep every
    # row and never move.
    L = SMALL_WORKLOAD.seq_len
    CASES = [(16, 4, (1, 6), 1), (1, 4, (1, 6), 1), (1, 0, (1, 6), 1),
             (16, 0, (1, 6), 1), (P - 3, 4, (1, 6), 1), (P - 4, 4, (1, 6), 1),
             (P - 5, 4, (1, 6), 1), (16, 4, (1, 6), 2), (16, 4, (0, 1, 6), 1),
             (P - 4, 4, (0, 1, 6), 2), (L, 4, (1, 6), 1), (10**6, 4, (0, 1, 6), 2)]

    @pytest.mark.parametrize("window, n_sinks, planted, n_layers", CASES)
    def test_equal_to_full_cache_reference(self, window, n_sinks, planted, n_layers):
        wl = SMALL_WORKLOAD if n_layers == 1 else TWO_LAYER_WORKLOAD
        geo = small_geometry(window=window, n_sinks=n_sinks, n_layers=n_layers)
        part = small_partition(ratio=len(planted) / 8, planted=planted)
        res = run_workload(wl, geo, [part] * n_layers, small_projectors(part, geo))
        _, local, _ = full_cache_reference(wl, geo, part)
        got = {(t.layer, t.q_head, t.position): t for t in res.traces if t.role == "local"}
        assert got.keys() == local.keys()
        for key, (out, active) in local.items():
            assert np.array_equal(got[key].output, out)
            assert np.array_equal(got[key].active_set, active)

    @pytest.mark.parametrize("window, n_sinks", [(16, 4), (1, 4), (1, 0), (16, 0),
                                                 (P - 3, 4), (P - 4, 4), (P - 5, 4)])
    def test_rows_are_the_local_rows_of_full_caches(self, window, n_sinks):
        """After every append, local_spans over the window's rows are the
        stream's local_spans, and each row is the full cache's row."""
        wl, geo = SMALL_WORKLOAD, small_geometry(window=window, n_sinks=n_sinks)
        win = LocalWindow(wl, 0, self.P, window, n_sinks)
        full = [build_cache(wl, 0, g) for g in range(geo.n_kv_heads)]
        moves = 0
        for t in range(self.P, wl.seq_len):
            before = len(win)
            win.append(wl.keys_post[0, :, t], wl.values[0, :, t], t)
            moves += len(win) <= before
            rows = np.r_[local_spans(len(win), window, n_sinks)]
            want = local_active_indices(t + 1, window, n_sinks)
            assert np.array_equal(win.positions[rows], want)
            assert len(win) <= n_sinks + 2 * window
            for g, cache in enumerate(full):
                assert np.array_equal(win.keys_post[g], cache.keys_post[win.positions])
                assert np.array_equal(win.values[g], cache.values[win.positions])
        assert moves == ((64 - 1) // window if window < 64 else 0)

    @pytest.mark.parametrize("window", [L // 2 - 2, L // 2, L, 10**6])
    def test_capacity_is_at_most_the_stream(self, window):
        """n_sinks + 2 * window rows, capped at the stream's length; a
        window as long as the stream holds every row it will be given."""
        win = LocalWindow(SMALL_WORKLOAD, 0, self.P, window, 4)
        assert len(win._positions) == min(4 + 2 * window, self.L)
        assert win._values.shape[1] == len(win._positions)
        for t in range(self.P, self.L):
            win.append(SMALL_WORKLOAD.keys_post[0, :, t], SMALL_WORKLOAD.values[0, :, t], t)
        rows = np.r_[local_spans(len(win), window, 4)]
        assert np.array_equal(win.positions[rows], local_active_indices(self.L, window, 4))

    def test_appends_follow_the_last_position(self):
        win = LocalWindow(SMALL_WORKLOAD, 0, self.P, 16, 4)
        keys, values = SMALL_WORKLOAD.keys_post[0, :, 0], SMALL_WORKLOAD.values[0, :, 0]
        for position in (self.P + 1, self.P - 1):
            with pytest.raises(ArgumentError):
                win.append(keys, values, position)

    def test_stacked_rows_match_one_group_calls(self):
        """A (K, G, d) query block over a window has, row for row, the bits
        of each group's (G, d) block over a one-group cache of its rows."""
        wl, geo = SMALL_WORKLOAD, small_geometry(window=16)
        win = LocalWindow(wl, 0, self.P, 16, 4)
        t = self.P
        win.append(wl.keys_post[0, :, t], wl.values[0, :, t], t)
        queries = wl.queries[0, :, t].reshape(geo.n_kv_heads, geo.group_size, -1)
        outs = local_head_decode(queries, t, win, 16, 4)
        assert outs.shape == queries.shape
        for g in range(geo.n_kv_heads):
            one = KVCacheHead(geo.rope, capacity=len(win))
            one.extend(wl.keys_post[0, g, win.positions], wl.values[0, g, win.positions],
                       win.positions)
            assert np.array_equal(outs[g], local_head_decode(queries[g], t, one, 16, 4))


def marked_memory_sparsity(traces, gqa_map):
    """Reference: each KV-head step marks its heads' expanded active sets on
    a mask of the visible tokens."""
    groups = {}
    for t in traces:
        groups.setdefault((t.layer, gqa_map(t.q_head), t.position), []).append(
            t.active_set)
    fracs = []
    for (_, _, position), sets in groups.items():
        mask = np.zeros(position + 1, bool)
        for active in sets:
            mask[active] = True
        fracs.append(np.count_nonzero(mask) / (position + 1))
    return 1.0 - float(np.mean(fracs))


def random_spans(rng, n):
    """Sorted disjoint non-empty slices inside [0, n)."""
    cuts = np.sort(rng.choice(np.arange(n + 1), size=2 * int(rng.integers(1, 6)),
                              replace=False))
    return tuple(slice(int(a), int(b)) for a, b in zip(cuts[::2], cuts[1::2]))


class TestSpanTraces:
    """Traces keep local and histogram sets as position spans; active_set
    expands them on each read."""

    def test_active_set_expands_spans(self):
        spans = (slice(0, 4), slice(10, 20))
        t = DecodeTrace(0, 1, 25, "local", 14, 1.0, np.zeros(1), spans)
        want = np.r_[0:4, 10:20]
        assert t.active_set.dtype == want.dtype
        assert np.array_equal(t.active_set, want)
        assert np.array_equal(make_trace(0, 1, 25, want).active_set, t.active_set)
        with pytest.raises(InternalError):
            DecodeTrace(0, 1, 25, "local", 13, 1.0, np.zeros(1), spans)
        with pytest.raises(InternalError):
            DecodeTrace(0, 1, 8, "local", 14, 1.0, np.zeros(1), spans)

    def test_index_array_by_keyword_and_by_position(self):
        a = np.array([0, 5, 9])
        by_kw = DecodeTrace(layer=0, q_head=1, position=9, role="retrieval",
                            tokens_selected=3, covered_projected_mass=0.5,
                            output=np.zeros(2), active_set=a)
        by_pos = DecodeTrace(0, 1, 9, "retrieval", 3, 0.5, np.zeros(2), a, 0.25)
        assert by_kw.active_set is a and by_pos.active_set is a
        assert by_kw.covered_true_mass is None and by_pos.covered_true_mass == 0.25
        by_kw.covered_true_mass = 0.75
        assert by_kw.covered_true_mass == 0.75
        with pytest.raises(InternalError):
            DecodeTrace(0, 1, 9, "retrieval", 2, 0.5, np.zeros(2), a)
        with pytest.raises(TypeError):
            DecodeTrace(0, 1, 9, "retrieval", 3, 0.5, np.zeros(2))

    @pytest.mark.parametrize("group", [1, 2, 4])
    def test_memory_sparsity_over_spans(self, group):
        rng = np.random.default_rng(70 + group)
        spans, arrays = [], []
        for layer in range(2):
            for position in rng.integers(0, 3000, size=6):
                for h in range(2 * group):
                    sp = random_spans(rng, int(position) + 1)
                    as_array = np.r_[sp]
                    kept = sp if rng.integers(3) else as_array  # mix both forms
                    spans.append(DecodeTrace(layer, h, int(position), "local", as_array.size,
                                            1.0, np.zeros(1), kept))
                    arrays.append(make_trace(layer, h, int(position), as_array))
        gqa = lambda h: h // group  # noqa: E731
        want = marked_memory_sparsity(arrays, gqa)
        assert memory_sparsity(spans, gqa) == want
        assert memory_sparsity(arrays, gqa) == want

    def test_run_traces_hold_no_index_arrays(self):
        """Local and histogram traces keep spans, so the only array a trace
        owns is its output; exact retrieval traces keep their index arrays."""
        part = small_partition()
        projs = small_projectors(part, SMALL_GEO)
        for mode in ("histogram", "exact"):
            res = run_workload(SMALL_WORKLOAD, SMALL_GEO, [part], projs, mode=mode)
            for t in res.traces:
                arrays = [v for v in vars(t).values() if isinstance(v, np.ndarray)]
                spans_only = mode == "histogram" or t.role == "local"
                assert len(arrays) == (1 if spans_only else 2)


def read_only(wl):
    """The workload with read-only copies of its streams."""
    arrays = {name: getattr(wl, name).copy() for name in PAYLOAD}
    for a in arrays.values():
        a.flags.writeable = False
    return dataclasses.replace(wl, **arrays)


class TestStreamCaches:
    """Full-stream caches (prefill's retrieval groups and FullCaches) keep
    their own positions and read the workload's keys_post and value rows in
    place; no decode path writes into the workload."""

    def test_caches_share_the_workload_rows(self):
        """Decode's caches, FullCaches builds and prefill's caches own no
        key or value bytes."""
        part = small_partition()
        res = run_workload(SMALL_WORKLOAD, SMALL_GEO, [part],
                           small_projectors(part, SMALL_GEO))
        assert sorted(dict(res.caches)) == [(0, 0), (0, 3)]
        groups = [(0, g) for g in range(SMALL_GEO.n_kv_heads)]
        for key, cache in [*((key, res.caches[key]) for key in groups),
                           *prefill(SMALL_WORKLOAD).items()]:
            for name in ("keys_post", "values"):
                rows = getattr(SMALL_WORKLOAD, name)[key]
                assert not getattr(cache, f"_{name}").flags.owndata, (key, name)
                assert np.shares_memory(getattr(cache, name), rows)
                assert np.array_equal(getattr(cache, name), rows[: len(cache)])
        assert all(len(res.caches[key]) == SMALL_WORKLOAD.seq_len for key in groups)

    @pytest.mark.parametrize("mode", ["exact", "histogram"])
    def test_read_only_workload_gives_the_same_traces(self, mode):
        geo = small_geometry(n_layers=2, window=16)
        part = small_partition()
        projs = small_projectors(part, geo)
        want = run_workload(TWO_LAYER_WORKLOAD, geo, [part] * 2, projs, mode=mode)
        got = run_workload(read_only(TWO_LAYER_WORKLOAD), geo, [part] * 2, projs, mode=mode)
        assert len(got.traces) == len(want.traces)
        for a, b in zip(got.traces, want.traces):
            assert (a.layer, a.q_head, a.position, a.role, a.tokens_selected) == \
                (b.layer, b.q_head, b.position, b.role, b.tokens_selected)
            assert a.covered_projected_mass == b.covered_projected_mass
            assert np.array_equal(a.output, b.output)
            assert np.array_equal(a.active_set, b.active_set)
        assert got.report.compute_sparsity == want.report.compute_sparsity
        assert got.report.memory_sparsity == want.report.memory_sparsity

    def test_a_differing_row_is_refused(self):
        cache = prefill(SMALL_WORKLOAD, {(0, 1)})[0, 1]
        t = SMALL_WORKLOAD.prefill_len
        keys, values = SMALL_WORKLOAD.keys_post[0, 1], SMALL_WORKLOAD.values[0, 1]
        for key, value in ((keys[t], values[t + 1]), (keys[t + 1], values[t]),
                           (SMALL_WORKLOAD.keys_pre[0, 1, t], values[t])):
            with pytest.raises(ArgumentError):
                cache.append(key, value, t)
        assert len(cache) == t
        cache.append(keys[t], values[t], t)
        assert len(cache) == t + 1

    def test_prefill_holds_only_positions(self):
        """At 16K, what prefill leaves allocated is each cache's positions,
        8 bytes a row: a turned copy of a group's keys (4 MiB here) or a
        cos/sin table (4 MiB) would not fit."""
        geo = default_workload_geometry()
        w = gen_synthetic_workload(WorkloadSpec(seq_len=16384, decode_len=64), 0, geo)
        groups = {(0, 0), (0, 2)}
        tracemalloc.start()
        try:
            caches = prefill(w, groups)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        owned = len(groups) * w.seq_len * 8
        assert sorted(caches) == sorted(groups)
        assert owned <= held < owned + 2**20, f"{(held - owned) / 2**20:.2f} MiB over"


class TestRunMemory:
    @pytest.mark.parametrize("mode", ["histogram", "exact"])
    def test_peak_below_three_and_a_half_caches(self, mode):
        """At 16K, run_workload's traced peak stays below 3.5 full caches of
        n * (16 d + 8) bytes, the size of a float64 cache (measured 0.62;
        caches that owned their turned keys, with prefill's cos/sin table,
        came to 1.95, float64 caches to 2.9, and float64 caches that kept
        their pre-rotation keys and turned every key at once to 4.0)."""
        geo = default_workload_geometry()
        w = gen_synthetic_workload(WorkloadSpec(seq_len=16384, decode_len=64), 0, geo)
        part = partition_heads([float(h in (2, 9)) for h in range(geo.n_q_heads)],
                               2 / geo.n_q_heads)
        projs = small_projectors(part, geo)
        cache_bytes = w.seq_len * (16 * geo.head_dim + 8)
        tracemalloc.start()
        try:
            run_workload(w, geo, [part], projs, mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * cache_bytes, f"peak {peak / cache_bytes:.2f} caches"

    @pytest.mark.parametrize("mode", ["histogram", "exact"])
    def test_peak_is_what_decode_owns(self, mode):
        """At 16K, run_workload's traced peak stays below what decode owns:
        the projected-key caches, the LocalWindow, the traces and one n-row
        float64 score vector, plus the one temporary of projecting the
        prompt, a row block widened to float64 (2 * ROPE_BLOCK rows at
        most).  The stream caches read the workload's turned keys: their
        own turned copies (4 MiB a group here) or a cos/sin table (4 MiB)
        would not fit."""
        geo = default_workload_geometry()
        w = gen_synthetic_workload(WorkloadSpec(seq_len=16384, decode_len=64), 0, geo)
        part = partition_heads([float(h in (2, 9)) for h in range(geo.n_q_heads)],
                               2 / geo.n_q_heads)
        projs = small_projectors(part, geo)
        tracemalloc.start()
        try:
            res = run_workload(w, geo, [part], projs, mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n, d = w.seq_len, geo.head_dim
        projected = len(projs) * n * geo.low_dim * 8
        rows = min(geo.n_sinks + 2 * geo.window, n)
        window = rows * (8 + 2 * 4 * d * geo.n_kv_heads)
        traces = sum(v.nbytes for t in res.traces for v in vars(t).values()
                     if isinstance(v, np.ndarray))
        bound = projected + window + traces + 8 * n + 2 * ROPE_BLOCK * d * 8
        assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"
