"""Release gates. Every test here states a property the package must hold
end to end, prints one PASS/FAIL line with its wall-clock time, and where a
runtime budget applies, enforces it, so a change that merely slows a path
down fails loudly instead of drifting.

Run order matters only for gate 10, which audits the sparsity reports of
every engine run the earlier gates performed (plus one of its own, so it
also stands alone).
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from helpers import (
    block_top_p_exact,
    gen_rank_teacher,
    rope_score,
    score_decomposition,
    split_merge,
    split_table,
)
from test_engine import sub_cache
from test_indexer import RECALL_CONFIG, batch_loss, heldout_recall, random_instance, teacher_dataset

from headsparse.calibration import calibrate, partition_heads
from headsparse.distill import (
    Stage2Config,
    build_teacher_cache,
    distill_grad,
    distill_loss,
    extract_top10,
    gen_toy_corpus,
    make_toy_model,
    toy_self_distill,
)
from headsparse.engine import (
    ROLE_RETRIEVAL,
    DecodeTrace,
    compute_sparsity,
    memory_sparsity,
    run_workload,
)
from headsparse.indexer import (
    Stage1Config,
    build_stage1_dataset,
    init_projector,
    projector_grad,
    train_projector,
)
from headsparse.optim import smooth_trace
from headsparse.reports import bench_requests
from headsparse.rope import RopeParams
from headsparse.selection import (
    BIN_WIDTH,
    HIST_RANGE,
    N_BINS,
    block_table,
    histogram_threshold,
    top_k_static,
    top_p_exact,
)
from headsparse.workload import (
    WorkloadSpec,
    build_cache,
    default_workload_geometry,
    dense_attention,
    dense_row_scores,
    gen_synthetic_workload,
    qhead_to_kvhead,
)

# sparsity reports from every engine run in this module; gate 10 audits them
REPORTS = []


@contextmanager
def gate(capsys, number, label, budget_s=None):
    t0 = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - t0
        if budget_s is not None and elapsed > budget_s:
            raise AssertionError(
                f"gate {number} took {elapsed:.1f}s, budget {budget_s:.0f}s"
            )
        ok = True
    finally:
        elapsed = time.monotonic() - t0
        with capsys.disabled():
            print(
                f"criterion {number:2d} {'PASS' if ok else 'FAIL'}"
                f" ({elapsed:6.1f}s)  {label}"
            )


def token_mass(scores, active):
    """Independent coverage recompute: fsum softmax mass of the active set."""
    s = np.asarray(scores, np.float64)
    ex = np.exp(s - s.max())
    return math.fsum(ex[active]) / math.fsum(ex)


def all_retrieval_run(workload, geometry, seed, **kw):
    """Run with every head treated as retrieval, projectors untrained."""
    part = partition_heads([0.0] * geometry.n_q_heads, 1.0)
    projs = {
        (0, h): init_projector(geometry.low_dim, geometry.head_dim, seed + h)
        for h in range(geometry.n_q_heads)
    }
    return run_workload(workload, geometry, [part], projs, **kw)


def test_criterion_01_dense_degeneration(capsys):
    """p = 1.0 with every head retrieval reproduces dense attention."""
    combos = [
        (
            default_workload_geometry(n_q_heads=4, n_kv_heads=2, window=128),
            dict(seq_len=480, planted_retrieval_heads=(1,), probe_head=1,
                 diffuse_support=100),
        ),
        (
            default_workload_geometry(n_q_heads=8, n_kv_heads=4, window=192),
            dict(seq_len=768, planted_retrieval_heads=(1, 6), probe_head=1,
                 diffuse_support=200),
        ),
        (
            default_workload_geometry(window=256),
            dict(seq_len=900, diffuse_support=256),
        ),
    ]
    with gate(capsys, 1, "p=1 with all heads retrieval matches dense", 120):
        worst = 0.0
        for i in range(20):
            if i == 19:
                geo, kw = combos[2][0], dict(seq_len=4096, diffuse_support=400)
                decode = 12
            else:
                geo, kw = combos[i % 3]
                decode = 24
            w = gen_synthetic_workload(
                WorkloadSpec(decode_len=decode, **kw), 300 + i, geo
            )
            run = all_retrieval_run(w, dataclasses.replace(geo, top_p=1.0), seed=i,
                                    mode="exact")
            REPORTS.append(run.report)
            oracle = {
                g: build_cache(w, 0, g) for g in range(geo.n_kv_heads)
            }
            for t in run.traces:
                assert t.role == ROLE_RETRIEVAL
                assert t.tokens_selected == t.position + 1
                row = dense_attention(
                    w.queries[0, t.q_head, t.position], t.position,
                    oracle[qhead_to_kvhead(geo, t.q_head)], geo.scale,
                )
                worst = max(worst, float(np.abs(t.output - row.output).max()))
            assert worst <= 1e-5, f"workload {i}: max abs err {worst:.2e}"


def test_criterion_02_restricted_softmax_exactness(capsys):
    """Every decode output equals dense attention on its own sub-cache."""
    geo = default_workload_geometry()
    spec = WorkloadSpec(seq_len=2048, decode_len=320)
    w = gen_synthetic_workload(spec, 17, geo)
    part = partition_heads(
        [1.0 if h in spec.planted_retrieval_heads else 0.0
         for h in range(geo.n_q_heads)],
        geo.retrieval_ratio,
    )
    projs = {
        (0, h): init_projector(geo.low_dim, geo.head_dim, 40 + h)
        for h in part.retrieval_set
    }
    with gate(capsys, 2, "outputs match dense on the active sub-cache", 120):
        traces = []
        for mode in ("exact", "histogram"):
            run = run_workload(w, geo, [part], projs, mode=mode)
            REPORTS.append(run.report)
            traces.extend(
                (t, run.caches[(0, qhead_to_kvhead(geo, t.q_head))])
                for t in run.traces
            )
        assert len(traces) >= 10_000
        worst = 0.0
        for t, cache in traces:
            row = dense_attention(
                w.queries[0, t.q_head, t.position], t.position,
                sub_cache(cache, t.active_set),
                geo.scale,
            )
            worst = max(worst, float(np.abs(t.output - row.output).max()))
        assert worst <= 1e-6, f"max abs err {worst:.2e} over {len(traces)} steps"


def test_criterion_03_histogram_coverage_and_overshoot(capsys):
    """Threshold-bin inclusion covers >= p; overshoot stays within the bin."""
    rng = np.random.default_rng(52)
    with gate(capsys, 3, "histogram coverage >= p, overshoot bounded", 60):
        for _ in range(1000):
            n = int(rng.integers(8, 1200))
            s = rng.normal(size=n) * rng.uniform(0.5, 8)
            bs = int(rng.choice([16, 32, 64]))
            blocks = block_table(s, bs)
            m = blocks.m
            bins = np.clip(
                ((m - (m.max() - HIST_RANGE)) / BIN_WIDTH).astype(int),
                0, N_BINS - 1,
            )
            for p in (0.5, 0.9, 0.99):
                res = histogram_threshold(blocks, p)
                assert token_mass(s, res.active_set) >= p
                population = int((bins == res.threshold_bin).sum())
                assert (
                    int(res.block_mask.sum())
                    <= block_top_p_exact(blocks, p) + population
                )


def test_criterion_04_split_merge_equivalence(capsys):
    """Block-aligned splits fuse into stats identical to the unsplit pass."""
    rng = np.random.default_rng(53)
    with gate(capsys, 4, "split-merge selection identical bit for bit"):
        for _ in range(500):
            bs = int(rng.choice([16, 32, 64]))
            n = int(rng.integers(2 * bs, 1200))
            s = rng.normal(size=n) * rng.uniform(1.0, 6.0)
            n_blocks = -(-n // bs)
            n_cuts = min(int(rng.integers(1, 4)), n_blocks - 1)
            cuts = np.sort(
                rng.choice(np.arange(1, n_blocks), size=n_cuts, replace=False)
            )
            bounds = [0] + [int(c) * bs for c in cuts] + [n]
            merged = split_merge([
                split_table(s[a:b], bs, a)
                for a, b in zip(bounds, bounds[1:])
            ])
            direct = block_table(s, bs)
            assert all(np.array_equal(x, y) for x, y in zip(merged, direct))
            p = float(rng.uniform(0.3, 0.995))
            got = histogram_threshold(merged, p)
            ref = histogram_threshold(direct, p)
            np.testing.assert_array_equal(got.active_set, ref.active_set)
            np.testing.assert_array_equal(got.block_mask, ref.block_mask)
            assert got.covered_mass == ref.covered_mass
            assert got.threshold_bin == ref.threshold_bin


def test_criterion_05_rope_properties(capsys):
    """Scores depend on offset only and split exactly into pair terms."""
    rng = np.random.default_rng(54)
    with gate(capsys, 5, "rotation shift invariance and pair decomposition"):
        for _ in range(1000):
            d = int(rng.choice([4, 8, 16, 32, 64]))
            params = RopeParams(d, float(rng.choice([1e4, 1e5, 1e6])))
            q = rng.normal(size=d)
            k = rng.normal(size=d)
            n = int(rng.integers(0, 4000))
            delta = int(rng.integers(0, 4000))
            shift = int(rng.integers(0, 5000))
            s = rope_score(q, k, n + delta, n, params)
            assert abs(rope_score(q, k, n + delta + shift, n + shift, params) - s) <= 1e-5
            assert abs(score_decomposition(q, k, delta, params).sum() - s) <= 1e-5


def test_criterion_06_projector_gradient(capsys):
    """Analytic batch gradient agrees with central differences."""
    rng = np.random.default_rng(55)
    h = 1e-4
    with gate(capsys, 6, "projector gradient matches finite differences"):
        for _ in range(50):
            proj, ds = random_instance(rng)
            g_wq, g_wk, _ = projector_grad(ds, proj)
            for mat_name, grad in (("w_q", g_wq), ("w_k", g_wk)):
                for _ in range(4):
                    i = int(rng.integers(grad.shape[0]))
                    j = int(rng.integers(grad.shape[1]))
                    bumped = proj.copy()
                    getattr(bumped, mat_name)[i, j] += h
                    dipped = proj.copy()
                    getattr(dipped, mat_name)[i, j] -= h
                    fd = (batch_loss(bumped, ds) - batch_loss(dipped, ds)) / (2 * h)
                    if abs(grad[i, j]) > 1e-6:
                        assert abs(fd - grad[i, j]) / abs(grad[i, j]) < 1e-4


def test_criterion_07_indexer_recall(capsys):
    """16 dimensions recover the planted teacher's top tokens; 4 do worse."""
    recalls = {16: [], 4: []}
    with gate(capsys, 7, "r=16 held-out recall >= 0.9 and beats r=4", 120):
        for seed in range(10):
            teacher = gen_rank_teacher(seed, n_keys=512, n_queries=192)
            ds = teacher_dataset(teacher, teacher.queries[:128])
            held = teacher.queries[128:]
            for r in (16, 4):
                proj, _ = train_projector(ds, RECALL_CONFIG, seed=seed, r=r)
                recalls[r].append(heldout_recall(proj, teacher, held))
            assert recalls[16][-1] >= 0.9, (
                f"seed {seed}: r=16 recall {recalls[16][-1]:.4f}"
            )
        assert np.mean(recalls[16]) >= np.mean(recalls[4])


def test_criterion_08_calibration_robustness(capsys):
    """Planted heads fill the 15% retrieval set; only score ranks matter."""
    spec = WorkloadSpec(seq_len=1024, decode_len=64, diffuse_support=300)
    geo = default_workload_geometry()
    with gate(capsys, 8, "planted heads calibrate into the retrieval set"):
        for seed in range(20):
            w = gen_synthetic_workload(spec, 200 + seed, geo)
            part = calibrate(w)[0]
            assert set(part.retrieval_set) == set(spec.planted_retrieval_heads), (
                f"seed {seed}: {sorted(part.retrieval_set)}"
            )
            scores = np.asarray(part.scores)
            ranks = np.empty(geo.n_q_heads)
            ranks[np.argsort(scores, kind="stable")] = np.arange(geo.n_q_heads)
            for remap in (ranks, np.exp(scores), 3.0 * scores + 7.0):
                assert (
                    partition_heads(remap, geo.retrieval_ratio).retrieval_set
                    == part.retrieval_set
                )


def test_criterion_09_top_p_adaptivity(capsys):
    """Budgets track score shape; fixed budgets only ever grow coverage."""
    geo = default_workload_geometry()
    spec = WorkloadSpec(seq_len=1024, decode_len=64, diffuse_support=300)
    with gate(capsys, 9, "adaptive budgets track concentration"):
        for seed in (5, 6, 7):
            w = gen_synthetic_workload(spec, seed, geo)
            sizes = {}
            caches = {}
            for probe in w.annotations.probes:
                g = qhead_to_kvhead(geo, probe.head)
                cache = caches.setdefault(g, build_cache(w, 0, g))
                s = dense_row_scores(
                    w.queries[0, probe.head, probe.position], probe.position,
                    cache, geo.scale,
                )
                res = top_p_exact(s, 0.9)
                assert token_mass(s, res.active_set) >= 0.9
                sizes[probe.kind] = res.size
                budgets = [1, 2, 4, 8, 16, 64, 256, s.size]
                masses = [
                    token_mass(s, top_k_static(s, k).active_set) for k in budgets
                ]
                assert all(a <= b for a, b in zip(masses, masses[1:]))
            assert sizes["diffuse"] >= 10 * sizes["concentrated"], (
                f"seed {seed}: {sizes}"
            )


def test_criterion_10_sparsity_metric_coupling(capsys):
    """Per-KV-head unions can only shrink the retained fraction."""
    geo = default_workload_geometry(n_q_heads=8, n_kv_heads=4, window=192)
    spec = WorkloadSpec(
        seq_len=768, decode_len=64, diffuse_support=200,
        planted_retrieval_heads=(1, 6), probe_head=1,
    )
    with gate(capsys, 10, "memory sparsity <= compute sparsity, union checked"):
        w = gen_synthetic_workload(spec, 23, geo)
        part = partition_heads(
            [1.0 if h in (1, 6) else 0.0 for h in range(8)], 0.25
        )
        projs = {
            (0, h): init_projector(geo.low_dim, geo.head_dim, h)
            for h in part.retrieval_set
        }
        run = run_workload(w, geo, [part], projs, mode="exact")
        REPORTS.append(run.report)
        assert len(REPORTS) >= 1
        for report in REPORTS:
            assert report.memory_sparsity <= report.compute_sparsity + 1e-12

        # hand-checked union: heads 0/1 share KV head 0, heads 2/3 share 1;
        # position 7 makes 8 tokens visible
        def trace(head, active):
            active = np.asarray(active)
            return DecodeTrace(
                layer=0, q_head=head, position=7, role=ROLE_RETRIEVAL,
                tokens_selected=active.size, covered_projected_mass=1.0,
                output=np.zeros(2), active_set=active,
            )

        traces = [
            trace(0, [0, 1]),
            trace(1, [1, 2]),
            trace(2, [0, 1, 2, 3, 4, 5]),
            trace(3, [5, 6, 7]),
        ]
        # attended fractions 2/8, 2/8, 6/8, 3/8; unions {0,1,2} and {0..7}
        assert compute_sparsity(traces) == pytest.approx(19 / 32, abs=1e-12)
        assert memory_sparsity(traces, lambda h: h // 2) == pytest.approx(
            5 / 16, abs=1e-12
        )


def test_criterion_11_distillation(capsys):
    """Loss is zero at the teacher, descends on the toy task, grads check."""
    rng = np.random.default_rng(56)
    with gate(capsys, 11, "distillation loss, gradient, and toy descent"):
        for _ in range(20):
            z = rng.normal(size=64) * 2
            top = extract_top10(z)
            assert distill_loss(top, z) <= 1e-12
            assert distill_loss(top, z - 3.0) <= 1e-12

            student = rng.normal(size=64)
            g = distill_grad(top, student)
            off = np.ones(64, bool)
            off[top.indices] = False
            assert np.all(g[off] == 0.0)
            h = 1e-5
            for i in top.indices:
                up, dn = student.copy(), student.copy()
                up[i] += h
                dn[i] -= h
                fd = (distill_loss(top, up) - distill_loss(top, dn)) / (2 * h)
                if abs(g[i]) > 1e-6:
                    assert abs(fd - g[i]) / abs(g[i]) < 1e-4

        model = make_toy_model(0)
        corpus = gen_toy_corpus(0, n_seq=4, seq_len=112)
        teacher = build_teacher_cache(model, corpus)
        _, trace = toy_self_distill(
            model, corpus, teacher, Stage2Config(steps=100), seed=0
        )
        sm = smooth_trace(np.array(trace), 20)[19:]
        assert sm[-1] <= 0.5 * sm[0], f"smoothed {sm[0]:.4f} -> {sm[-1]:.4f}"


def test_criterion_12_sparse_decode_beats_dense(capsys):
    """At 32K tokens the selective path wins the wall clock: whole requests
    on the calibrated workload with 20-step stage-1 projectors (the
    benchmark's set-up), timed by the helper `bench` runs."""
    with gate(capsys, 12, "sparse decode faster than dense at 32K"):
        wl = gen_synthetic_workload(WorkloadSpec(seq_len=32768), 0)
        geo = wl.geometry
        partitions = calibrate(wl)
        config = Stage1Config(steps=20, warmup_steps=5)
        projectors = {
            (layer, h): train_projector(
                build_stage1_dataset(wl, geo, layer, h, 0), config, 0,
                r=geo.low_dim, head_dim=geo.head_dim, label=f"stage1-L{layer}H{h}")[0]
            for layer, part in enumerate(partitions) for h in part.retrieval_set
        }
        rows = {r.mode: r.median_ms
                for r in bench_requests(wl, geo, partitions, projectors, 1)}
        assert rows["sparse_exact"] < rows["dense"], rows
        assert rows["sparse_histogram"] < rows["dense"], rows
