"""Report tests: CSV/JSON round-trips, per-head summaries, the float64
oracle's true masses, the mass-vs-budget sweep, and the request bench."""

import dataclasses
import os

import numpy as np
import pytest
from test_engine import SMALL_WORKLOAD, small_partition, small_projectors
from test_workload import SMALL_SPEC, full_query_rows, per_layer_generation, small_geometry

from headsparse.calibration import calibrate
from headsparse.engine import DecodeTrace, SparsityReport, run_workload
from headsparse.errors import ArgumentError
from headsparse.indexer import build_stage1_dataset
from headsparse.numerics import softmax
from headsparse.reports import (
    BENCH_HEADER,
    BENCH_MODES,
    ORACLE_ROWS,
    TRACE_HEADER,
    BenchRow,
    bench_metadata,
    bench_request,
    bench_requests,
    head_token_count_rows,
    mass_budget_sweep,
    read_bench,
    read_csv,
    read_decode_trace,
    read_sparsity_report,
    record_true_masses,
    write_bench,
    write_csv,
    write_decode_trace,
    write_sparsity_report,
)
from headsparse.workload import (build_cache, dense_row_scores, gen_synthetic_workload,
                                 qhead_to_kvhead)

SMALL_GEO = small_geometry()


def make_trace(layer, head, position, size, mass, role="retrieval", true_mass=None):
    active = np.arange(size)
    return DecodeTrace(layer, head, position, role, size, mass,
                       np.zeros(4), active, true_mass)


class TestCsvPlumbing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, "x"], [2, "y"]])
        assert read_csv(path, ["a", "b"]) == [["1", "x"], ["2", "y"]]

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2]])
        with pytest.raises(ArgumentError):
            read_csv(path, ["a", "c"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArgumentError):
            read_csv(tmp_path / "absent.csv", ["a", "b"])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ArgumentError, match="is empty"):
            read_csv(path, ["a", "b"])


class TestDecodeTraceFile:
    def test_round_trip_exact(self, tmp_path):
        traces = [
            make_trace(0, 1, 40, 7, 0.912345678901234, true_mass=0.875),
            make_trace(1, 2, 41, 12, 1.0, role="local"),
        ]
        path = tmp_path / "trace.csv"
        write_decode_trace(path, traces)
        back = read_decode_trace(path)
        assert back[0]["projected_mass"] == traces[0].covered_projected_mass
        assert back[0]["true_mass"] == 0.875
        assert back[1]["true_mass"] is None
        assert back[1]["tokens_selected"] == 12
        assert [r["position"] for r in back] == [40, 41]
        assert [r["role"] for r in back] == ["retrieval", "local"]

    def test_header_written(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_decode_trace(path, [])
        assert path.read_text().strip() == ",".join(TRACE_HEADER)


class TestSparsityReportFile:
    def test_round_trip_exact(self, tmp_path):
        rep = SparsityReport(0.8123456789012345, 0.7,
                             np.array([[3.25, 10.5], [1.0, 2.0]]))
        path = tmp_path / "sparsity.json"
        write_sparsity_report(path, rep)
        back = read_sparsity_report(path)
        assert back.compute_sparsity == rep.compute_sparsity
        assert back.memory_sparsity == rep.memory_sparsity
        np.testing.assert_array_equal(back.per_head_active, rep.per_head_active)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ArgumentError):
            read_sparsity_report(path)


class TestHeadTokenCounts:
    def test_hand_summary(self):
        traces = [make_trace(0, 0, 99, s, 0.95) for s in (10, 20, 30)]
        traces.append(make_trace(0, 1, 99, 5, 1.0, role="local"))
        rows = head_token_count_rows(traces)
        assert rows[0] == [0, 0, "retrieval", 3, 20.0, 20, 29, 30]
        assert rows[1] == [0, 1, "local", 1, 5.0, 5, 5, 5]

    def test_sorted_by_layer_then_head(self):
        traces = [
            make_trace(1, 0, 50, 3, 0.9),
            make_trace(0, 2, 50, 4, 0.9),
            make_trace(0, 1, 50, 5, 0.9),
        ]
        ids = [(r[0], r[1]) for r in head_token_count_rows(traces)]
        assert ids == [(0, 1), (0, 2), (1, 0)]


def reference_mass(wl, trace):
    """The one-row oracle: the softmax of dense_row_scores over the group's
    full cache, summed over the trace's active set."""
    cache = build_cache(wl, trace.layer, qhead_to_kvhead(wl.geometry, trace.q_head))
    q = wl.queries[trace.layer, trace.q_head, trace.position]
    return float(softmax(dense_row_scores(q, trace.position, cache))[trace.active_set].sum())


def oracle_trace(position, active, q_head=1):
    return DecodeTrace(0, q_head, position, "retrieval", len(active), 1.0, np.zeros(4),
                       np.asarray(active))


def test_every_reader_runs_on_the_kept_rows():
    """calibrate, build_stage1_dataset, run_workload, oracle_rows (through
    record_true_masses), mass_budget_sweep and bench_requests read only the
    query rows the workload keeps, and give what they give over the
    per-layer form's full-length rows."""
    w = gen_synthetic_workload(SMALL_SPEC, 11, SMALL_GEO)
    queries = per_layer_generation(SMALL_SPEC, 11, SMALL_GEO)[0]
    full = dataclasses.replace(w, queries=full_query_rows(queries))
    assert w.queries.rows.shape[2] < w.seq_len
    (part,) = calibrate(w)
    assert calibrate(full) == [part]
    for h in part.retrieval_set:
        ds = build_stage1_dataset(w, SMALL_GEO, 0, h, 11)
        assert ds.queries.tobytes() == queries[0, h, ds.positions].tobytes()
    projs = small_projectors(part, SMALL_GEO)
    sweeps = []
    for wl in (w, full):
        traces = run_workload(wl, SMALL_GEO, [part], projs).traces
        record_true_masses(wl, traces)
        positions = np.linspace(wl.prefill_len, wl.seq_len - 1, 6, dtype=int).tolist()
        sweeps.append((traces, mass_budget_sweep(wl, 0, min(part.retrieval_set), positions,
                                                 [8, 64], SMALL_GEO.top_p)))
    (got, got_sweep), (want, want_sweep) = sweeps
    assert got_sweep == want_sweep
    for a, b in zip(got, want, strict=True):
        assert a.covered_true_mass == b.covered_true_mass
        assert np.array_equal(a.output, b.output)
    rows = bench_requests(w, SMALL_GEO, [part], projs, 1)
    assert [r.mode for r in rows] == list(BENCH_MODES)


class TestTrueMasses:
    @pytest.mark.parametrize("mode", ["exact", "histogram"])
    def test_batches_match_the_one_row_oracle(self, mode):
        """Every head-step of a decode run, of both roles, within 1e-12 of
        the one-row oracle; each KV group's rows span at least three
        ORACLE_ROWS batches."""
        wl = SMALL_WORKLOAD
        part = small_partition()
        res = run_workload(wl, wl.geometry, [part], small_projectors(part, wl.geometry),
                           mode=mode)
        assert (wl.seq_len - wl.prefill_len) * wl.geometry.group_size > 2 * ORACLE_ROWS
        record_true_masses(wl, res.traces)
        assert {t.role for t in res.traces} == {"retrieval", "local"}
        for t in res.traces:
            assert abs(t.covered_true_mass - reference_mass(wl, t)) <= 1e-12

    def test_full_set_is_one(self):
        traces = [oracle_trace(749, np.arange(750))]
        record_true_masses(SMALL_WORKLOAD, traces)
        assert traces[0].covered_true_mass == pytest.approx(1.0)

    def test_subset_mass(self):
        traces = [oracle_trace(749, [0, 7, 749]), oracle_trace(704, [3, 650], q_head=4)]
        record_true_masses(SMALL_WORKLOAD, traces)
        for t in traces:
            assert abs(t.covered_true_mass - reference_mass(SMALL_WORKLOAD, t)) <= 1e-12

    def test_set_past_the_position_rejected(self):
        """A set that reaches past its step's position + 1 tokens raises,
        also where the batch's row is longer (its head shares a batch with
        a later position), so nothing past the step's row is read."""
        for late in ([0, 750], [-1, 3]):
            traces = [oracle_trace(749, late), oracle_trace(760, [0])]
            with pytest.raises(ArgumentError):
                record_true_masses(SMALL_WORKLOAD, traces)

    def test_reads_no_values(self):
        """The oracle scores rotated keys without a cache, so a workload
        without values gives what the full workload gives."""
        part = small_partition()
        traces = run_workload(SMALL_WORKLOAD, SMALL_WORKLOAD.geometry, [part],
                              small_projectors(part, SMALL_WORKLOAD.geometry)).traces
        record_true_masses(SMALL_WORKLOAD, traces)
        want = [t.covered_true_mass for t in traces]
        record_true_masses(dataclasses.replace(SMALL_WORKLOAD, values=None), traces)
        assert [t.covered_true_mass for t in traces] == want


@pytest.fixture(scope="module")
def sweep_rows():
    wl = gen_synthetic_workload(SMALL_SPEC, seed=11, geometry=SMALL_GEO)
    positions = [704, 720, 740, 760]
    return mass_budget_sweep(wl, 0, 1, positions, budgets=[8, 32, 128], p=0.9)


class TestMassBudgetSweep:
    def test_top_k_mass_monotone(self, sweep_rows):
        k_rows = sorted(r for r in sweep_rows if r[0] == "top_k")
        masses = [r[2] for r in sorted(k_rows, key=lambda r: r[1])]
        assert masses == sorted(masses)
        assert all(0 <= m <= 1 for m in masses)

    def test_top_k_token_counts_are_the_budget(self, sweep_rows):
        for r in sweep_rows:
            if r[0] == "top_k":
                assert r[3] == float(r[1])

    def test_top_p_meets_floor(self, sweep_rows):
        (p_row,) = [r for r in sweep_rows if r[0] == "top_p"]
        assert p_row[1] == 0.9
        assert p_row[2] >= 0.9 - 1e-6

    def test_rejects_empty_positions(self):
        wl = gen_synthetic_workload(SMALL_SPEC, seed=11, geometry=SMALL_GEO)
        with pytest.raises(ArgumentError):
            mass_budget_sweep(wl, 0, 1, [], [8], 0.9)

    @pytest.mark.parametrize("layer, position", [(0, 768), (0, -1), (1, 700)])
    def test_rejects_a_position_past_the_stream(self, layer, position):
        wl = gen_synthetic_workload(SMALL_SPEC, seed=11, geometry=SMALL_GEO)
        with pytest.raises(ArgumentError):
            mass_budget_sweep(wl, layer, 1, [650, position], [8], 0.9)


class TestBench:
    @pytest.fixture(scope="class")
    def pipeline(self):
        """SMALL_WORKLOAD's calibrated partition and untrained projectors."""
        partitions = calibrate(SMALL_WORKLOAD)
        return (SMALL_WORKLOAD, SMALL_GEO, partitions,
                small_projectors(partitions[0], SMALL_GEO))

    def test_rejects_zero_requests(self, pipeline):
        with pytest.raises(ArgumentError):
            bench_requests(*pipeline, 0)

    def test_small_run_shape(self, pipeline):
        rows = bench_requests(*pipeline, 3)
        assert [r.mode for r in rows] == list(BENCH_MODES)
        for r in rows:
            assert r.length == SMALL_WORKLOAD.seq_len
            assert 0 < r.median_ms <= r.p95_ms

    def test_dense_request_attends_every_visible_token(self, pipeline):
        traces = bench_request(*pipeline, "dense").traces
        assert len(traces) == SMALL_SPEC.decode_len * SMALL_GEO.n_layers * SMALL_GEO.n_q_heads
        assert {t.role for t in traces} == {"local"}
        assert all(t.tokens_selected == t.position + 1 for t in traces)

    @pytest.mark.parametrize("mode", ["exact", "histogram"])
    def test_sparse_requests_are_plain_runs(self, pipeline, mode):
        got = bench_request(*pipeline, f"sparse_{mode}").traces
        want = run_workload(*pipeline, mode=mode).traces
        assert [(t.q_head, t.position, t.tokens_selected) for t in got] == \
            [(t.q_head, t.position, t.tokens_selected) for t in want]

    def test_file_round_trip(self, tmp_path):
        rows = [BenchRow(1024, "dense", 0.123456789, 0.2),
                BenchRow(1024, "sparse_exact", 0.05, 0.08)]
        path = tmp_path / "bench.csv"
        write_bench(path, rows)
        back = read_bench(path)
        assert back == rows
        assert read_csv(path, BENCH_HEADER)

    def test_metadata_fields(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        meta = bench_metadata(17, 768, 3)
        assert (meta["seed"], meta["seq_len"], meta["requests_per_mode"]) == (17, 768, 3)
        assert meta["cpus"] == len(os.sched_getaffinity(0)) >= 1
        assert (meta["OPENBLAS_NUM_THREADS"], meta["OMP_NUM_THREADS"]) == ("1", None)
        for key in ("machine", "platform", "python", "numpy"):
            assert isinstance(meta[key], str) and meta[key]
