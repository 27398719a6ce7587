"""Report tests: CSV/JSON round-trips, per-head summaries, the mass-vs-budget
sweep, and the decode bench harness."""

import numpy as np
import pytest
from test_workload import SMALL_SPEC, small_geometry

from headsparse.engine import DecodeTrace, SparsityReport
from headsparse.errors import ArgumentError
from headsparse.reports import (
    BENCH_HEADER,
    BENCH_MODES,
    TRACE_HEADER,
    BenchRow,
    bench_decode,
    bench_metadata,
    head_token_count_rows,
    mass_budget_sweep,
    read_bench,
    read_csv,
    read_decode_trace,
    read_sparsity_report,
    write_bench,
    write_csv,
    write_decode_trace,
    write_sparsity_report,
)
from headsparse.workload import (build_cache, build_cache_prefix, gen_synthetic_workload,
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


@pytest.fixture(scope="module")
def sweep_rows():
    wl = gen_synthetic_workload(SMALL_SPEC, seed=11, geometry=SMALL_GEO)
    positions = [700, 720, 740, 760]
    cache = build_cache(wl, 0, qhead_to_kvhead(SMALL_GEO, 1))
    return mass_budget_sweep(wl, 0, 1, cache, positions, budgets=[8, 32, 128], p=0.9)


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
            mass_budget_sweep(wl, 0, 1, build_cache(wl, 0, 0), [], [8], 0.9)

    def test_rejects_a_cache_short_of_the_positions(self):
        wl = gen_synthetic_workload(SMALL_SPEC, seed=11, geometry=SMALL_GEO)
        short = build_cache_prefix(wl, 0, 0, 700)
        with pytest.raises(ArgumentError):
            mass_budget_sweep(wl, 0, 1, short, [650, 720], [8], 0.9)


class TestBench:
    def test_rejects_zero_iterations(self):
        with pytest.raises(ArgumentError):
            bench_decode([256], seed=0, n_steps=0)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ArgumentError):
            bench_decode([256], seed=0, warmup=-1)

    def test_small_run_shape(self):
        rows = bench_decode([256], seed=3, n_steps=3, warmup=1)
        assert [r.mode for r in rows] == list(BENCH_MODES)
        for r in rows:
            assert r.length == 256
            assert 0 < r.median_ms <= r.p95_ms

    def test_file_round_trip(self, tmp_path):
        rows = [BenchRow(1024, "dense", 0.123456789, 0.2),
                BenchRow(1024, "sparse_exact", 0.05, 0.08)]
        path = tmp_path / "bench.csv"
        write_bench(path, rows)
        back = read_bench(path)
        assert back == rows
        assert read_csv(path, BENCH_HEADER)

    def test_metadata_fields(self):
        meta = bench_metadata(17)
        assert meta["seed"] == 17
        for key in ("machine", "platform", "python", "numpy"):
            assert isinstance(meta[key], str) and meta[key]
