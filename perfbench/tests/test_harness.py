"""Self-tests of the benchmark harness, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import run
import spans as spanlib
import workloads
from headsparse import engine, selection

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_STAGE = {"steps": 2, "warmup_steps": 1}
TINY = {
    "decode-8k-exact": dict(seq_len=2048, decode_len=6, stage1=TINY_STAGE,
                            setup_repeats=2),
    "decode-128k-histogram": dict(seq_len=2048, train_len=2048, decode_len=6,
                                  stage1=TINY_STAGE),
    "cli-32k": dict(seq_len=2048, decode_len=6, stage1=TINY_STAGE, stage2=TINY_STAGE),
}
SEED = 3


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(name, traced, tmp_path):
    outcome, tracer = workloads.run_bench(tiny(name), ROOT, SEED, 0.01, traced,
                                          0.1, tmp_path)
    units = run.metric_units(traced)
    assert set(outcome.metrics) == set(units)
    assert all(units.values())
    assert all(np.isfinite(v) for v in outcome.metrics.values())
    assert outcome.attempted > 0 and outcome.failed == 0, outcome.notes
    if traced:
        assert tracer.absent == []
        assert outcome.metrics["engine.local_step_us_p50"] > 0
    else:
        assert all(v > 0 for v in outcome.metrics.values())
    if name == "cli-32k" and not traced:
        # several pipelines, then one tail of distill-toy and report
        pipelines = outcome.notes["pipelines"]
        assert pipelines >= workloads.MIN_PIPELINES
        assert outcome.attempted == pipelines * len(workloads.PIPELINE) + \
            len(workloads.TAIL)


@pytest.fixture(scope="module")
def decoded():
    bench = tiny("decode-8k-exact")
    state = bench.setup(SEED)
    return bench, state, bench.request(state)


def _check(bench, state, result) -> int:
    failures = workloads.Failures()
    workloads.check_decode(state, result, np.random.default_rng(0),
                           bench.expected_head_steps(state), None, failures)
    return failures.count


def test_clean_decode_passes_the_checks(decoded):
    assert _check(*decoded) == 0


def test_corrupted_trace_output_counts_as_failed(decoded):
    bench, state, result = decoded
    saved = [t.output for t in result.traces]
    try:
        for t in result.traces:
            t.output = t.output + 1e-3
        assert _check(bench, state, result) == workloads.CHECK_SAMPLES
    finally:
        for t, out in zip(result.traces, saved):
            t.output = out


def test_low_coverage_counts_as_failed(decoded):
    bench, state, result = decoded
    trace = next(t for t in result.traces if t.role == engine.ROLE_RETRIEVAL)
    saved = trace.covered_projected_mass
    try:
        trace.covered_projected_mass = 0.5
        assert _check(bench, state, result) == 1
    finally:
        trace.covered_projected_mass = saved


def test_nonzero_cli_exit_counts_as_failed(tmp_path):
    bench = tiny("cli-32k")
    config = bench.setup(ROOT, tmp_path)
    failures = workloads.Failures()
    # `run` before `calibrate` exits 2: there is no partition file yet
    out = workloads.run_pipeline(bench, ROOT, tmp_path, config, SEED, "t",
                                 failures, commands=("run",))
    assert out.runs[0].code == 2
    assert failures.count == 1 and "exited 2" in failures.reasons[0]


def test_missing_wrap_target_is_reported_absent(decoded):
    bench, state, _ = decoded
    gone = (spanlib.Target("engine.gone", "headsparse.engine", "no_such_function"),
            spanlib.Target("gone.module", "headsparse.no_such_module", "f"),
            spanlib.Target("workload.gone", "headsparse.workload",
                           "KVCacheHead.no_such_method"))
    tracer = spanlib.Tracer(spanlib.TARGETS + gone)
    tracer.install()
    try:
        with tracer.phase("request0", "request"):
            bench.request(state)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["engine.gone", "gone.module", "workload.gone"]
    metrics = spanlib.layer_metrics(tracer.spans, ["request0"])
    assert metrics["engine.prefill_s"] > 0
    assert engine.top_p_exact is selection.top_p_exact


def test_spans_of_one_position_share_an_id(decoded):
    bench, state, _ = decoded
    tracer = spanlib.Tracer()
    tracer.install()
    try:
        with tracer.phase("request0", "request"):
            bench.request(state)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    first = state.workload.prefill_len
    positions = range(first, state.workload.seq_len)
    step_ids = {s[spanlib.TID] for s in spans
                if s[spanlib.NAME] in ("engine.local_head_decode",
                                       "engine.retrieval_head_decode",
                                       "workload.kv_append")}
    assert step_ids == {f"request0:{t}" for t in positions}
    for s in spans:
        if s[spanlib.PARENT] >= 0 and spans[s[spanlib.PARENT]][spanlib.TID] in step_ids:
            assert s[spanlib.TID] == spans[s[spanlib.PARENT]][spanlib.TID]
    ix = spanlib.SpanIndex(spans)
    run = ix.calls("engine.run_workload")[0]
    children = sum(ix.dur(i) for i, s in enumerate(spans) if s[spanlib.PARENT] == run)
    assert ix.self_time[run] == pytest.approx(ix.dur(run) - children)
