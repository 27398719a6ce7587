"""The config codec: type checks with dotted keys, and lossless round
trips for every record."""

import dataclasses
import json

import pytest

from headsparse.cli import DistillSummary, RunConfig
from headsparse.distill import Stage2Config
from headsparse.errors import ConfigError
from headsparse.indexer import Stage1Config
from headsparse.workload import (
    ModelGeometry,
    ProbeAnnotation,
    WorkloadAnnotations,
    WorkloadSpec,
)

REMOVED_WORKLOAD_KEYS = (
    "needle_len", "concentrated_support", "n_content", "bg_seek_prob",
    "bg_key_scale", "needle_key_scale", "probe_key_scale",
    "retrieval_query_gain", "local_query_gain", "local_key_gain",
    "sink_key_gain", "sink_query_gain", "noise_scale", "value_scale",
)

REJECTED = [
    ({"geometry": {"window": 100.5}}, "geometry.window"),
    ({"mode": "top_k", "top_k": 2.5}, "top_k"),
    ({"seed": True}, "seed"),
    ({"geometry": {"top_p": "0.9"}}, "geometry.top_p"),
    ({"workload": {"planted_retrieval_heads": 5}}, "workload.planted_retrieval_heads"),
    ({"workload": {"planted_retrieval_heads": [2, "9"]}},
     r"workload.planted_retrieval_heads\[1\]"),
    ({"workload": {"include_probes": 1}}, "workload.include_probes"),
    ({"output_dir": 5}, "output_dir"),
    ({"mode": None}, "mode"),
    ({"stage1": None}, "stage1"),
    ({"stage2": {"schedule": 3}}, "stage2.schedule"),
] + [({"workload": {key: 1.0}}, f"unknown config keys: .*workload.{key}")
     for key in REMOVED_WORKLOAD_KEYS]


@pytest.mark.parametrize("raw, match", REJECTED,
                         ids=[str(raw) for raw, _ in REJECTED])
def test_mistyped_or_removed_values_rejected(raw, match):
    with pytest.raises(ConfigError, match=match):
        RunConfig.from_dict(raw)


def test_non_object_rejected():
    with pytest.raises(ConfigError, match="must be an object"):
        Stage1Config.from_dict([1, 2])


def test_missing_required_key_named():
    with pytest.raises(ConfigError, match=r"missing config keys: \['head'\]"):
        ProbeAnnotation.from_dict({"kind": "diffuse", "position": 3, "support": []})


def test_ints_widen_to_float_but_not_back():
    geo = ModelGeometry.from_dict({"rope_base": 1000, "top_p": 1})
    assert type(geo.rope_base) is float and geo.rope_base == 1000.0
    assert type(geo.top_p) is float
    assert RunConfig.from_dict({"top_k": None}).top_k is None


def test_workload_spec_keeps_only_the_set_knobs():
    assert [f.name for f in dataclasses.fields(WorkloadSpec)] == [
        "seq_len", "decode_len", "pre_start", "post_start",
        "planted_retrieval_heads", "include_probes", "probe_head",
        "diffuse_support",
    ]


ANNOTATIONS = WorkloadAnnotations(
    planted_retrieval_heads=(1, 6),
    planted_local_heads=(0, 2, 3, 4, 5, 7),
    n_pre=(8, 9),
    n_post=(700, 701),
    probes=(ProbeAnnotation("concentrated", 1, 766, (3, 40)),
            ProbeAnnotation("diffuse", 1, 767, ())),
)

RECORDS = [
    ModelGeometry(n_layers=2, n_q_heads=8, n_kv_heads=2, head_dim=32,
                  rope_base=1.0e6, window=100, n_sinks=0, retrieval_ratio=0.25,
                  low_dim=8, top_p=0.95, block_size=32),
    WorkloadSpec(seq_len=777, decode_len=33, pre_start=3, post_start=500,
                 planted_retrieval_heads=(1, 6), include_probes=False,
                 probe_head=6, diffuse_support=12),
    ANNOTATIONS.probes[0],
    ANNOTATIONS,
    Stage1Config(max_lr=0.5, warmup_steps=0, schedule="constant",
                 weight_decay=0.0, max_grad_norm=2.0, steps=7, rows_per_step=3),
    Stage2Config(steps=9, max_lr=0.1, warmup_steps=2, schedule="cosine",
                 weight_decay=0.5, clip_norm=3.0, top_p=0.5),
    RunConfig(workload=WorkloadSpec(seq_len=900), mode="top_k", top_k=5,
              stage1=Stage1Config(steps=3), stage2=Stage2Config(steps=4),
              seed=9, output_dir="x", bench_steps=2),
    DistillSummary(steps=5, top_p=0.9, initial_smoothed=1.5,
                   final_smoothed=0.5, ratio=1 / 3),
]


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_round_trip_through_json(record):
    d = json.loads(json.dumps(record.to_dict()))
    assert type(record).from_dict(d) == record


def test_to_dict_writes_fields_in_order_with_lists():
    d = RunConfig().to_dict()
    assert list(d) == [f.name for f in dataclasses.fields(RunConfig)]
    assert d["workload"]["planted_retrieval_heads"] == [2, 9]
    assert "rope" not in d["geometry"]
    assert ANNOTATIONS.to_dict()["probes"][0] == {
        "kind": "concentrated", "head": 1, "position": 766, "support": [3, 40]}
