"""Command-line front end: deterministic experiment orchestration.

Subcommands
    calibrate      generate the planted workload, score heads on it and
                   split them into retrieval and local sets (workload.json/
                   .bin, partition.csv, head_scores.csv)
    train-indexer  fit one low-rank projector per retrieval head
                   (projector-L{l}H{h}.json/.bin, stage1-loss-L{l}H{h}.csv)
    distill-toy    teacher-cache a small dense model and train its sparse
                   twin against it (teacher-cache.*, distill_loss.csv,
                   distill_summary.json)
    run            sparse-decode a workload and emit decode_trace.csv,
                   sparsity_report.json, head_token_counts.csv,
                   mass_sweep.csv
    bench          whole-request latency on the pipeline's workload,
                   partition and projectors, dense decode vs both sparse
                   selector modes (bench.csv, bench_meta.json)
    report         print a digest of whatever artifacts the output
                   directory holds

Configuration is one JSON file (--config) whose sections mirror the
records: geometry, workload, stage1, stage2, plus scalar keys mode,
top_k, seed, output_dir and bench_steps (timed requests per bench mode).
Unknown keys are rejected at every level and every value is type-checked
against its field (headsparse.record).  Precedence, highest first:
command-line flag, config file, the HEADSPARSE_OUT environment variable
(output directory only), built-in default.  Every command writes the fully
resolved config it ran under to config_used.json.

The workload is generated once per pipeline: calibrate streams it to
workload.json/.bin as it generates it, and train-indexer, run and bench
map the saved file when its seed, workload spec and the geometry fields
the generator reads (workload.GENERATOR_FIELDS) equal the resolved
config's; the other geometry fields are the run's own.  Otherwise (a
--seed or a geometry.rope_base override, say) they generate it again into
a temporary container under $TMPDIR, mapped and removed at once; both
routes give the same arrays bit for bit.  A saved workload without the
post-rotation keys (written before they were stored) exits 2, asking for
calibrate to be run again.

All randomness flows from the single seed; module-level streams split off
it by label, so each command is deterministic given (config, seed), bench
timings aside.  Exit codes: 0 success; 2 usage or configuration error,
an unreadable or malformed artifact or config file, or an output directory
that cannot be written; 3 violated internal invariant.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .calibration import calibrate, load_partitions, save_partitions
from .container import read_csv, read_json, write_csv, write_json
from .distill import (
    Stage2Config,
    build_teacher_cache,
    gen_toy_corpus,
    make_toy_model,
    toy_self_distill,
)
from .engine import MODES, ROLE_LOCAL, ROLE_RETRIEVAL, check_mode, run_workload
from .errors import ArgumentError, ConfigError, InternalError, NumericError
from .indexer import Projector, Stage1Config, build_stage1_dataset, train_projector
from .numerics import descending_order
from .optim import smooth_trace
from .record import Record
from .reports import (
    HEAD_COUNT_COLUMNS,
    HEAD_COUNT_HEADER,
    LOSS_HEADER,
    SCORE_HEADER,
    SWEEP_COLUMNS,
    SWEEP_HEADER,
    bench_metadata,
    bench_requests,
    head_token_count_rows,
    mass_budget_sweep,
    read_bench,
    read_decode_trace,
    read_sparsity_report,
    record_true_masses,
    write_bench,
    write_decode_trace,
    write_sparsity_report,
)
from .workload import (
    GENERATOR_FIELDS,
    ModelGeometry,
    Workload,
    WorkloadSpec,
    gen_synthetic_workload,
)

ENV_OUT = "HEADSPARSE_OUT"
DEFAULT_OUT = "headsparse-out"
WORKLOAD_STEM = "workload"


@dataclass(frozen=True)
class RunConfig(Record):
    """Everything a subcommand needs, validated up front."""

    geometry: ModelGeometry = field(default_factory=ModelGeometry)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    mode: str = "exact"
    top_k: int | None = None
    stage1: Stage1Config = field(default_factory=Stage1Config)
    stage2: Stage2Config = field(default_factory=Stage2Config)
    seed: int = 0
    output_dir: str | None = None
    bench_steps: int = 3

    def __post_init__(self):
        check_mode(self.mode, self.top_k)
        if self.bench_steps < 1:
            raise ConfigError("bench_steps must be >= 1")


@dataclass(frozen=True)
class DistillSummary(Record):
    """distill_summary.json: the toy run's smoothed-loss endpoints."""

    steps: int
    top_p: float
    initial_smoothed: float
    final_smoothed: float
    ratio: float


def _read_record(cls: type[Record], path: Path):
    """Decode one JSON file into a record; failures name the file."""
    try:
        return cls.from_dict(read_json(path))
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file, flags, and environment into one RunConfig."""
    config = getattr(args, "config", None)
    cfg = _read_record(RunConfig, Path(config)) if config else RunConfig()
    updates: dict = {}
    for name in ("seed", "mode", "top_k", "bench_steps"):
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    out = getattr(args, "out", None) or cfg.output_dir \
        or os.environ.get(ENV_OUT) or DEFAULT_OUT
    updates["output_dir"] = str(out)
    return dataclasses.replace(cfg, **updates)


def _ensure_out(cfg: RunConfig) -> Path:
    """The output directory, made if absent, with config_used.json in it."""
    out = Path(cfg.output_dir)
    write_json(out / "config_used.json", cfg.to_dict(), sort_keys=True)
    return out


def _load_partition_file(cfg: RunConfig, out: Path):
    path = out / "partition.csv"
    if not path.exists():
        raise ConfigError(f"missing partition file {path} (run calibrate first)")
    return load_partitions(path, cfg.geometry.retrieval_ratio)


def _pipeline_workload(cfg: RunConfig, out: Path) -> Workload:
    """The workload calibrate saved in `out`, under this config's geometry,
    when its seed, spec and the geometry fields the generator reads equal
    this config's; otherwise a freshly generated one.  A run that changes a
    decode-time field alone (top_p, say) maps the file."""
    stem = out / WORKLOAD_STEM
    if stem.with_suffix(".json").exists():
        saved = Workload.load(stem)
        if (saved.seed, saved.spec) == (cfg.seed, cfg.workload) and all(
                getattr(saved.geometry, f) == getattr(cfg.geometry, f)
                for f in GENERATOR_FIELDS):
            return dataclasses.replace(saved, geometry=cfg.geometry)
    return gen_synthetic_workload(cfg.workload, cfg.seed, cfg.geometry)


def cmd_calibrate(cfg: RunConfig, args: argparse.Namespace) -> None:
    out = _ensure_out(cfg)
    # streamed to the payload file as it is generated, and scored on the
    # mapped file, so no stage holds the whole workload
    workload = gen_synthetic_workload(cfg.workload, cfg.seed, cfg.geometry, out / WORKLOAD_STEM)
    partitions = calibrate(workload)
    save_partitions(out / "partition.csv", partitions)
    rows = []
    for layer, part in enumerate(partitions):
        rows.extend([layer, int(h), repr(float(part.scores[h]))]
                    for h in descending_order(part.scores))
    write_csv(out / "head_scores.csv", SCORE_HEADER, rows)
    for layer, part in enumerate(partitions):
        print(f"layer {layer}: retrieval heads {sorted(part.retrieval_set)} "
              f"of {part.n_heads}")


def cmd_train_indexer(cfg: RunConfig, args: argparse.Namespace) -> None:
    out = _ensure_out(cfg)
    partitions = _load_partition_file(cfg, out)
    geo = cfg.geometry
    workload = _pipeline_workload(cfg, out)
    for layer, part in enumerate(partitions):
        for h in sorted(part.retrieval_set):
            dataset = build_stage1_dataset(workload, geo, layer, h, cfg.seed)
            projector, trace = train_projector(
                dataset, cfg.stage1, cfg.seed, r=geo.low_dim,
                head_dim=geo.head_dim, label=f"stage1-L{layer}H{h}",
            )
            del dataset  # released before the next head's is built
            projector.save(out / f"projector-L{layer}H{h}", layer, h)
            write_csv(out / f"stage1-loss-L{layer}H{h}.csv", LOSS_HEADER,
                      [[step, repr(v)] for step, v in enumerate(trace)])
            first, last = _smoothed_ends(trace)
            print(f"layer {layer} head {h}: smoothed loss {first:.5f} -> {last:.5f}")


def _load_projectors(cfg: RunConfig, out: Path, partitions) -> dict:
    projectors = {}
    for layer, part in enumerate(partitions):
        for h in sorted(part.retrieval_set):
            stem = out / f"projector-L{layer}H{h}"
            if not stem.with_suffix(".json").exists():
                raise ConfigError(
                    f"missing projector {stem}.json (run train-indexer first)")
            projector, _ = Projector.load(stem)
            if projector.r != cfg.geometry.low_dim:
                raise ConfigError(
                    f"{stem.name} has r={projector.r} but geometry.low_dim="
                    f"{cfg.geometry.low_dim}")
            projectors[(layer, h)] = projector
    return projectors


def cmd_run(cfg: RunConfig, args: argparse.Namespace) -> None:
    out = _ensure_out(cfg)
    partitions = _load_partition_file(cfg, out)
    projectors = _load_projectors(cfg, out, partitions)
    geo = cfg.geometry
    workload = _pipeline_workload(cfg, out)
    result = run_workload(workload, geo, partitions, projectors, mode=cfg.mode,
                          top_k=cfg.top_k)
    traces, report = result.traces, result.report
    del result  # frees the decode caches before the oracle scores any rows
    if getattr(args, "oracle", False):
        record_true_masses(workload, traces)
    write_decode_trace(out / "decode_trace.csv", traces)
    write_sparsity_report(out / "sparsity_report.json", report)
    write_csv(out / "head_token_counts.csv", HEAD_COUNT_HEADER, head_token_count_rows(traces))
    sweep_head = min(partitions[0].retrieval_set, default=0)
    positions = np.linspace(workload.prefill_len, workload.seq_len - 1, 6,
                            dtype=int).tolist()
    sweep = mass_budget_sweep(workload, 0, sweep_head, positions,
                              budgets=[8, 64, 512], p=geo.top_p)
    write_csv(out / "mass_sweep.csv", SWEEP_HEADER, sweep)
    print(f"decoded {len(traces)} head-steps in mode {cfg.mode!r}")
    print(f"compute sparsity {report.compute_sparsity:.4f}, "
          f"memory sparsity {report.memory_sparsity:.4f}")


def _smoothed_ends(trace: list[float], window: int = 20) -> tuple[float, float]:
    """Mean loss over the trace's first and last full windows, of at most
    half the trace and at least one step each: disjoint from two steps on."""
    w = max(min(window, len(trace) // 2), 1)
    sm = smooth_trace(np.array(trace), w)
    return float(sm[w - 1]), float(sm[-1])


def cmd_distill_toy(cfg: RunConfig, args: argparse.Namespace) -> None:
    out = _ensure_out(cfg)
    model = make_toy_model(cfg.seed)
    corpus = gen_toy_corpus(cfg.seed)
    teacher = build_teacher_cache(model, corpus)
    teacher.save(out / "teacher-cache")
    _, trace = toy_self_distill(model, corpus, teacher, cfg.stage2, cfg.seed)
    write_csv(out / "distill_loss.csv", LOSS_HEADER,
              [[step, repr(v)] for step, v in enumerate(trace)])
    first, last = _smoothed_ends(trace)
    summary = DistillSummary(
        steps=len(trace),
        top_p=cfg.stage2.top_p,
        initial_smoothed=first,
        final_smoothed=last,
        ratio=last / first if first > 0 else 0.0,
    )
    write_json(out / "distill_summary.json", summary.to_dict())
    print(f"distilled {len(trace)} steps: smoothed loss "
          f"{summary.initial_smoothed:.5f} -> {summary.final_smoothed:.5f}")


def cmd_bench(cfg: RunConfig, args: argparse.Namespace) -> None:
    out = _ensure_out(cfg)
    partitions = _load_partition_file(cfg, out)
    projectors = _load_projectors(cfg, out, partitions)
    workload = _pipeline_workload(cfg, out)
    rows = bench_requests(workload, cfg.geometry, partitions, projectors, cfg.bench_steps)
    write_bench(out / "bench.csv", rows)
    write_json(out / "bench_meta.json",
               bench_metadata(cfg.seed, workload.seq_len, cfg.bench_steps), sort_keys=True)
    for r in rows:
        print(f"L={r.length:>7d} {r.mode:<17s} median {r.median_ms:8.3f} ms  "
              f"p95 {r.p95_ms:8.3f} ms")


# every file report reads, in the order it prints them
REPORTED = ("workload.json", "partition.csv", "sparsity_report.json", "decode_trace.csv",
            "head_token_counts.csv", "mass_sweep.csv", "bench.csv", "distill_summary.json")


def cmd_report(cfg: RunConfig, args: argparse.Namespace) -> None:
    out = Path(cfg.output_dir)
    if not any((out / name).exists() for name in REPORTED):
        raise ConfigError(f"no artifacts found in {out}")
    stem = out / WORKLOAD_STEM
    if stem.with_suffix(".json").exists():
        wl = Workload.load(stem)
        tensors = read_json(stem.with_suffix(".json"))["tensors"]
        mib = sum(entry["nbytes"] for entry in tensors) / 2**20
        print(f"workload: seq_len {wl.seq_len}, seed {wl.seed}, payload {mib:.1f} MiB")
    partition = out / "partition.csv"
    if partition.exists():
        for layer, part in enumerate(load_partitions(partition,
                                                     cfg.geometry.retrieval_ratio)):
            print(f"partition layer {layer}: retrieval {sorted(part.retrieval_set)}")
    sparsity = out / "sparsity_report.json"
    if sparsity.exists():
        rep = read_sparsity_report(sparsity)
        print(f"compute sparsity {rep.compute_sparsity:.4f}, "
              f"memory sparsity {rep.memory_sparsity:.4f}")
    trace_file = out / "decode_trace.csv"
    if trace_file.exists():
        rows = read_decode_trace(trace_file)
        if not rows:
            raise ArgumentError(f"{trace_file} holds no trace rows")
        sizes = [r["tokens_selected"] for r in rows]
        floor = min(r["projected_mass"] for r in rows)
        print(f"decode trace: {len(rows)} rows, mean selected {np.mean(sizes):.1f}, "
              f"mass floor {floor:.4f}")
        for role in (ROLE_RETRIEVAL, ROLE_LOCAL):
            true = [r["true_mass"] for r in rows
                    if r["role"] == role and r["true_mass"] is not None]
            if true:
                print(f"true mass floor {role} {min(true):.4g} over {len(true)} rows")
    for name, title, header, columns in (
            ("head_token_counts.csv", "per-head token counts:", HEAD_COUNT_HEADER,
             HEAD_COUNT_COLUMNS),
            ("mass_sweep.csv", "mass vs budget:", SWEEP_HEADER, SWEEP_COLUMNS)):
        if (out / name).exists():
            print(title)
            for row in read_csv(out / name, header, columns):
                print("  " + " ".join(map(str, row)))
    bench = out / "bench.csv"
    if bench.exists():
        rows = read_bench(bench)
        dense = {r.length: r.median_ms for r in rows if r.mode == "dense"}
        for r in rows:
            share = "" if r.mode == "dense" or r.length not in dense else \
                f" ({r.median_ms / dense[r.length]:.3f} of dense)"
            print(f"bench L={r.length} {r.mode}: median {r.median_ms:.3f} ms{share}")
    summary = out / "distill_summary.json"
    if summary.exists():
        data = _read_record(DistillSummary, summary)
        print(f"distill: smoothed {data.initial_smoothed:.5f} -> "
              f"{data.final_smoothed:.5f} over {data.steps} steps")


_COMMANDS = {
    "calibrate": cmd_calibrate,
    "train-indexer": cmd_train_indexer,
    "distill-toy": cmd_distill_toy,
    "run": cmd_run,
    "bench": cmd_bench,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="headsparse",
        description="Head-wise sparse attention: calibration, indexing, "
                    "decode, and measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help=f"output directory (overrides config and "
                                     f"${ENV_OUT})")
        p.add_argument("--seed", type=int, help="root seed override")
        p.add_argument("--mode", choices=MODES, help="selector mode override")
        p.add_argument("--top-k", dest="top_k", type=int,
                       help="token budget for top_k mode")
        if name == "run":
            p.add_argument("--oracle", action="store_true",
                           help="also record dense-attention mass per trace row")
        if name == "bench":
            p.add_argument("--bench-steps", dest="bench_steps", type=int,
                           help="timed requests per mode")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        _COMMANDS[args.command](cfg, args)
    except (ArgumentError, NumericError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
