"""The benchmark's workloads: set-up, a closed request loop, output checks
and failure accounting.

Decode workloads time `headsparse.engine.run_workload` as a whole; the CLI
workload times each `headsparse` subcommand as a child process.  Neither
re-implements a loop of the program, so a rewrite of decode or selection
shows up here unchanged.  All checks run outside the timed regions.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from headsparse import calibration, engine, indexer, reports
from headsparse import workload as hw
from headsparse.errors import ArgumentError
from headsparse.numerics import softmax

import pins
import spans as spanlib

HERE = Path(__file__).resolve().parent
clock = time.perf_counter

# Stage-1 and stage-2 training lengths: short enough that set-up and three
# CLI pipelines fit one run, and the same for every workload.
STAGE1 = {"steps": 20, "warmup_steps": 5}
STAGE2 = {"steps": 50, "warmup_steps": 10}
# set-ups per untraced run (median reported), and CLI pipelines per run
SETUP_REPEATS = 3
MIN_PIPELINES = 3
# head-steps per request (half retrieval, half local) whose output is
# recomputed as dense attention over the same active set
CHECK_SAMPLES = 16
# criterion 2's bound on |sparse output - dense output on the active set|
OUTPUT_TOL = 1e-6
CLI_TIMEOUT_S = 150.0


@dataclass
class Outcome:
    """Result of one benchmark run: metric values, the operations attempted
    and failed, and notes that explain them."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)


class Failures:
    """Failed-operation count plus the first few reasons."""

    def __init__(self):
        self.count = 0
        self.reasons: list[str] = []

    def add(self, n: int, reason: str) -> None:
        self.count += n
        self.note(reason)

    def note(self, reason: str) -> None:
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def _median(values) -> float:
    return float(statistics.median(values))


def peak_rss_self_mb() -> float:
    """This process's high-water resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Decode workloads
# ---------------------------------------------------------------------------

@dataclass
class DecodeState:
    geometry: hw.ModelGeometry
    workload: hw.Workload
    partitions: list
    projectors: dict
    calibrate_s: float
    train_s: float


@dataclass(frozen=True)
class DecodeBench:
    """A planted workload decoded by `run_workload` in one selector mode.
    Projectors are trained on a `train_len` workload of the same seed and
    geometry when given (they are length-independent r x d matrices)."""

    name: str
    seq_len: int
    mode: str
    train_len: int | None = None
    decode_len: int = 128
    stage1: dict = field(default_factory=lambda: dict(STAGE1))
    setup_repeats: int = SETUP_REPEATS
    min_requests: int = 1

    def spec(self, seq_len: int) -> hw.WorkloadSpec:
        return hw.WorkloadSpec(seq_len=seq_len, decode_len=self.decode_len)

    def setup(self, seed: int) -> DecodeState:
        geo = hw.default_workload_geometry()
        wl = hw.gen_synthetic_workload(self.spec(self.seq_len), seed, geo)
        train_wl = wl if self.train_len is None else \
            hw.gen_synthetic_workload(self.spec(self.train_len), seed, geo)
        t = clock()
        partitions = calibration.calibrate(wl)
        calibrate_s = clock() - t
        t = clock()
        config = indexer.Stage1Config.from_dict(self.stage1)
        projectors = {}
        for layer, part in enumerate(partitions):
            for h in sorted(part.retrieval_set):
                dataset = indexer.build_stage1_dataset(train_wl, geo, layer, h, seed)
                projectors[(layer, h)], _ = indexer.train_projector(
                    dataset, config, seed, r=geo.low_dim,
                    head_dim=geo.head_dim, label=f"stage1-L{layer}H{h}")
        train_s = clock() - t
        return DecodeState(geo, wl, partitions, projectors, calibrate_s, train_s)

    def expected_head_steps(self, state: DecodeState) -> int:
        geo = state.geometry
        return self.decode_len * geo.n_q_heads * geo.n_layers

    def request(self, state: DecodeState):
        return engine.run_workload(state.workload, state.geometry, state.partitions,
                                   state.projectors, mode=self.mode)


def check_decode(state: DecodeState, result, rng: np.random.Generator,
                 expected: int, reference: tuple | None, failures: Failures
                 ) -> tuple[float, float]:
    """Check one run_workload result; returns its (compute, memory)
    sparsity.  Failed head-steps go to `failures`."""
    geo, wl = state.geometry, state.workload
    p = geo.top_p
    traces = result.traces
    bad: set[int] = set()
    low = [i for i, t in enumerate(traces)
           if t.role == engine.ROLE_RETRIEVAL and not t.covered_projected_mass >= p]
    bad.update(low)
    if low:
        failures.note(f"{len(low)} retrieval head-steps cover projected mass < {p}")
    roles = {}
    for i, t in enumerate(traces):
        roles.setdefault(t.role, []).append(i)
    per_role = max(CHECK_SAMPLES // max(len(roles), 1), 1)
    sample = [int(i) for idx in roles.values()
              for i in rng.choice(idx, size=min(per_role, len(idx)), replace=False)]
    for i in sample:
        t = traces[i]
        cache = result.caches[(t.layer, hw.qhead_to_kvhead(geo, t.q_head))]
        scores = hw.dense_row_scores(wl.queries[t.layer, t.q_head, t.position],
                                     t.position, cache, geo.scale)
        want = softmax(scores[t.active_set]) @ cache.values64[t.active_set]
        err = float(np.abs(t.output - want).max())
        if not err <= OUTPUT_TOL:
            bad.add(i)
            failures.note(f"head {t.q_head} at {t.position}: output differs from "
                            f"dense attention on its active set by {err:.3g}")
    missing = max(expected - len(traces), 0)
    if missing:
        failures.note(f"{missing} of {expected} head-steps missing from the result")
    sparsity = (float(result.report.compute_sparsity),
                float(result.report.memory_sparsity))
    if reference is not None and sparsity != reference:
        # a request whose sparsity moved is wrong as a whole
        failures.add(expected, f"sparsity {sparsity} differs from the first "
                               f"request's {reference} on the same seed")
    else:
        failures.count += len(bad) + missing
    return sparsity


@dataclass
class RequestOutcome:
    wall: float
    head_steps: int
    sparsity: tuple[float, float] | None


def _decode_request(bench: DecodeBench, state: DecodeState, seed: int, index: int,
                    reference, failures: Failures, tracer=None) -> RequestOutcome | None:
    """One closed-loop request, timed, then checked outside the timing."""
    expected = bench.expected_head_steps(state)
    phase = tracer.phase(f"request{index}", "request") if tracer else \
        contextlib.nullcontext()
    try:
        if tracer:
            tracer.install()
        with phase:
            t = clock()
            result = bench.request(state)
            wall = clock() - t
    except Exception:  # a failing request is counted, the loop goes on
        traceback.print_exc()
        failures.add(expected, f"request {index} raised; see stderr")
        return None
    finally:
        if tracer:
            tracer.uninstall()
    rng = np.random.default_rng([seed, index])
    sparsity = check_decode(state, result, rng, expected, reference, failures)
    return RequestOutcome(wall, len(result.traces), sparsity)


def run_decode(bench: DecodeBench, seed: int, seconds: float, traced: bool,
               import_s: float) -> tuple[Outcome, spanlib.Tracer | None]:
    failures = Failures()
    tracer = spanlib.Tracer() if traced else None
    setups: list[tuple[float, float, float]] = []
    state = None
    for _ in range(1 if traced else bench.setup_repeats):
        state = None  # free the previous set-up first
        if tracer:
            tracer.install()
        try:
            with tracer.phase("setup", "setup") if tracer else contextlib.nullcontext():
                t = clock()
                state = bench.setup(seed)
                setups.append((clock() - t, state.calibrate_s, state.train_s))
        finally:
            if tracer:
                tracer.uninstall()
    expected = bench.expected_head_steps(state)

    # A traced run starts with one untraced warm-up request, then runs
    # traced (T) and untraced (U) requests in T U U T order, so neither side
    # always goes first.
    untraced, traced_walls, rates, requests = [], [], [], []
    reference = None
    attempted = 0
    start = clock()
    index = 0
    while index < (3 if traced else bench.min_requests) or clock() - start < seconds:
        use_tracer = tracer if traced and index and (index - 1) % 4 in (0, 3) else None
        attempted += expected
        out = _decode_request(bench, state, seed, index, reference, failures,
                              use_tracer)
        if out is not None:
            reference = reference or out.sparsity
            if use_tracer:
                traced_walls.append(out.wall)
                requests.append(f"request{index}")
            elif index or not traced:
                untraced.append(out.wall)
                rates.append(out.head_steps / out.wall)
        index += 1
    if not untraced or (traced and not traced_walls):
        raise RuntimeError(f"{bench.name}: no request completed")

    notes = {"requests": index, "setups": len(setups), "head_steps_per_request": expected,
             "failure_reasons": failures.reasons,
             "request_s": [round(w, 4) for w in untraced]}
    if traced:
        metrics = spanlib.layer_metrics(tracer.spans, requests)
        metrics["trace.overhead_pct"] = \
            (_median(traced_walls) / _median(untraced) - 1.0) * 100.0
        notes["absent_targets"] = tracer.absent
        notes["spans"] = len(tracer.spans)
        notes["traced_request_s"] = [round(w, 4) for w in traced_walls]
        return Outcome(metrics, attempted, failures.count, notes), tracer
    notes["calibrate_s"] = _median([s[1] for s in setups])
    notes["train_indexer_s"] = _median([s[2] for s in setups])
    notes["run_s"] = _median(untraced)
    metrics = {
        "setup_s": import_s + _median([s[0] for s in setups]),
        "decode_head_steps_per_s": _median(rates),
        "pipeline_s": notes["calibrate_s"] + notes["train_indexer_s"] + notes["run_s"],
        "peak_rss_mb": peak_rss_self_mb(),
        "compute_sparsity": reference[0],
        "memory_sparsity": reference[1],
    }
    return Outcome(metrics, attempted, failures.count, notes), None


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

# pipeline_s covers PIPELINE, repeated; TAIL runs once per run on the
# last pipeline's artifacts, for its checks and peak RSS
PIPELINE = ("calibrate", "train-indexer", "run")
TAIL = ("distill-toy", "report")
COMMANDS = PIPELINE + TAIL


@dataclass
class SubcommandRun:
    command: str
    code: int
    wall: float
    start: float
    end: float
    peak_rss_mb: float


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    pins.pin_threads(env)
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap `proc` and return (exit code, its own rusage).  The wait blocks,
    so the benchmark takes no CPU from the child while it runs; a timer
    kills a child that outlives `timeout`."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_subcommand(root: Path, argv: list[str], log: Path,
                   span_file: Path | None = None, phase: str = "") -> SubcommandRun:
    """Run `headsparse <argv>` as a child process and time it from spawn to
    exit.  With `span_file`, the child runs under the tracing launcher."""
    if span_file is None:
        cmd = [sys.executable, "-m", "headsparse.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(span_file), phase,
               "--", *argv]
    with open(log, "w") as fh:
        start = clock()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(root), cwd=root)
        code, usage = _wait(proc, CLI_TIMEOUT_S)
        end = clock()
    return SubcommandRun(argv[0], code, end - start, start, end,
                         usage.ru_maxrss / 1024.0)


@dataclass(frozen=True)
class CliBench:
    """The `headsparse` CLI end to end, one child process per subcommand."""

    name: str
    seq_len: int
    decode_len: int = 128
    stage1: dict = field(default_factory=lambda: dict(STAGE1))
    stage2: dict = field(default_factory=lambda: dict(STAGE2))

    def setup(self, root: Path, work: Path) -> Path:
        """Write the configuration and start the CLI once (`--help`): the
        interpreter start and imports that every subcommand pays."""
        work.mkdir(parents=True, exist_ok=True)
        config = {"workload": {"seq_len": self.seq_len, "decode_len": self.decode_len},
                  "stage1": self.stage1, "stage2": self.stage2}
        path = work / "config.json"
        path.write_text(json.dumps(config, indent=2) + "\n")
        log = work / "help.log"
        if run_subcommand(root, ["--help"], log).code != 0:
            raise RuntimeError(f"the headsparse CLI does not start: "
                               f"{log.read_text(errors='replace')[-300:]}")
        return path

    def expected_head_steps(self) -> int:
        geo = hw.default_workload_geometry()
        return self.decode_len * geo.n_q_heads * geo.n_layers


@dataclass
class PipelineOutcome:
    runs: list[SubcommandRun]
    head_steps: int
    sparsity: tuple[float, float] | None

    def wall(self, command: str) -> float:
        return sum(r.wall for r in self.runs if r.command == command)


def check_artifacts(command: str, out: Path, bench: CliBench, state: dict) -> None:
    """Load what `command` wrote through the program's own readers; raise
    on anything missing or wrong.  `state` carries earlier stages' results."""
    geo = hw.default_workload_geometry()
    if command == "calibrate":
        state["partitions"] = calibration.load_partitions(out / "partition.csv",
                                                          geo.retrieval_ratio)
    elif command == "train-indexer":
        for layer, part in enumerate(state["partitions"]):
            for h in part.retrieval_set:
                indexer.Projector.load(out / f"projector-L{layer}H{h}")
    elif command == "run":
        rows = reports.read_decode_trace(out / "decode_trace.csv")
        report = reports.read_sparsity_report(out / "sparsity_report.json")
        if len(rows) != bench.expected_head_steps():
            raise ValueError(f"decode trace has {len(rows)} rows, expected "
                             f"{bench.expected_head_steps()}")
        floor = min(r["projected_mass"] for r in rows)
        if not floor >= geo.top_p:
            raise ValueError(f"decode trace mass floor {floor} < p={geo.top_p}")
        state["head_steps"] = len(rows)
        state["sparsity"] = (float(report.compute_sparsity),
                             float(report.memory_sparsity))
    elif command == "distill-toy":
        summary = json.loads((out / "distill_summary.json").read_text())
        if summary["steps"] != bench.stage2["steps"]:
            raise ValueError(f"distill summary reports {summary['steps']} steps")


def run_pipeline(bench: CliBench, root: Path, work: Path, config: Path, seed: int,
                 label: str, failures: Failures, commands=PIPELINE,
                 tracer: spanlib.Tracer | None = None) -> PipelineOutcome:
    """Run `commands` in turn on the output directory of `label`, checking
    each one's artifacts."""
    out = work / f"out-{label}"
    state: dict = {}
    runs = []
    phase = tracer.phase(label, "request") if tracer else contextlib.nullcontext()
    with phase:
        for command in commands:
            argv = [command, "--config", str(config), "--out", str(out),
                    "--seed", str(seed)]
            span_file = work / f"spans-{label}-{command}.json" if tracer else None
            log = work / f"{label}-{command}.log"
            run = run_subcommand(root, argv, log, span_file, label)
            runs.append(run)
            if tracer is not None:
                _adopt(tracer, span_file, run)
            if run.code != 0:
                tail = log.read_text(errors="replace")[-300:].strip()
                failures.add(1, f"{command} exited {run.code}: {tail}")
                continue
            try:
                check_artifacts(command, out, bench, state)
            except (ArgumentError, OSError, ValueError, KeyError) as e:
                failures.add(1, f"{command}: {e}")
    return PipelineOutcome(runs, state.get("head_steps", 0), state.get("sparsity"))


def _adopt(tracer: spanlib.Tracer, span_file: Path, run: SubcommandRun) -> None:
    try:
        dump = json.loads(span_file.read_text())
    except (OSError, json.JSONDecodeError):
        dump = {"spans": [], "absent": []}
    tracer.adopt(dump["spans"], "subcommand", run.start, run.end)
    tracer.absent = sorted(set(tracer.absent) | set(dump["absent"]))


def run_cli(bench: CliBench, root: Path, seed: int, seconds: float, traced: bool,
            import_s: float, work: Path) -> tuple[Outcome, spanlib.Tracer | None]:
    failures = Failures()
    setups = []
    for _ in range(1 if traced else SETUP_REPEATS):
        t = clock()
        config = bench.setup(root, work)
        setups.append(clock() - t)

    def pipeline(label: str, tracer=None) -> list[PipelineOutcome]:
        return [run_pipeline(bench, root, work, config, seed, label, failures,
                             commands, tracer)
                for commands in (PIPELINE, TAIL)]

    tracer = spanlib.Tracer() if traced else None
    if traced:
        # one untraced and one traced pipeline, each with its tail
        plain, with_spans = pipeline("untraced"), pipeline("request0", tracer)
        pipelines = [plain[0], with_spans[0]]
        tails = [plain[1], with_spans[1]]
    else:
        pipelines = []
        start = clock()
        while len(pipelines) < MIN_PIPELINES or clock() - start < seconds:
            pipelines.append(run_pipeline(bench, root, work, config, seed,
                                          f"p{len(pipelines)}", failures))
        tails = [run_pipeline(bench, root, work, config, seed,
                              f"p{len(pipelines) - 1}", failures, TAIL)]
    runs = [r for p in pipelines + tails for r in p.runs]
    sparsities = {p.sparsity for p in pipelines if p.sparsity is not None}
    if len(sparsities) > 1:
        # every `run` subcommand is wrong when they disagree on one seed
        failures.add(len(pipelines), f"sparsity differs across pipelines: {sparsities}")
    done = [p for p in pipelines if p.sparsity is not None]
    if not done:
        raise RuntimeError(f"{bench.name}: no pipeline completed; "
                           f"{failures.reasons}")
    notes = {"pipelines": len(pipelines), "setups": len(setups),
             "failure_reasons": failures.reasons,
             "subcommand_s": {c: [round(r.wall, 4) for r in runs if r.command == c]
                              for c in COMMANDS}}
    if traced:
        metrics = spanlib.layer_metrics(tracer.spans, ["request0"])
        total = [sum(r.wall for r in p.runs + t.runs) for p, t in zip(pipelines, tails)]
        metrics["trace.overhead_pct"] = (total[1] / total[0] - 1.0) * 100.0
        notes["absent_targets"] = tracer.absent
        notes["spans"] = len(tracer.spans)
        return Outcome(metrics, len(runs), failures.count, notes), tracer

    metrics = {
        "setup_s": import_s + _median(setups),
        "decode_head_steps_per_s": _median([p.head_steps / p.wall("run") for p in done]),
        "pipeline_s": _median([sum(p.wall(c) for c in PIPELINE) for p in done]),
        "peak_rss_mb": max(r.peak_rss_mb for r in runs),
        "compute_sparsity": done[0].sparsity[0],
        "memory_sparsity": done[0].sparsity[1],
    }
    return Outcome(metrics, len(runs), failures.count, notes), None


WORKLOADS = {
    "decode-8k-exact": DecodeBench("decode-8k-exact", 8192, "exact"),
    "decode-128k-histogram": DecodeBench("decode-128k-histogram", 131072, "histogram",
                                         train_len=8192, setup_repeats=1,
                                         min_requests=2),
    "cli-32k": CliBench("cli-32k", 32768),
}


def run_bench(bench, root: Path, seed: int, seconds: float, traced: bool,
              import_s: float, work: Path) -> tuple[Outcome, spanlib.Tracer | None]:
    """Run one workload; the tracer comes back only from a traced run."""
    if isinstance(bench, CliBench):
        return run_cli(bench, root, seed, seconds, traced, import_s, work)
    return run_decode(bench, seed, seconds, traced, import_s)
