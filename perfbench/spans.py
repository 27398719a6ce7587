"""Span tracing from outside the program.

A `Tracer` replaces public functions of the `headsparse` modules with thin
wrappers that record one span per call: name, start, end, parent span and a
trace id.  Spans of one decode position share the id `<phase>:<position>`;
every other span inherits its parent's id, and top-level spans take the id
of the harness phase around them (`setup`, `request0`, ...).  Spans stay in
memory until the run ends, and `layer_metrics` derives the per-layer numbers
from them: self time is a span's duration minus that of its children.

A function is replaced at every binding a loaded `headsparse` module holds,
so `run_workload`'s own lookups (for example `top_p_exact` in
`headsparse.engine`) go through the wrapper.  A target whose module or
attribute no longer exists is listed in `Tracer.absent` and skipped.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

# fields of one span record
NAME, START, END, PARENT, TID, INFO, PHASE = range(7)

# prefix of spans the harness opens itself; they are not a program layer
HARNESS = "bench"

LAYERS = ("workload", "calibration", "indexer", "selection", "engine",
          "reports", "container", "distill", "cli")


@dataclass(frozen=True)
class Target:
    """One wrapped callable.  `attr` is `func` or `Class.method`; `position`
    is the index in the call's positional arguments (self included) of a
    decode position that starts a new trace id.  With `everywhere`, a
    function is also replaced in every other module that imported it."""

    name: str
    module: str
    attr: str
    position: int | None = None
    observe: Callable | None = None
    everywhere: bool = True


def _attend_tokens(args, kwargs, result):
    active = kwargs["active"] if "active" in kwargs else args[3]
    return {"tokens": int(len(active))}


def _selection(p_index: int):
    def observe(args, kwargs, result):
        p = kwargs["p"] if "p" in kwargs else args[p_index]
        info = {"tokens": int(result.size),
                "overshoot": float(result.covered_mass) - float(p)}
        if getattr(result, "block_mask", None) is not None:
            info["kept"] = float(result.block_mask.mean())
        return info
    return observe


def _nbytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if hasattr(v, "nbytes"))


def _run_bytes(args, kwargs, result):
    return {"kv_cache_bytes": sum(_nbytes(c) for c in result.caches.values()),
            "trace_bytes": sum(_nbytes(t) for t in result.traces)}


E, W, I = "headsparse.engine", "headsparse.workload", "headsparse.indexer"
R, C, D, CAL = "headsparse.reports", "headsparse.container", \
    "headsparse.distill", "headsparse.calibration"

TARGETS: tuple[Target, ...] = (
    Target("workload.gen_synthetic_workload", W, "gen_synthetic_workload"),
    Target("workload.build_cache_prefix", W, "build_cache_prefix"),
    Target("workload.kv_append", W, "KVCacheHead.append", position=3),
    Target("workload.kv_extend", W, "KVCacheHead.extend"),
    Target("workload.dense_attention", W, "dense_attention"),
    Target("calibration.calibrate", CAL, "calibrate"),
    Target("calibration.save_partitions", CAL, "save_partitions"),
    Target("calibration.load_partitions", CAL, "load_partitions"),
    Target("indexer.score", I, "ProjectedKeyCache.scores"),
    Target("indexer.build_stage1_dataset", I, "build_stage1_dataset"),
    Target("indexer.train_projector", I, "train_projector"),
    Target("indexer.projector_grad", I, "projector_grad"),
    # selection is traced where run_workload looks it up, so the mass sweep's
    # own calls stay in the reports layer
    Target("selection.top_p_exact", E, "top_p_exact", observe=_selection(1),
           everywhere=False),
    Target("selection.histogram_threshold_scores", E, "histogram_threshold_scores",
           observe=_selection(2), everywhere=False),
    Target("engine.run_workload", E, "run_workload", observe=_run_bytes),
    Target("engine.prefill", E, "prefill"),
    Target("engine.local_head_decode", E, "local_head_decode", position=1),
    Target("engine.retrieval_head_decode", E, "retrieval_head_decode", position=1),
    Target("engine.restricted_attention", E, "restricted_attention",
           observe=_attend_tokens),
    Target("engine.sparsity_report", E, "sparsity_report"),
    Target("reports.mass_budget_sweep", R, "mass_budget_sweep"),
    Target("reports.write_csv", R, "write_csv"),
    Target("reports.write_decode_trace", R, "write_decode_trace"),
    Target("reports.write_sparsity_report", R, "write_sparsity_report"),
    Target("reports.read_csv", R, "read_csv"),
    Target("reports.read_decode_trace", R, "read_decode_trace"),
    Target("reports.read_sparsity_report", R, "read_sparsity_report"),
    Target("container.save_container", C, "save_container"),
    Target("container.load_container", C, "load_container"),
    Target("distill.build_teacher_cache", D, "build_teacher_cache"),
    Target("distill.toy_self_distill", D, "toy_self_distill"),
    Target("cli.main", "headsparse.cli", "main"),
)


class Tracer:
    """Installs wrappers around `targets` and keeps the spans they record."""

    def __init__(self, targets: Sequence[Target] = TARGETS, phase: str = "setup"):
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._phase = [phase]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        self.absent = []
        # import every module first, so none binds a wrapper by name while
        # later targets are still being replaced
        modules = {}
        for name in {t.module for t in self.targets}:
            try:
                modules[name] = importlib.import_module(name)
            except ImportError:
                pass
        for target in self.targets:
            module = modules.get(target.module)
            if module is None:
                self.absent.append(target.name)
                continue
            owner, _, method = target.attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            if holder is None or method not in vars(holder):
                self.absent.append(target.name)
                continue
            original = vars(holder)[method]
            if isinstance(original, (staticmethod, classmethod)):
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            if owner or not target.everywhere:
                self._replace(holder, method, original, wrapper)
            else:
                # every module that imported the function by name
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("headsparse") \
                            and vars(mod).get(method) is original:
                        self._replace(mod, method, original, wrapper)

    def _replace(self, holder, key: str, original, wrapper) -> None:
        self._saved.append((holder, key, original))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved = []

    def _wrap(self, target: Target, fn):
        spans, stack, phase = self.spans, self._stack, self._phase
        name, pos, observe = target.name, target.position, target.observe
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            tid = None
            if pos is not None:
                try:
                    tid = f"{phase[0]}:{int(args[pos])}"
                except (IndexError, TypeError, ValueError):
                    tid = None
            if tid is None:
                tid = spans[parent][TID] if parent >= 0 else phase[0]
            rec = [name, 0.0, 0.0, parent, tid, None, phase[0]]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if observe is not None:
                try:
                    rec[INFO] = observe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    rec[INFO] = None
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- harness spans ------------------------------------------------------

    @contextlib.contextmanager
    def phase(self, label: str, kind: str):
        """Open a harness span `bench.<kind>` whose id `label` the spans
        recorded inside it inherit."""
        previous = self._phase[0]
        self._phase[0] = label
        rec = [f"{HARNESS}.{kind}", 0.0, 0.0, -1, label, None, label]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            self._phase[0] = previous

    def adopt(self, spans: Iterable[list], parent_name: str, start: float,
              end: float) -> None:
        """Attach spans recorded by a child process under one harness span
        covering that child's wall time."""
        label = self._phase[0]
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([f"{HARNESS}.{parent_name}", start, end, parent, label,
                           None, label])
        offset = base + 1
        for rec in spans:
            rec = list(rec)
            rec[PARENT] = base if rec[PARENT] < 0 else rec[PARENT] + offset
            self.spans.append(rec)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": self.absent,
                       "fields": ["name", "start", "end", "parent", "id",
                                  "info", "phase"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _pct(values: Sequence[float], q: int) -> float:
    if not values:
        return 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


class SpanIndex:
    """Lookups over one list of spans: durations, self times, nesting."""

    def __init__(self, spans: Sequence[list]):
        self.spans = spans
        self.by_name: dict[str, list[int]] = {}
        child_time = [0.0] * len(spans)
        for i, rec in enumerate(spans):
            self.by_name.setdefault(rec[NAME], []).append(i)
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        self.self_time = [rec[END] - rec[START] - child_time[i]
                          for i, rec in enumerate(spans)]

    def dur(self, i: int) -> float:
        return self.spans[i][END] - self.spans[i][START]

    def calls(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def outermost(self, names: Iterable[str]) -> list[int]:
        """Calls of `names` not nested inside another call of `names`."""
        names = set(names)
        out = []
        for name in names:
            for i in self.calls(name):
                p = self.spans[i][PARENT]
                while p >= 0 and self.spans[p][NAME] not in names:
                    p = self.spans[p][PARENT]
                if p < 0:
                    out.append(i)
        return out

    def per_phase(self, indices: Iterable[int], value=None) -> dict[str, float]:
        totals: dict[str, float] = {}
        for i in indices:
            ph = self.spans[i][PHASE]
            totals[ph] = totals.get(ph, 0.0) + (self.dur(i) if value is None
                                                else value(i))
        return totals

    def total(self, names: Iterable[str]) -> float:
        """Seconds in the outermost calls of `names`, per phase in which
        they ran, median over those phases."""
        return _median(list(self.per_phase(self.outermost(names)).values()))

    def count(self, name: str) -> float:
        """Calls of `name` per phase in which it ran, median over phases."""
        return _median(list(self.per_phase(self.calls(name), lambda i: 1.0).values()))

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        return [self.dur(i) for i in self.calls(name)
                if parent is None or self._parent_name(i) == parent]

    def infos(self, name: str, key: str, parent: str | None = None) -> list[float]:
        out = []
        for i in self.calls(name):
            info = self.spans[i][INFO]
            if info and key in info and (parent is None or self._parent_name(i) == parent):
                out.append(info[key])
        return out

    def _parent_name(self, i: int) -> str | None:
        p = self.spans[i][PARENT]
        return self.spans[p][NAME] if p >= 0 else None

    def layer_self(self, requests: Sequence[str]) -> dict[str, float]:
        """Self seconds of each layer per request, median over requests."""
        per: dict[str, dict[str, float]] = {layer: {} for layer in LAYERS}
        for i, rec in enumerate(self.spans):
            layer = rec[NAME].split(".", 1)[0]
            if layer in per and rec[PHASE] in requests:
                bucket = per[layer]
                bucket[rec[PHASE]] = bucket.get(rec[PHASE], 0.0) + self.self_time[i]
        return {layer: _median([b.get(r, 0.0) for r in requests])
                for layer, b in per.items()}

    def token_gaps(self) -> list[float]:
        """Seconds from the first KV append of one decode position to the
        first append of the next, within each request."""
        firsts: dict[str, dict[int, float]] = {}
        for i in self.calls("workload.kv_append"):
            rec = self.spans[i]
            phase, sep, pos = rec[TID].rpartition(":")
            if not sep:
                continue
            starts = firsts.setdefault(phase, {})
            pos = int(pos)
            if pos not in starts or rec[START] < starts[pos]:
                starts[pos] = rec[START]
        gaps = []
        for starts in firsts.values():
            order = sorted(starts)
            gaps.extend(starts[b] - starts[a] for a, b in zip(order, order[1:]))
        return gaps


US, MS = 1e6, 1e3


def layer_metrics(spans: Sequence[list], requests: Sequence[str]) -> dict[str, float]:
    """Per-layer metric values, keyed by name.  Percentiles pool every call
    in the traced run; `_s`, `_ms` and `_calls` totals are per phase (one
    set-up or one request, whichever made the calls), median over phases;
    `self_s` is per request."""
    ix = SpanIndex(spans)
    loc, ret = "engine.local_head_decode", "engine.retrieval_head_decode"
    attend = "engine.restricted_attention"
    exact, hist = "selection.top_p_exact", "selection.histogram_threshold_scores"
    selections = (exact, hist)
    grad = ix.durations("indexer.projector_grad")
    gaps = ix.token_gaps()
    m = {
        "engine.local_step_us_p50": _pct(ix.durations(loc), 50) * US,
        "engine.local_step_us_p99": _pct(ix.durations(loc), 99) * US,
        "engine.attend_local_us_p50": _pct(ix.durations(attend, loc), 50) * US,
        "engine.attend_local_tokens_mean": _mean(ix.infos(attend, "tokens", loc)),
        "engine.retrieval_step_us_p50": _pct(ix.durations(ret), 50) * US,
        "engine.retrieval_step_us_p99": _pct(ix.durations(ret), 99) * US,
        "engine.attend_retrieval_us_p50": _pct(ix.durations(attend, ret), 50) * US,
        "engine.attend_retrieval_tokens_mean": _mean(ix.infos(attend, "tokens", ret)),
        "engine.prefill_s": ix.total(["engine.prefill"]),
        "engine.sparsity_report_s": ix.total(["engine.sparsity_report"]),
        "engine.loop_self_s": _median([
            sum(ix.self_time[i] for i in ix.calls("engine.run_workload")
                if spans[i][PHASE] == r) for r in requests]),
        "engine.token_ms_p50": _pct(gaps, 50) * MS,
        "engine.token_ms_p99": _pct(gaps, 99) * MS,
        "selection.exact_calls": ix.count(exact),
        "selection.exact_us_p50": _pct(ix.durations(exact), 50) * US,
        "selection.exact_us_p99": _pct(ix.durations(exact), 99) * US,
        "selection.histogram_calls": ix.count(hist),
        "selection.histogram_us_p50": _pct(ix.durations(hist), 50) * US,
        "selection.histogram_us_p99": _pct(ix.durations(hist), 99) * US,
        "selection.blocks_kept_ratio": _mean(ix.infos(hist, "kept")),
        "selection.overshoot_mean": _mean(
            [v for name in selections for v in ix.infos(name, "overshoot")]),
        "selection.tokens_selected_mean": _mean(
            [v for name in selections for v in ix.infos(name, "tokens")]),
        "indexer.score_calls": ix.count("indexer.score"),
        "indexer.score_us_p50": _pct(ix.durations("indexer.score"), 50) * US,
        "indexer.score_us_p99": _pct(ix.durations("indexer.score"), 99) * US,
        "indexer.dataset_s": ix.total(["indexer.build_stage1_dataset"]),
        "indexer.train_s": ix.total(["indexer.train_projector"]),
        "indexer.grad_calls": ix.count("indexer.projector_grad"),
        "indexer.grad_ms_p50": _pct(grad, 50) * MS,
        "workload.kv_extend_calls": ix.count("workload.kv_extend"),
        "workload.kv_extend_ms": ix.total(["workload.kv_extend"]) * MS,
        "workload.kv_cache_bytes": _median(ix.infos("engine.run_workload",
                                                    "kv_cache_bytes")),
        "engine.trace_bytes": _median(ix.infos("engine.run_workload", "trace_bytes")),
        "workload.gen_s": ix.total(["workload.gen_synthetic_workload"]),
        "workload.dense_rows": ix.count("workload.dense_attention"),
        "workload.dense_ms": ix.total(["workload.dense_attention"]) * MS,
        "calibration.calibrate_s": ix.total(["calibration.calibrate"]),
        "reports.mass_sweep_s": ix.total(["reports.mass_budget_sweep"]),
        "reports.write_s": ix.total([
            "reports.write_csv", "reports.write_decode_trace",
            "reports.write_sparsity_report"]),
        "container.save_s": ix.total(["container.save_container"]),
        "container.load_s": ix.total(["container.load_container"]),
        "distill.teacher_cache_s": ix.total(["distill.build_teacher_cache"]),
        "distill.train_s": ix.total(["distill.toy_self_distill"]),
    }
    for layer, seconds in ix.layer_self(requests).items():
        m[f"{layer}.self_s"] = seconds
    return m

