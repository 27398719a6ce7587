"""Top-10-logit distillation: the restricted KL objective, teacher logit
caching, and a toy self-distillation loop.

The student is the same model run with sparse attention; the teacher is its
dense self. Only the teacher's ten largest logits per position matter: both
sides are renormalized over that index set and compared with KL. The toy
model (token embedding, one rotary attention head, linear readout) exists to
show the loop closing the sparse/dense gap, not to model language.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import load_container, save_container
from .errors import ArgumentError
from .indexer import Projector
from .numerics import descending_order, softmax, softmax_kl
from .optim import SCHEDULES, AdamW, make_schedule
from .record import Record
from .rope import RopeParams, rope_rotate_many, rope_unrotate_many
from .seeding import derive_rng
from .selection import top_p_exact

TOP_K = 10


@dataclass(frozen=True)
class TopKLogits:
    """A teacher position's ten largest logits, descending, with indices."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices)
        val = np.asarray(self.values, np.float64)
        if idx.shape != (TOP_K,) or val.shape != (TOP_K,):
            raise ArgumentError(f"need exactly {TOP_K} indices and values")
        if np.unique(idx).size != TOP_K:
            raise ArgumentError("indices must be distinct")
        if np.any(np.diff(val) > 0):
            raise ArgumentError("values must be non-increasing")
        object.__setattr__(self, "indices", idx.astype(np.int64))
        object.__setattr__(self, "values", val)


def extract_top10(logits: np.ndarray) -> TopKLogits:
    """Ten largest logits; ties resolve toward the lower vocabulary index."""
    z = np.asarray(logits, np.float64)
    if z.ndim != 1 or z.size < TOP_K:
        raise ArgumentError(f"vocabulary must be a vector of size >= {TOP_K}")
    order = descending_order(z)[:TOP_K]
    return TopKLogits(order, z[order])


def distill_loss(teacher: TopKLogits, student_logits: np.ndarray) -> float:
    """KL between restricted softmaxes on the teacher's index set."""
    z = np.asarray(student_logits, np.float64)
    if z.ndim != 1:
        raise ArgumentError("student logits must be a vector")
    if teacher.indices.max() >= z.size:
        raise ArgumentError("student vocabulary smaller than a teacher index")
    return float(softmax_kl(softmax(teacher.values), z[teacher.indices])[0])


def distill_grad(teacher: TopKLogits, student_logits: np.ndarray) -> np.ndarray:
    """Gradient of distill_loss in the full student vocabulary: the usual
    softmax-KL residual on the ten active indices, exactly zero elsewhere."""
    z = np.asarray(student_logits, np.float64)
    if z.ndim != 1:
        raise ArgumentError("student logits must be a vector")
    if teacher.indices.max() >= z.size:
        raise ArgumentError("student vocabulary smaller than a teacher index")
    g = np.zeros(z.size)
    g[teacher.indices] = softmax(z[teacher.indices]) - softmax(teacher.values)
    return g


# ---------------------------------------------------------------------------
# Teacher cache
# ---------------------------------------------------------------------------


@dataclass
class TeacherCache:
    """Top-10 logits for every (sequence, position) of a corpus."""

    indices: np.ndarray  # (n_seq, seq_len, TOP_K) int32
    values: np.ndarray   # (n_seq, seq_len, TOP_K) float32

    def __post_init__(self):
        if self.indices.shape != self.values.shape or self.indices.shape[-1] != TOP_K:
            raise ArgumentError("indices/values must be (n_seq, seq_len, 10) alike")

    @property
    def n_seq(self) -> int:
        return self.indices.shape[0]

    @property
    def seq_len(self) -> int:
        return self.indices.shape[1]

    def entry(self, seq: int, position: int) -> TopKLogits:
        return TopKLogits(self.indices[seq, position], self.values[seq, position])

    def save(self, stem: str | Path) -> None:
        save_container(
            stem,
            {"indices": self.indices.astype(np.int32), "values": self.values},
            {"kind": "teacher-cache", "n_seq": self.n_seq, "seq_len": self.seq_len},
        )

    @staticmethod
    def load(stem: str | Path) -> "TeacherCache":
        tensors, _ = load_container(stem, "teacher-cache", ("indices", "values"))
        return TeacherCache(tensors["indices"], tensors["values"])


# ---------------------------------------------------------------------------
# Toy model
# ---------------------------------------------------------------------------


@dataclass
class ToyModel:
    """Embedding, one rotary attention head, output projection, linear head."""

    params: dict[str, np.ndarray]
    rope: RopeParams = field(repr=False, default=None)

    def __post_init__(self):
        need = {"emb", "w_q", "w_k", "w_v", "w_o", "w_head"}
        if set(self.params) != need:
            raise ArgumentError(f"params must have exactly {sorted(need)}")
        if self.rope is None:
            self.rope = RopeParams(self.d)

    @property
    def vocab(self) -> int:
        return self.params["emb"].shape[0]

    @property
    def d(self) -> int:
        return self.params["emb"].shape[1]

    @property
    def scale(self) -> float:
        return self.rope.scale

    def copy(self) -> "ToyModel":
        return ToyModel({k: v.copy() for k, v in self.params.items()}, self.rope)

    def frozen_projector(self) -> Projector:
        """Snapshot of the current attention maps as the selection projector.

        This is the r = d stationary point of the stage-1 objective for the
        current weights; it does not track later training steps.
        """
        return Projector(self.params["w_q"].copy(), self.params["w_k"].copy())


def make_toy_model(seed: int, vocab: int = 256, d: int = 32) -> ToyModel:
    # sharp attention maps and an amplified readout keep the sparse/dense
    # logit gap at p < 1 macroscopic instead of rounding-level
    if vocab < TOP_K or d < 2 or d % 2:
        raise ArgumentError("vocab must cover the top-10 and d must be even")
    rng = derive_rng(seed, "toy-model")
    sd = 1.0 / np.sqrt(d)
    params = {
        "emb": rng.normal(scale=sd, size=(vocab, d)),
        "w_q": rng.normal(scale=2 * sd, size=(d, d)),
        "w_k": rng.normal(scale=2 * sd, size=(d, d)),
        "w_v": rng.normal(scale=sd, size=(d, d)),
        "w_o": rng.normal(scale=sd, size=(d, d)),
        "w_head": rng.normal(scale=8 * sd, size=(vocab, d)),
    }
    return ToyModel(params, RopeParams(d))


def gen_toy_corpus(seed: int, n_seq: int = 6, seq_len: int = 128,
                   vocab: int = 256, motif_len: int = 16) -> np.ndarray:
    """Random token sequences, each with an early span replayed near the end
    so long-range rows have something real to retrieve."""
    if seq_len < 2 * motif_len + 12:
        raise ArgumentError("sequence too short for the planted replay")
    rng = derive_rng(seed, "toy-corpus")
    tokens = rng.integers(0, vocab, size=(n_seq, seq_len))
    tokens[:, seq_len - motif_len - 8 : seq_len - 8] = tokens[:, 4 : 4 + motif_len]
    return tokens


def _embed_project(params: dict, tokens: np.ndarray, rope: RopeParams):
    x = params["emb"][tokens]
    pos = np.arange(tokens.size)
    q = x @ params["w_q"].T
    k = x @ params["w_k"].T
    v = x @ params["w_v"].T
    return x, pos, rope_rotate_many(q, pos, rope), rope_rotate_many(k, pos, rope), v


def _attention_forward(params: dict, tokens: np.ndarray, rope: RopeParams,
                       scale: float, mask: np.ndarray):
    """Each position attends over the tokens its row of the (L, L) boolean
    `mask` admits, then the readout; returns the intermediates the backward
    pass reuses, `weights` being the (L, L) attention matrix."""
    x, pos, qh, kh, v = _embed_project(params, tokens, rope)
    weights = softmax(np.where(mask, (qh @ kh.T) * scale, -np.inf))
    attn = weights @ v
    y = attn @ params["w_o"].T
    logits = y @ params["w_head"].T
    return {"x": x, "pos": pos, "qh": qh, "kh": kh, "v": v, "weights": weights,
            "attn": attn, "y": y, "logits": logits}


def toy_logits_dense(model: ToyModel, tokens: np.ndarray) -> np.ndarray:
    """Full causal attention; the teacher-side forward pass."""
    causal = np.tri(tokens.size, dtype=bool)
    return _attention_forward(model.params, tokens, model.rope, model.scale,
                              causal)["logits"]


def _sparse_forward(params: dict, tokens: np.ndarray, rope: RopeParams,
                    scale: float, p: float, projector: Projector):
    """Student forward pass: row i attends over the top-p set of the
    projector's scores over positions 0..i."""
    x = params["emb"][tokens]
    sel = (x @ projector.w_q.T) @ (projector.w_k @ x.T)
    mask = np.zeros(sel.shape, bool)
    for i, row in enumerate(mask):
        row[top_p_exact(sel[i, : i + 1], p).active_set] = True
    return _attention_forward(params, tokens, rope, scale, mask)


def _restricted_kl_batch(t_idx: np.ndarray, t_val: np.ndarray,
                         logits: np.ndarray) -> tuple[float, np.ndarray]:
    """distill_loss and distill_grad for all positions at once, averaged;
    same arithmetic as the scalar ops, gathered instead of looped."""
    L = logits.shape[0]
    rows = np.arange(L)[:, None]
    p = softmax(t_val)
    per_row, q = softmax_kl(p, logits[rows, t_idx])
    g_logits = np.zeros_like(logits)
    g_logits[rows, t_idx] = (q - p) / L
    return float(per_row.mean()), g_logits


def _toy_backward(params: dict, tokens: np.ndarray, fwd: dict,
                  t_idx: np.ndarray, t_val: np.ndarray, rope: RopeParams,
                  scale: float) -> tuple[dict, float]:
    """Loss and gradients for one sequence, mean over positions. The active
    sets are held fixed (selection is a non-differentiable routing choice)."""
    loss, g_logits = _restricted_kl_batch(t_idx, t_val, fwd["logits"])

    x, qh, kh, v = fwd["x"], fwd["qh"], fwd["kh"], fwd["v"]
    g_head = g_logits.T @ fwd["y"]
    g_y = g_logits @ params["w_head"]
    g_o = g_y.T @ fwd["attn"]
    g_attn = g_y @ params["w_o"]
    w = fwd["weights"]
    g_w = g_attn @ v.T
    g_u = w * (g_w - (w * g_w).sum(axis=1, keepdims=True))
    g_qh = scale * (g_u @ kh)
    g_kh = scale * (g_u.T @ qh)
    g_v = w.T @ g_attn
    g_q = rope_unrotate_many(g_qh, fwd["pos"], rope)
    g_k = rope_unrotate_many(g_kh, fwd["pos"], rope)
    g_x = g_q @ params["w_q"] + g_k @ params["w_k"] + g_v @ params["w_v"]
    g_emb = np.zeros_like(params["emb"])
    np.add.at(g_emb, tokens, g_x)
    grads = {
        "emb": g_emb,
        "w_q": g_q.T @ x,
        "w_k": g_k.T @ x,
        "w_v": g_v.T @ x,
        "w_o": g_o,
        "w_head": g_head,
    }
    return grads, loss


@dataclass(frozen=True)
class Stage2Config(Record):
    """Self-distillation settings; the shape of the full-scale recipe with
    the learning rate scaled up three orders for the toy problem."""

    steps: int = 600
    max_lr: float = 3e-3
    warmup_steps: int = 200
    schedule: str = "constant"
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    top_p: float = 0.9

    def __post_init__(self):
        if self.steps < 1 or self.warmup_steps < 1:
            raise ArgumentError("steps and warmup_steps must be positive")
        if self.max_lr < 0 or self.weight_decay < 0 or self.clip_norm <= 0:
            raise ArgumentError("max_lr/weight_decay/clip_norm out of range")
        if self.schedule not in SCHEDULES:
            raise ArgumentError(f"unknown schedule {self.schedule!r}")
        if not (0 < self.top_p <= 1):
            raise ArgumentError("top_p must lie in (0, 1]")


def build_teacher_cache(model: ToyModel, corpus: np.ndarray) -> TeacherCache:
    """Run the dense model over the corpus and keep each position's top-10."""
    if corpus.ndim != 2:
        raise ArgumentError("corpus must be (n_seq, seq_len)")
    n_seq, L = corpus.shape
    indices = np.empty((n_seq, L, TOP_K), np.int32)
    values = np.empty((n_seq, L, TOP_K), np.float32)
    for s in range(n_seq):
        logits = toy_logits_dense(model, corpus[s])
        for i in range(L):
            top = extract_top10(logits[i])
            indices[s, i] = top.indices
            values[s, i] = top.values
    return TeacherCache(indices, values)


def toy_self_distill(model: ToyModel, corpus: np.ndarray,
                     teacher: TeacherCache | None, config: Stage2Config,
                     seed: int) -> tuple[ToyModel, list[float]]:
    """Train all model weights (the selection projector stays a frozen
    snapshot of the starting attention maps) so the sparse forward matches
    the cached dense top-10 logits. Every step consumes the whole corpus;
    the returned trace is the per-step mean loss."""
    if teacher is None:
        raise ArgumentError("teacher cache is required")
    if corpus.ndim != 2 or corpus.shape != (teacher.n_seq, teacher.seq_len):
        raise ArgumentError("corpus shape disagrees with the teacher cache")
    student = model.copy()
    projector = student.frozen_projector()
    opt = AdamW(
        student.params,
        make_schedule(config.schedule, config.max_lr, config.warmup_steps,
                      config.steps),
        weight_decay=config.weight_decay,
        max_grad_norm=config.clip_norm,
    )
    trace: list[float] = []
    for _ in range(config.steps):
        total = {k: np.zeros_like(v) for k, v in student.params.items()}
        step_loss = 0.0
        for s in range(teacher.n_seq):
            fwd = _sparse_forward(student.params, corpus[s], student.rope,
                                  student.scale, config.top_p, projector)
            grads, loss = _toy_backward(student.params, corpus[s], fwd,
                                        teacher.indices[s], teacher.values[s],
                                        student.rope, student.scale)
            step_loss += loss
            for k in total:
                total[k] += grads[k]
        for k in total:
            total[k] /= teacher.n_seq
        trace.append(step_loss / teacher.n_seq)
        opt.step(total)
    return student, trace
