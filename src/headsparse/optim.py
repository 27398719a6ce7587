"""Small optimizer toolkit shared by the two training stages.

Adaptive-moment update with decoupled weight decay, linear warmup into
either a cosine decay or a constant plateau, and global-norm gradient
clipping.  Everything operates on plain dicts of named float64 arrays.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .errors import ArgumentError

LrSchedule = Callable[[int], float]
SCHEDULES = ("cosine", "constant")  # the names make_schedule takes


def warmup_cosine(max_lr: float, warmup_steps: int, total_steps: int) -> LrSchedule:
    """Linear warmup over warmup_steps, then cosine decay to zero."""
    if max_lr < 0 or warmup_steps < 0 or total_steps <= 0:
        raise ArgumentError("bad schedule parameters")

    def lr(step: int) -> float:
        if step < warmup_steps:
            return max_lr * (step + 1) / max(warmup_steps, 1)
        span = max(total_steps - warmup_steps, 1)
        frac = min(step - warmup_steps, span) / span
        return max_lr * 0.5 * (1.0 + np.cos(np.pi * frac))

    return lr


def warmup_constant(max_lr: float, warmup_steps: int) -> LrSchedule:
    """Linear warmup over warmup_steps, then flat."""
    if max_lr < 0 or warmup_steps < 0:
        raise ArgumentError("bad schedule parameters")

    def lr(step: int) -> float:
        if step < warmup_steps:
            return max_lr * (step + 1) / max(warmup_steps, 1)
        return max_lr

    return lr


def make_schedule(name: str, max_lr: float, warmup_steps: int, total_steps: int) -> LrSchedule:
    """A run's schedule; a warmup longer than the run ends at its last step,
    so every run reaches max_lr."""
    if name not in SCHEDULES:
        raise ArgumentError(f"unknown schedule {name!r}")
    warmup_steps = min(warmup_steps, total_steps)
    if name == "cosine":
        return warmup_cosine(max_lr, warmup_steps, total_steps)
    return warmup_constant(max_lr, warmup_steps)


def clip_global_norm(grads: Mapping[str, np.ndarray], max_norm: float
                     ) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients together so their joint norm is <= max_norm."""
    if max_norm <= 0:
        raise ArgumentError("max_norm must be positive")
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if total <= max_norm or total == 0.0:
        return {k: np.asarray(v, np.float64) for k, v in grads.items()}, total
    scale = max_norm / total
    return {k: np.asarray(v, np.float64) * scale for k, v in grads.items()}, total


class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer over a parameter
    dict.  Updates happen in place so callers keep their references."""

    def __init__(self, params: dict[str, np.ndarray], schedule: LrSchedule,
                 weight_decay: float = 0.0, max_grad_norm: float | None = None,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not params:
            raise ArgumentError("no parameters to optimize")
        self.params = params
        self.schedule = schedule
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self._m = {k: np.zeros_like(v, np.float64) for k, v in params.items()}
        self._v = {k: np.zeros_like(v, np.float64) for k, v in params.items()}

    def step(self, grads: Mapping[str, np.ndarray]) -> float:
        """Apply one update; returns the learning rate used."""
        if set(grads) != set(self.params):
            raise ArgumentError("gradient keys do not match parameter keys")
        if self.max_grad_norm is not None:
            grads, _ = clip_global_norm(grads, self.max_grad_norm)
        lr = float(self.schedule(self.step_count))
        self.step_count += 1
        t = self.step_count
        for k, p in self.params.items():
            g = np.asarray(grads[k], np.float64)
            self._m[k] = self.beta1 * self._m[k] + (1 - self.beta1) * g
            self._v[k] = self.beta2 * self._v[k] + (1 - self.beta2) * g * g
            m_hat = self._m[k] / (1 - self.beta1**t)
            v_hat = self._v[k] / (1 - self.beta2**t)
            p -= lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p)
        return lr


def smooth_trace(trace: np.ndarray, window: int = 20) -> np.ndarray:
    """Trailing moving average used when judging loss convergence."""
    t = np.asarray(trace, np.float64)
    if t.size == 0:
        raise ArgumentError("empty trace")
    csum = np.cumsum(np.concatenate([[0.0], t]))
    end = np.arange(1, t.size + 1)
    start = np.maximum(end - window, 0)
    return (csum[end] - csum[start]) / (end - start)
