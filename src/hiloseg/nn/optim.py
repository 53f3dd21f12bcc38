"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, memory_meter

# Global gradient L2 norm above which a step scales every gradient down to
# it (Pascanu et al. 2013). Normal steps of the default models run at norms
# near 0.2, far below it; an all-air window can spike one step to 1e35.
CLIP_NORM = 10.0


def global_norm(grads: list[np.ndarray]) -> float:
    """The L2 norm over all entries of ``grads``, as a Python float, with no
    float32 overflow: each array's sum of squares is taken over the array
    divided by its largest magnitude s, entries at most 1, and weighted by
    s² in float64. The quotient is metered. Non-finite if an entry is."""
    total = 0.0
    for g in grads:
        s = float(max(g.max(), -g.min()))
        if not math.isfinite(s):
            return s
        if s > 0.0:
            u = memory_meter.track(np.divide(g, s))
            total += s * s * float(np.vdot(u, u))
    return math.sqrt(total)


class Adam:
    """Adam over a fixed parameter list, updating each parameter in place.

    The moment accumulators ``m`` and ``v`` are created on the first step,
    one per parameter; a parameter without a gradient is skipped. A step
    whose global gradient norm exceeds ``CLIP_NORM`` first scales every
    gradient by ``CLIP_NORM / norm`` in place, so no moment overflows.
    """

    def __init__(self, params: list[Tensor], lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.steps = 0
        self.m: list[np.ndarray] = []
        self.v: list[np.ndarray] = []

    def step(self) -> None:
        if not self.m:
            self.m = [memory_meter.track(np.zeros_like(p.data)) for p in self.params]
            self.v = [memory_meter.track(np.zeros_like(p.data)) for p in self.params]
        self.steps += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.steps
        bc2 = 1.0 - b2**self.steps
        grads = [p.grad for p in self.params if p.grad is not None]
        norm = global_norm(grads)
        if math.isfinite(norm) and norm > CLIP_NORM:
            for g in grads:
                g *= CLIP_NORM / norm
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
