"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, memory_meter


class Adam:
    """Adam over a fixed parameter list, updating each parameter in place.

    The moment accumulators ``m`` and ``v`` are created on the first step,
    one per parameter; a parameter without a gradient is skipped.
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
