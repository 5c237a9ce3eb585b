"""First-order optimization: Adam with bias correction."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ShapeError
from .tensor import Tensor

BETAS = (0.9, 0.999)
EPS = 1e-8


class Adam:
    """In-place Adam over a fixed parameter list.

    The step count and the first and second moment estimates (one zero array
    per parameter to start) are attributes, so they persist across steps.
    Moment estimates are bias-corrected, so the very first step has magnitude
    close to ``lr`` elementwise. A parameter without a gradient steps with a
    zero gradient.
    """

    def __init__(self, params: Sequence[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        b1, b2 = BETAS
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad.data if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.shape:
                raise ShapeError(f"Adam: grad shape {g.shape} != param shape {p.shape}")
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + EPS)).astype(p.dtype, copy=False)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
