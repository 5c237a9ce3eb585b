"""First-order optimization: Adam with bias correction."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import ShapeError
from .tensor import Tensor

BETAS = (0.9, 0.999)
EPS = 1e-8
# Elements per in-place pass of a step. 2**16 elements are 256 KiB of float32,
# about one core's L2 cache (like tensor.CONV_TILE_ELEMS), so a block's
# parameters, gradient, moments and two scratch rows stay cached across the
# step's dozen ufuncs.
STEP_BLOCK_ELEMS = 2 ** 16


class _Flat(NamedTuple):
    """One dtype's parameters, gradients and moment estimates, each one array."""

    data: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray


class Adam:
    """In-place Adam over a fixed parameter list, held in flat buffers.

    The optimizer owns the training state: per dtype, one flat array each for
    the parameters, their gradients and the first and second moment
    estimates. At construction each parameter's values are copied into its
    slice and ``p.data`` is rebound to that view, so whoever replaces a
    parameter's values afterwards must copy into ``p.data``, not rebind it.
    ``m`` and ``v`` list each parameter's moment views, in parameter order.
    A parameter listed twice is refused.

    :meth:`zero_grad` zero-fills the gradient buffer and points each
    ``p.grad`` at its view, so the backward accumulates straight into it.
    :meth:`step` runs Adam's arithmetic one in-place ufunc at a time over
    blocks of ``STEP_BLOCK_ELEMS`` elements, with the same operations, in the
    same order and dtype, as the update written per tensor, so the bytes
    match it. A ``p.grad`` that is not its view (set directly, or written by
    a backward before the first ``zero_grad``) is copied in first, and one of
    another shape or dtype raises :class:`ShapeError`; a parameter without a
    gradient steps with zeros. Moment estimates are bias-corrected, so the
    very first step has magnitude close to ``lr`` elementwise.
    """

    def __init__(self, params: Sequence[Tensor], lr: float):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("Adam: a parameter is listed more than once")
        self.lr = lr
        self.step_count = 0
        sizes: dict[np.dtype, int] = {}
        for p in self.params:
            sizes[p.dtype] = sizes.get(p.dtype, 0) + p.size
        self._flats = {dt: _Flat(np.empty(n, dt), np.zeros(n, dt), np.zeros(n, dt),
                                 np.zeros(n, dt))
                       for dt, n in sizes.items()}
        self._grads: list[Tensor] = []  # each parameter's view of the gradient buffer
        self.m: list[np.ndarray] = []
        self.v: list[np.ndarray] = []
        used = dict.fromkeys(sizes, 0)
        for p in self.params:
            flat, lo = self._flats[p.dtype], used[p.dtype]
            used[p.dtype] = hi = lo + p.size
            data, grad, m, v = (buf[lo:hi].reshape(p.shape) for buf in flat)
            data[...] = p.data
            p.data = data
            self._grads.append(Tensor(grad))
            self.m.append(m)
            self.v.append(v)

    def step(self) -> None:
        for p, own in zip(self.params, self._grads):
            g = p.grad
            if g is None:
                own.data.fill(0)
            elif g.data is not own.data:
                if g.shape != p.shape or g.dtype != p.dtype:
                    raise ShapeError(f"Adam: grad {g.shape} {g.dtype.name} does not match "
                                     f"param {p.shape} {p.dtype.name}")
                np.copyto(own.data, g.data)
        self.step_count += 1
        t = self.step_count
        b1, b2 = BETAS
        m_scale, v_scale = 1 - b1 ** t, 1 - b2 ** t
        for flat in self._flats.values():
            scratch = np.empty((2, min(flat.data.size, STEP_BLOCK_ELEMS)), flat.data.dtype)
            for lo in range(0, flat.data.size, STEP_BLOCK_ELEMS):
                p, g, m, v = (buf[lo:lo + STEP_BLOCK_ELEMS] for buf in flat)
                a, b = scratch[0, :p.size], scratch[1, :p.size]
                # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g
                m *= b1
                np.multiply(g, 1 - b1, out=a)
                m += a
                v *= b2
                np.multiply(g, 1 - b2, out=a)
                a *= g
                v += a
                # p -= lr m_hat / (sqrt(v_hat) + EPS)
                np.divide(m, m_scale, out=a)
                np.divide(v, v_scale, out=b)
                a *= self.lr
                np.sqrt(b, out=b)
                b += EPS
                a /= b
                p -= a

    def zero_grad(self) -> None:
        for flat in self._flats.values():
            flat.grad.fill(0)
        for p, own in zip(self.params, self._grads):
            p.grad = own
