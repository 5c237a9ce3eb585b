"""Adam update rule against a hand-rolled reference trace."""

import numpy as np
import pytest

from tamseg import tensor as T
from tamseg.errors import ShapeError
from tamseg.optim import Adam
from tamseg.tensor import Tensor, backward


def reference_adam(x0, grads, lr, betas=(0.9, 0.999), eps=1e-8):
    """Textbook Adam on one scalar parameter, written independently."""
    b1, b2 = betas
    x, m, v = float(x0), 0.0, 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        x -= lr * m_hat / (np.sqrt(v_hat) + eps)
        trace.append(x)
    return trace


def step_with(opt, *grads):
    """One ``opt.step()`` with ``grads`` as the parameters' gradients."""
    for p, g in zip(opt.params, grads):
        p.grad = Tensor(np.asarray(g, dtype=np.float64))
    opt.step()


class TestAdamStep:
    def test_first_step_is_bias_corrected(self):
        # with bias correction the first update is ~lr regardless of |g|
        for g in (0.001, 1.0, 250.0):
            p = Tensor(np.array([0.0]), requires_grad=True)
            step_with(Adam([p], lr=0.01), [g])
            np.testing.assert_allclose(p.data, [-0.01], rtol=1e-5)

    def test_matches_reference_trace(self):
        rng = np.random.default_rng(42)
        grads = rng.normal(size=10)
        expected = reference_adam(1.5, grads, lr=0.05)

        p = Tensor(np.array([1.5]), requires_grad=True)
        opt = Adam([p], lr=0.05)
        got = []
        for g in grads:
            step_with(opt, [g])
            got.append(float(p.data[0]))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_elementwise_independence(self):
        # two coordinates with independent gradient histories must evolve
        # exactly like two separate scalar runs
        rng = np.random.default_rng(3)
        g0, g1 = rng.normal(size=5), rng.normal(size=5)
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for a, b in zip(g0, g1):
            step_with(opt, [a, b])
        ref0 = reference_adam(0.0, g0, lr=0.1)[-1]
        ref1 = reference_adam(0.0, g1, lr=0.1)[-1]
        np.testing.assert_allclose(p.data, [ref0, ref1], rtol=1e-12)

    def test_zero_lr_freezes_params(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = p.data.copy()
        opt = Adam([p], lr=0.0)
        for _ in range(3):
            step_with(opt, np.ones(2))
        np.testing.assert_allclose(p.data, before)
        assert opt.step_count == 3  # moments still advance
        assert opt.m[0].any() and opt.v[0].any()

    def test_shape_mismatch_raises(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            step_with(Adam([p], lr=0.1), np.zeros(2))

    def test_state_persists_across_calls(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], lr=0.01)
        step_with(opt, [1.0])
        step_with(opt, [1.0])
        assert opt.step_count == 2
        # same constant gradient: second step roughly doubles the travel
        np.testing.assert_allclose(p.data, [-0.02], rtol=1e-3)


class TestAdamWrapper:
    def test_descends_a_quadratic(self):
        p = Tensor(np.array([4.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            backward(T.tsum(p * p))
            opt.step()
        assert abs(float(p.data[0])) < 1e-2

    def test_missing_grad_is_zero(self):
        # a parameter that never saw backward stays put on the first step
        used = Tensor(np.array([1.0]), requires_grad=True)
        unused = Tensor(np.array([5.0]), requires_grad=True)
        opt = Adam([used, unused], lr=0.1)
        backward(T.tsum(used * used))
        opt.step()
        assert float(unused.data[0]) == 5.0
        assert float(used.data[0]) != 1.0

    def test_zero_grad_resets(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        backward(T.tsum(p * p))
        opt.zero_grad()
        assert p.grad is None
