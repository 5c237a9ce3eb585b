"""Adam update rule against a hand-rolled reference trace."""

import numpy as np
import pytest

from tamseg import tensor as T
from tamseg.attention import ParameterSet
from tamseg.errors import ShapeError
from tamseg.optim import BETAS, EPS, STEP_BLOCK_ELEMS, Adam
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
        # every grad becomes an all-zero view into one optimizer buffer, and
        # the next backward accumulates from zero
        p = Tensor(np.array([1.0]), requires_grad=True)
        q = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        opt = Adam([p, q], lr=0.1)
        backward(T.tsum(p * p) + T.tsum(q * q))
        opt.zero_grad()
        for t in (p, q):
            assert t.grad.shape == t.shape and not t.grad.data.any()
        assert p.grad.data.base is q.grad.data.base is not None
        backward(T.tsum(p * p))
        np.testing.assert_array_equal(p.grad.data, [2.0])
        np.testing.assert_array_equal(q.grad.data, [0.0, 0.0])


class AdamPerTensor:
    """The former Adam: a loop over the parameters, temporaries per tensor.

    Kept as the oracle of the flat buffers, which must match it byte for byte.
    """

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2 = BETAS
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad.data if p.grad is not None else np.zeros_like(p.data)
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + EPS)).astype(p.dtype, copy=False)


# tensors smaller and larger than one step block, in both dtypes, so one
# optimizer holds two flat buffers with ragged last blocks
ORACLE_SHAPES = [((3, 4), np.float32), ((STEP_BLOCK_ELEMS + 37,), np.float32),
                 ((5,), np.float64), ((300, 250), np.float64), ((7, 2), np.float32),
                 ((2, 3), np.float64), ((4,), np.float32)]


class TestFlatBuffersMatchPerTensorAdam:
    def test_params_and_moments_byte_equal(self):
        rng = np.random.default_rng(81)
        start = [rng.normal(size=s).astype(dt) for s, dt in ORACLE_SHAPES]
        flat = [Tensor(a.copy(), requires_grad=True) for a in start]
        loop = [Tensor(a.copy(), requires_grad=True) for a in start]
        opt, ref = Adam(flat, lr=0.01), AdamPerTensor(loop, lr=0.01)
        for _ in range(4):
            grads = [rng.normal(size=s).astype(dt) for s, dt in ORACLE_SHAPES]
            opt.zero_grad()
            # the first four through the backward into the views, the fifth
            # never used, the sixth set directly and the last one used by the
            # backward and then cleared, so its view holds a stale gradient
            for i in (0, 1, 2, 3, 6):
                backward(T.tsum(T.mul(flat[i], Tensor(grads[i]))))
            flat[5].grad = Tensor(grads[5])
            flat[6].grad = None
            for i, p in enumerate(loop):
                p.grad = None if i in (4, 6) else Tensor(grads[i])
            opt.step()
            ref.step()
            for got, want in zip(flat, loop):
                assert got.data.dtype == want.data.dtype
                assert got.data.tobytes() == want.data.tobytes()
            for got, want in zip(opt.m + opt.v, ref.m + ref.v):
                assert got.tobytes() == want.tobytes()

    def test_backward_before_the_first_zero_grad(self):
        p, q = (Tensor(np.array([0.5, -1.5], dtype=np.float32), requires_grad=True)
                for _ in range(2))
        opt, ref = Adam([p], lr=0.1), AdamPerTensor([q], lr=0.1)
        for t in (p, q):
            backward(T.tsum(T.mul(t, t)))
        opt.step()
        ref.step()
        assert p.data.tobytes() == q.data.tobytes()

    def test_wrong_dtype_raises(self):
        p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = Tensor(np.zeros(3))
        with pytest.raises(ShapeError):
            opt.step()

    def test_parameter_listed_twice_refused(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError, match="more than once"):
            Adam([p, Tensor(np.zeros(2), requires_grad=True), p], lr=0.1)

    def test_load_arrays_after_adam_trains_the_loaded_values(self):
        rng = np.random.default_rng(82)
        params = ParameterSet()
        for name, shape in (("w", (4, 3)), ("b", (4,))):
            params.param(name, Tensor(rng.normal(size=shape), requires_grad=True))
        opt = Adam(params.named_parameters().values(), lr=0.05)
        loaded = {name: rng.normal(size=t.shape) for name, t in params.params.items()}
        params.load_arrays(loaded)
        ref_params = [Tensor(a.copy(), requires_grad=True) for a in loaded.values()]
        ref = AdamPerTensor(ref_params, lr=0.05)
        grads = [rng.normal(size=t.shape) for t in ref_params]
        for p, q, g in zip(params.params.values(), ref_params, grads):
            p.grad, q.grad = Tensor(g), Tensor(g)
        opt.step()
        ref.step()
        for p, q in zip(params.params.values(), ref_params):
            assert p.data.tobytes() == q.data.tobytes()
