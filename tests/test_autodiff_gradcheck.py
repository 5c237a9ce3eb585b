"""Reverse-mode gradients against central finite differences."""

import numpy as np
import pytest

from tamseg import tensor as T
from tamseg.errors import ShapeError
from tamseg.gradcheck import (check_gradients, relative_error, run_op_suite,
                              run_tam_suite)
from tamseg.tensor import Tensor, backward


class TestBackwardBasics:
    def test_product_rule_by_hand(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([5.0, -1.0]), requires_grad=True)
        loss = T.tsum(a * b)
        backward(loss)
        np.testing.assert_allclose(a.grad.data, b.data)
        np.testing.assert_allclose(b.grad.data, a.data)

    def test_chain_through_sigmoid(self):
        # d/dx sum(sigmoid(x)) = s(x) (1 - s(x))
        x = Tensor(np.array([0.0, 1.0, -2.0]), requires_grad=True)
        backward(T.tsum(T.sigmoid(x)))
        s = 1.0 / (1.0 + np.exp(-x.data))
        np.testing.assert_allclose(x.grad.data, s * (1 - s), rtol=1e-12)

    def test_gradient_accumulates_on_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        backward(T.tsum(x * x))  # d/dx x^2 = 2x via two paths into mul
        np.testing.assert_allclose(x.grad.data, [6.0])

    def test_scalar_loss_required(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(x * 2.0)

    def test_untracked_tensor_gets_no_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2))
        backward(T.tsum(a * b))
        assert a.grad is not None
        assert b.grad is None

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        backward(T.tsum(x * 3.0))
        backward(T.tsum(x * 3.0))
        np.testing.assert_allclose(x.grad.data, [6.0, 6.0])

    def test_deep_chain_does_not_recurse(self):
        # tape-based traversal must handle graphs deeper than the
        # interpreter's recursion limit
        x = Tensor(np.array([0.1]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0
        backward(T.tsum(y))
        np.testing.assert_allclose(x.grad.data, [1.0])


class TestRelativeError:
    def test_zero_against_zero(self):
        assert relative_error(np.zeros(3), np.zeros(3)) == 0.0

    def test_scale_free(self):
        a = np.array([1e6])
        n = np.array([1e6 * (1 + 1e-5)])
        assert 0.4e-5 < relative_error(a, n) < 0.6e-5

    def test_abs_floor_suppresses_noise(self):
        # both routes tiny: agreement, regardless of their ratio
        a, n = np.array([1e-10]), np.array([3e-10])
        assert relative_error(a, n, abs_floor=1e-7) == 0.0
        # analytic zero against a real numeric signal must still be caught
        assert relative_error(np.array([0.0]), np.array([1e-3]),
                              abs_floor=1e-7) > 0.4


class TestCheckGradients:
    def test_quadratic(self):
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        err = check_gradients(lambda: T.tsum(x * x), {"x": x})
        assert err < 1e-7

    def test_wrong_gradient_detected(self):
        # negative control: an op whose backward closure lies (3x instead
        # of the true 2x) must produce a large relative error
        from tamseg.tensor import _accum, _result

        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)

        def bad_square(a):
            def back(g):
                _accum(a, 3.0 * a.data * g)
            return _result(a.data * a.data, (a,), back, "bad_square")

        err = check_gradients(lambda: T.tsum(bad_square(x)), {"x": x})
        assert err > 0.1

    def test_float32_rejected(self):
        # refused before any evaluation, even behind a valid float64 tensor
        y = Tensor(np.ones(3), requires_grad=True)
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        calls = []

        def build_loss():
            calls.append(1)
            return T.tsum(y * y)

        with pytest.raises(ValueError, match="float64"):
            check_gradients(build_loss, {"y": y, "x": x})
        assert not calls

    def test_sample_without_rng_rejected(self):
        x = Tensor(np.ones(5), requires_grad=True)
        calls = []

        def build_loss():
            calls.append(1)
            return T.tsum(x * x)

        with pytest.raises(ValueError, match="rng"):
            check_gradients(build_loss, {"x": x}, sample=2)
        assert not calls

    def test_only_first_loss_records_a_graph(self):
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        losses = []

        def build_loss():
            losses.append(T.tsum(x * x))
            return losses[-1]

        assert check_gradients(build_loss, {"x": x}) < 1e-7
        assert len(losses) == 1 + 2 * x.size
        assert losses[0].requires_grad
        assert not any(loss.requires_grad or loss._parents for loss in losses[1:])

    def test_graph_recording_restored_after_loss_raises(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        calls = []

        def build_loss():
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("loss failed mid-loop")
            return T.tsum(x * x)

        with pytest.raises(RuntimeError, match="mid-loop"):
            check_gradients(build_loss, {"x": x})
        assert len(calls) == 3
        assert T.tsum(x * x).requires_grad


class TestOpSuite:
    def test_all_ops_pass_twenty_seeds(self):
        results = run_op_suite(seeds=range(20))
        failures = [r for r in results if not r.passed]
        assert not failures, [f"{r.name}: {r.max_rel_error:.2e}" for r in failures]

    def test_suite_covers_the_op_set(self):
        names = {r.name for r in run_op_suite(seeds=range(1))}
        expected = {"matmul", "softmax", "conv2d_same", "conv3d_same",
                    "max_pool2d", "upsample2d", "batch_norm_train",
                    "batch_norm_eval", "concat", "slice", "clip", "div",
                    "max_pool_122", "upsample_122", "softmax_axis0", "concat_axis1"}
        assert expected <= names

    def test_reported_errors_are_small(self):
        worst = max(r.max_rel_error for r in run_op_suite(seeds=range(3)))
        assert worst < 1e-6


class TestModuleSuite:
    def test_attention_module_end_to_end(self):
        results = run_tam_suite(seeds=range(1))
        assert all(r.passed for r in results)
