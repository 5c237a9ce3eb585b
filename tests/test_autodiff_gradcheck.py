"""Reverse-mode gradients against central finite differences."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from tamseg import gradcheck
from tamseg import tensor as T
from tamseg.cli import main
from tamseg.errors import ShapeError
from tamseg.gradcheck import (STEP, GradCheckResult, check_gradients, relative_error,
                              run_end2end_suite, run_op_suite, run_tam_suite)
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


def reference_order(loss):
    """The sweep's depth-first sort that visits every node, leaves included.

    Parents before children, nodes told apart by ``id()``; ``backward`` pins
    its closure calls to the closure nodes of this order, reversed.
    """
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def reference_backward(loss):
    """``backward`` over :func:`reference_order`: each closure whose node has a grad."""
    loss.grad = Tensor(np.ones_like(loss.data))
    for node in reversed(reference_order(loss)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad.data)
            node._backward = None
            node._parents = ()


def closure_calls(loss, sweep, leaves):
    """The closures ``sweep(loss)`` calls, as positions in the reference
    order, and the bytes of the ``leaves``' gradients it leaves."""
    for leaf in leaves:
        leaf.grad = None
    calls = []
    for k, node in enumerate(reference_order(loss)):
        if node._backward is not None:
            def spy(g, k=k, back=node._backward):
                calls.append(k)
                back(g)
            node._backward = spy
    sweep(loss)
    return calls, [leaf.grad.data.tobytes() for leaf in leaves]


class TestSweepOrder:
    """``backward`` calls the closures the reference sort orders, in its order."""

    def _assert_same_sweep(self, build_loss, leaves):
        ref_calls, ref_grads = closure_calls(build_loss(), reference_backward, leaves)
        calls, grads = closure_calls(build_loss(), backward, leaves)
        assert ref_calls and calls == ref_calls
        assert grads == ref_grads

    def test_c4_training_graph_reading_frames_0_and_2(self):
        from tamseg.losses import dice_ce_loss, one_hot
        from tamseg.unet import BackboneConfig, build_model

        rng = np.random.default_rng(7)
        base = BackboneConfig(levels=5, channels=(4, 4, 8, 8, 8), heads=2)
        model = build_model("C4", base, rng)
        frames = [Tensor(rng.normal(size=(1, 16, 16)).astype(np.float32)) for _ in range(3)]
        truth = one_hot(rng.integers(0, 3, size=(16, 16)), 3)

        def build_loss():
            probs = model.forward(frames, training=True)
            return dice_ce_loss(probs[0], truth) + dice_ce_loss(probs[2], truth)

        self._assert_same_sweep(build_loss, list(model.named_parameters().values()))

    def test_one_leaf_feeding_several_ops(self):
        x = Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)
        w = Tensor(np.array([1.0, 2.0, -3.0]), requires_grad=True)

        def build_loss():
            y = T.sigmoid(x) * x + T.relu(x) * w
            return T.tsum(T.concat([y, x * x, T.scale(x, 3.0)], axis=0)) + T.tsum(w * y)

        self._assert_same_sweep(build_loss, [x, w])


class TestRelativeError:
    def test_zero_against_zero(self):
        assert relative_error(np.zeros(3), np.zeros(3)) == 0.0

    def test_scale_free(self):
        a = np.array([1e6])
        n = np.array([1e6 * (1 + 1e-5)])
        assert 0.4e-5 < relative_error(a, n) < 0.6e-5

    def test_analytic_zero_against_numeric_signal_fails(self):
        assert relative_error(np.array([0.0]), np.array([1e-3])) > 0.4


# a loss term that reads no checked tensor: its taped call is one the checked
# tensors do not feed, so their differences replay the rest of the loss
# instead of calling build_loss()
CONSTANT = Tensor(np.array([0.25, 4.0]))


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

    def test_nan_gradient_fails(self):
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        err = check_gradients(lambda: T.tsum(nan_grad(x)), {"x": x})
        assert np.isnan(err)
        assert not GradCheckResult("x", err).passed

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

    def test_only_first_loss_records_a_graph(self, monkeypatch):
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        losses, made = [], []
        for name in ("mul", "add"):
            def spy(*args, _op=getattr(T, name), **kwargs):
                made.append(_op(*args, **kwargs))
                return made[-1]
            monkeypatch.setattr(T, name, spy)

        def build_loss():
            losses.append(T.tsum(x * x) + T.tsum(CONSTANT))
            return losses[-1]

        assert check_gradients(build_loss, {"x": x}) < 1e-7
        # the recorded loss and the guard's; the other evaluations replay
        assert len(losses) == 2
        assert len(made) == 2 * (len(losses) + 1 + 2 * x.size)
        assert losses[0].requires_grad and made[0].requires_grad and made[1].requires_grad
        assert not any(t.requires_grad or t._parents for t in losses[1:] + made[2:])
        assert losses[0].item() == 9.5  # as recorded, though replays rebound it

    def test_replay_skips_calls_the_loss_does_not_read(self, monkeypatch):
        x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        relus, relu = [], T.relu

        def spy(a):
            relus.append(1)
            return relu(a)

        monkeypatch.setattr(T, "relu", spy)

        def build_loss():
            T.relu(x)  # made from x, but the loss never reads it
            return T.tsum(T.sigmoid(x) * T.sigmoid(x))

        assert check_gradients(build_loss, {"x": x}) < 1e-7
        assert len(relus) == 2  # the recorded loss and the guard's

    def test_graph_recording_restored_after_loss_raises(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        calls = []

        def build_loss():
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("guard loss failed")
            return T.tsum(x * x) + T.tsum(CONSTANT)

        with pytest.raises(RuntimeError, match="guard loss"):
            check_gradients(build_loss, {"x": x})
        assert len(calls) == 2
        assert T.tsum(x * x).requires_grad
        np.testing.assert_array_equal(x.data, [1.0, -2.0])

    # the mul of the guard's replay, or of the first difference's replay,
    # which follows the guard's full evaluation
    @pytest.mark.parametrize("failing, evaluations", [(2, 1), (4, 2)])
    def test_graph_recording_restored_after_replayed_op_raises(self, monkeypatch,
                                                                failing, evaluations):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        calls, mul = [], T.mul

        def failing_mul(a, b):
            calls.append(1)
            if len(calls) == failing:
                raise RuntimeError("replayed op failed")
            return mul(a, b)

        monkeypatch.setattr(T, "mul", failing_mul)
        losses = []

        def build_loss():
            losses.append(T.tsum(x * x) + T.tsum(CONSTANT))
            return losses[-1]

        with pytest.raises(RuntimeError, match="replayed op"):
            check_gradients(build_loss, {"x": x})
        assert len(losses) == evaluations and len(calls) == failing
        assert losses[0].item() == 9.25  # as recorded, though replays rebound it
        assert T.tsum(x * x).requires_grad
        assert T._LOCAL.tape is None
        np.testing.assert_array_equal(x.data, [1.0, -2.0])


def oracle_check(build_loss, tensors, *, sample=None, rng=None):
    """check_gradients as one full ``build_loss()`` per evaluation.

    Returns the worst relative error and the numeric derivatives, one array
    per tensor.
    """
    for t in tensors.values():
        t.grad = None
    backward(build_loss())
    worst, numerics = 0.0, []
    with T.no_grad():
        for t in tensors.values():
            analytic = (t.grad.data if t.grad is not None
                        else np.zeros(t.shape, dtype=np.float64))
            flat = t.data.reshape(-1)
            if sample is not None and sample < flat.size:
                coords = rng.choice(flat.size, size=sample, replace=False)
            else:
                coords = np.arange(flat.size)
            numeric = np.empty(coords.size, dtype=np.float64)
            for out_idx, i in enumerate(coords):
                saved = flat[i]
                flat[i] = saved + STEP
                plus = build_loss().item()
                flat[i] = saved - STEP
                minus = build_loss().item()
                flat[i] = saved
                numeric[out_idx] = (plus - minus) / (2.0 * STEP)
            numerics.append(numeric)
            worst = max(worst, relative_error(analytic.reshape(-1)[coords], numeric))
    return worst, numerics


@pytest.fixture
def against_oracle(monkeypatch):
    """Run each ``gradcheck.check_gradients`` call again as the oracle.

    Returns the list of compared checks: each holds the tensors, the number
    of ``build_loss()`` calls the replaying check made, and the worst error
    and numeric derivatives of both routes. The spies append in the process
    that calls them, so checks run on one worker, in this process.
    """
    monkeypatch.setattr("tamseg.workers.cpu_count", lambda: 1)
    checks, numerics = [], []
    replaying, measure = gradcheck.check_gradients, gradcheck.relative_error

    def spy_error(analytic, numeric):
        numerics.append(numeric.copy())
        return measure(analytic, numeric)

    def both(build_loss, tensors, *, sample=None, rng=None):
        oracle_rng = copy.deepcopy(rng)
        evals = []

        def counted():
            evals.append(1)
            return build_loss()

        numerics.clear()
        worst = replaying(counted, tensors, sample=sample, rng=rng)
        oracle_worst, oracle_numerics = oracle_check(
            build_loss, tensors, sample=sample, rng=oracle_rng)
        checks.append(SimpleNamespace(
            tensors=tensors, evals=len(evals), worst=worst, numerics=list(numerics),
            oracle_worst=oracle_worst, oracle_numerics=oracle_numerics))
        return worst

    monkeypatch.setattr(gradcheck, "relative_error", spy_error)
    monkeypatch.setattr(gradcheck, "check_gradients", both)
    return checks


def assert_matches_oracle(checks, replayed=True):
    """Byte-equal derivatives and errors; ``replayed``: every tensor replayed."""
    assert checks
    for check in checks:
        assert [n.tobytes() for n in check.numerics] == \
            [n.tobytes() for n in check.oracle_numerics]
        assert check.worst == check.oracle_worst
        if replayed:
            # the recorded loss and each tensor's guard; no full evaluation else
            assert check.evals == 1 + len(check.tensors)


class TestReplayAgainstOracle:
    def test_op_suite(self, against_oracle):
        results = run_op_suite(seeds=[0])
        assert len(against_oracle) == len(results)
        # each of these small losses reads every checked tensor in every
        # call, so they are evaluated in full, with no guard
        assert_matches_oracle(against_oracle, replayed=False)
        for check in against_oracle:
            assert check.evals == 1 + 2 * sum(t.size for t in check.tensors.values())

    def test_tam_suite(self, against_oracle):
        run_tam_suite(seeds=[0])
        assert_matches_oracle(against_oracle)

    def test_end2end_suite(self, against_oracle):
        run_end2end_suite(seeds=[0])
        assert_matches_oracle(against_oracle)

    def test_leaf_built_from_data_falls_back(self, against_oracle):
        x = Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)

        def build_loss():
            # a copy of x outside any op: the tape cannot see that it reads x
            return T.tsum(x * Tensor(x.data.copy())) + T.tsum(CONSTANT)

        assert gradcheck.check_gradients(build_loss, {"x": x}) > 0.1
        assert_matches_oracle(against_oracle, replayed=False)
        assert against_oracle[0].evals == 2 + 2 * x.size  # recorded, guard, full
        np.testing.assert_allclose(against_oracle[0].numerics[0], 2 * x.data, rtol=1e-8)

    def test_data_read_of_a_later_element_falls_back(self, against_oracle):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)

        def build_loss():
            # reads x[1] outside the ops; moving x[0] alone leaves it be
            return T.tsum(x * x) + T.tsum(Tensor(x.data[1:] ** 2))

        # analytic 2 * x[1] against the full numeric 4 * x[1]
        assert gradcheck.check_gradients(build_loss, {"x": x}) == pytest.approx(1 / 3)
        assert_matches_oracle(against_oracle, replayed=False)
        assert against_oracle[0].evals == 2 + 2 * x.size

    def test_unrecorded_op_on_later_elements_falls_back(self, against_oracle):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-1.0, 1.0, 6), requires_grad=True)

        def tail_square(a):
            # an op with a correct backward that record() does not tape
            def back(g):
                T._accum(a, np.concatenate([np.zeros(3), 2.0 * a.data[3:] * g]))
            return T._result(a.data[3:] ** 2, (a,), back, "tail_square")

        def build_loss():
            return T.tsum(T.sigmoid(x)) + T.tsum(tail_square(x))

        # the first sampled coordinate lies outside the unrecorded read
        sampled = np.random.default_rng(0)
        assert copy.deepcopy(sampled).choice(6, size=4, replace=False)[0] < 3
        assert gradcheck.check_gradients(build_loss, {"x": x}, sample=4,
                                         rng=sampled) < 1e-7
        assert_matches_oracle(against_oracle, replayed=False)
        assert against_oracle[0].evals == 2 + 2 * 4

    def test_concat_of_a_list_by_keyword(self, against_oracle):
        rng = np.random.default_rng(3)
        a = Tensor(rng.uniform(-1.0, 1.0, (2, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1.0, 1.0, (4, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-1.0, 1.0, (6, 6)))

        def build_loss():
            # the list positional in one call, by keyword in the other
            top = T.concat([T.sigmoid(a), b * b], axis=0)
            bottom = T.concat(tensors=[b, T.neg(a)], axis=0)
            return T.tsum(T.concat([top, bottom], axis=1) * w)

        assert gradcheck.check_gradients(build_loss, {"a": a, "b": b}) < 1e-7
        assert_matches_oracle(against_oracle)


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


def nan_grad(a):
    """The identity, with a backward that writes ``np.nan * g``."""
    def back(g):
        T._accum(a, np.nan * g)
    return T._result(a.data.copy(), (a,), back, "nan_grad")


def nan_op_cases(rng):
    """An op-suite case list: one sound case and one whose gradient is NaN."""
    x, y = (Tensor(rng.normal(size=3), requires_grad=True) for _ in range(2))
    return [("square", {"x": x}, lambda: T.tsum(x * x)),
            ("nan_grad", {"x": y}, lambda: T.tsum(nan_grad(y)))]


class TestNanGradient:
    """A NaN gradient fails the op suite's per-name maximum and the command."""

    def test_op_suite_keeps_nan(self, monkeypatch):
        monkeypatch.setattr(gradcheck, "_op_cases", nan_op_cases)
        results = {r.name: r for r in run_op_suite(seeds=range(2))}
        assert results["square"].passed
        assert np.isnan(results["nan_grad"].max_rel_error)
        assert not results["nan_grad"].passed

    def test_cli_reports_failing_check(self, monkeypatch, capsys):
        monkeypatch.setattr(gradcheck, "_op_cases", nan_op_cases)
        capsys.readouterr()
        assert main(["gradcheck", "--scope", "ops", "--seeds", "2"]) == 2
        out = capsys.readouterr().out
        assert "FAIL nan_grad" in out and "ok   square" in out
        assert out.index("FAIL nan_grad") < out.index("ok   square")
        assert out.endswith("1 of 2 checks failed\n")


class TestModuleSuite:
    def test_attention_module_end_to_end(self):
        results = run_tam_suite(seeds=range(1))
        assert all(r.passed for r in results)


class TestGradcheckWorkers:
    """Checks in worker processes give what one worker, in this process, gives."""

    @pytest.mark.parametrize("suite", [run_op_suite, run_tam_suite, run_end2end_suite])
    def test_same_errors_at_any_worker_count(self, monkeypatch, suite):
        errors = {}
        for count in (1, 2, 3):
            monkeypatch.setattr("tamseg.workers.cpu_count", lambda: count)
            errors[count] = [(r.name, r.max_rel_error.hex()) for r in suite(seeds=[0])]
        assert errors[1] and errors[2] == errors[1] and errors[3] == errors[1]

    def test_cli_output_same_at_one_and_two_workers(self, monkeypatch, capsys):
        outs = []
        for count in (1, 2):
            monkeypatch.setattr("tamseg.workers.cpu_count", lambda: count)
            assert main(["gradcheck", "--scope", "tam"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].endswith("all 3 checks passed\n")
