"""Forward semantics of the tensor ops against plain numpy."""

import itertools
import math

import numpy as np
import pytest

from tamseg.errors import NumericError, ShapeError
from tamseg import tensor as T
from tamseg.tensor import BatchNormState, Tensor


class TestTensorBasics:
    def test_default_dtype_is_float64_for_lists(self):
        t = Tensor([1.0, 2.0])
        assert t.dtype == np.float64

    def test_array_dtype_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_integer_dtype_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.arange(3), dtype=np.int32)

    def test_scalar_stays_zero_dim(self):
        t = Tensor(np.float64(3.5))
        assert t.shape == ()
        assert t.item() == 3.5

    def test_item_rejects_vectors(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_data_is_contiguous(self):
        t = Tensor(np.arange(12.0).reshape(3, 4).T)
        assert t.data.flags["C_CONTIGUOUS"]


class TestElementwise:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.a = rng.normal(size=(3, 4))
        self.b = rng.normal(size=(3, 4)) + 2.5  # keep away from zero for div

    def test_add_sub_mul_div(self):
        ta, tb = Tensor(self.a), Tensor(self.b)
        np.testing.assert_allclose((ta + tb).data, self.a + self.b)
        np.testing.assert_allclose((ta - tb).data, self.a - self.b)
        np.testing.assert_allclose((ta * tb).data, self.a * self.b)
        np.testing.assert_allclose((ta / tb).data, self.a / self.b)

    def test_scalar_operands(self):
        ta = Tensor(self.a)
        np.testing.assert_allclose((ta + 2.0).data, self.a + 2.0)
        np.testing.assert_allclose((3.0 - ta).data, 3.0 - self.a)
        np.testing.assert_allclose((ta * -1.5).data, self.a * -1.5)
        np.testing.assert_allclose((2.0 / (ta + 5.0)).data, 2.0 / (self.a + 5.0))

    def test_no_implicit_broadcasting(self):
        with pytest.raises(ShapeError):
            Tensor(self.a) + Tensor(self.a[0])
        with pytest.raises(ShapeError):
            Tensor(self.a) * Tensor(self.a[:, :2])

    def test_mixed_dtypes_rejected(self):
        f32 = Tensor(self.a, dtype=np.float32)
        f64 = Tensor(self.b, dtype=np.float64)
        with pytest.raises(ShapeError):
            f32 + f64

    def test_unary(self):
        ta = Tensor(self.a)
        np.testing.assert_allclose((-ta).data, -self.a)
        np.testing.assert_allclose(T.relu(ta).data, np.maximum(self.a, 0.0))
        np.testing.assert_allclose(T.sigmoid(ta).data, 1.0 / (1.0 + np.exp(-self.a)))
        np.testing.assert_allclose(T.log(Tensor(self.b)).data, np.log(self.b))
        np.testing.assert_allclose(T.clip(ta, -0.5, 0.5).data,
                                   np.clip(self.a, -0.5, 0.5))
        np.testing.assert_allclose(T.recip(Tensor(self.b)).data, 1.0 / self.b)


class TestReductionsAndShape:
    def setup_method(self):
        self.x = np.random.default_rng(5).normal(size=(2, 3, 4))

    def test_sum_and_mean(self):
        tx = Tensor(self.x)
        np.testing.assert_allclose(T.tsum(tx).item(), self.x.sum())
        np.testing.assert_allclose(T.mean(tx).item(), self.x.mean())

    def test_reshape_transpose(self):
        tx = Tensor(self.x)
        np.testing.assert_allclose(T.reshape(tx, (6, 4)).data, self.x.reshape(6, 4))
        np.testing.assert_allclose(T.transpose(tx).data, self.x.transpose(2, 1, 0))
        np.testing.assert_allclose(T.transpose(Tensor(self.x[0])).data, self.x[0].T)

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3), (2, 3, 4)])
    def test_sum_and_mean_reduce_every_element(self, shape):
        x = np.random.default_rng(9).normal(size=shape)
        for op, value, slope in ((T.tsum, x.sum(), 1.0), (T.mean, x.mean(), 1.0 / x.size)):
            tx = Tensor(x, requires_grad=True)
            out = op(tx)
            assert out.shape == ()
            np.testing.assert_allclose(out.item(), value, rtol=1e-12)
            T.backward(out)
            np.testing.assert_allclose(tx.grad.data, np.full(shape, slope))

    @pytest.mark.parametrize("shape", [(5,), (2, 3), (2, 3, 4), (2, 1, 3, 4)])
    def test_transpose_reverses_every_axis(self, shape):
        rng = np.random.default_rng(10)
        x, g = rng.normal(size=shape), rng.normal(size=shape[::-1])
        tx = Tensor(x, requires_grad=True)
        out = T.transpose(tx)
        np.testing.assert_array_equal(out.data, np.transpose(x))
        T.backward(T.tsum(T.mul(out, Tensor(g))))
        np.testing.assert_array_equal(tx.grad.data, np.transpose(g))

    def test_concat_slice_roundtrip(self):
        tx = Tensor(self.x)
        parts = [T.slice_axis(tx, 1, i, i + 1) for i in range(3)]
        back = T.concat(parts, axis=1)
        np.testing.assert_allclose(back.data, self.x)

    def test_concat_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor(self.x), Tensor(self.x[:, :2])], axis=0)


class TestMatmulSoftmax:
    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(3, 4))
        np.testing.assert_allclose(T.matmul(Tensor(a), Tensor(b)).data, a @ b,
                                   rtol=1e-12)

    def test_matmul_requires_2d(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((2, 2))))

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(9).normal(size=(4, 6)) * 3
        out = T.softmax(Tensor(x), axis=1).data
        np.testing.assert_allclose(out.sum(axis=1), np.ones(4), atol=1e-12)
        ref = np.exp(x - x.max(axis=1, keepdims=True))
        ref /= ref.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(3).normal(size=(3, 5))
        a = T.softmax(Tensor(x), axis=1).data
        b = T.softmax(Tensor(x + 100.0), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-12)


def same_pads(kshape):
    """(before, after) zero pad per axis that keeps the extents at stride 1."""
    return [((k - 1) // 2, k - 1 - (k - 1) // 2) for k in kshape]


def conv2d_naive(x, w, b=None):
    """Reference "same" cross-correlation, plain loops. Slow but obviously right."""
    c_out, c_in, kh, kw = w.shape
    oh, ow = x.shape[1:]
    x = np.pad(x, [(0, 0)] + same_pads((kh, kw)))
    out = np.zeros((c_out, oh, ow), dtype=x.dtype)
    for o in range(c_out):
        for i in range(oh):
            for j in range(ow):
                out[o, i, j] = np.sum(x[:, i:i + kh, j:j + kw] * w[o])
    if b is not None:
        out += b[:, None, None]
    return out


class TestConv:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.x = rng.normal(size=(3, 6, 7))
        self.w = rng.normal(size=(4, 3, 3, 3))
        self.b = rng.normal(size=4)

    @pytest.mark.parametrize("kshape", [
        (3, 3), (1, 1), (2, 2), (2, 3), (3, 2), (1, 4), (4, 5), (5, 5)])
    def test_same_padding_matches_naive(self, kshape):
        w = np.random.default_rng(22).normal(size=(4, 3) + kshape)
        got = T.conv_nd(Tensor(self.x), Tensor(w), Tensor(self.b)).data
        np.testing.assert_allclose(got, conv2d_naive(self.x, w, self.b),
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_same_window_placement_3d(self, k):
        # an all-ones kernel on all-ones input counts, per output voxel, the
        # kernel cells inside the volume: (k-1)//2 cells before it, the rest after
        spatial = (5, 6, 7)
        out = T.conv_nd(Tensor(np.ones((1,) + spatial)), Tensor(np.ones((1, 1, k, k, k)))).data
        counts = [np.array([min(i + k - 1 - (k - 1) // 2, n - 1) - max(i - (k - 1) // 2, 0) + 1
                            for i in range(n)]) for n in spatial]
        np.testing.assert_array_equal(out[0], np.einsum("i,j,l->ijl", *counts))

    def test_conv3d_identity_kernel(self):
        # 1x1x1 kernel with identity mixing leaves the volume unchanged
        x = np.random.default_rng(4).normal(size=(2, 3, 4, 5))
        w = np.eye(2).reshape(2, 2, 1, 1, 1)
        got = T.conv_nd(Tensor(x), Tensor(w)).data
        np.testing.assert_allclose(got, x)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.conv_nd(Tensor(self.x[:2]), Tensor(self.w))

    def test_known_3x3_sum_kernel(self):
        # all-ones kernel on all-ones input counts the window size interior
        x = np.ones((1, 5, 5))
        w = np.ones((1, 1, 3, 3))
        out = T.conv_nd(Tensor(x), Tensor(w)).data
        assert out[0, 2, 2] == 9.0
        assert out[0, 0, 0] == 4.0  # corner sees a 2x2 window under same padding


def conv_nd_tensordot(x, w, b=None):
    """The engine's former convolution, kept as the oracle of the im2col GEMM.

    One tensordot per kernel offset, forward and backward. Returns the output
    and a function mapping an upstream gradient to (dx, dw, db).
    """
    rank = x.ndim - 1
    kshape = w.shape[2:]
    out_spatial = x.shape[1:]
    pads = same_pads(kshape)
    x_pad = np.pad(x, [(0, 0)] + pads)
    out = np.zeros((w.shape[0], *out_spatial), dtype=x.dtype)
    windows = {}
    for off in itertools.product(*[range(k) for k in kshape]):
        windows[off] = (slice(None),) + tuple(
            slice(o, o + n) for o, n in zip(off, out_spatial))
        out += np.tensordot(w[(slice(None), slice(None)) + off], x_pad[windows[off]],
                            axes=([1], [0]))
    if b is not None:
        out += b.reshape((-1,) + (1,) * rank)
    spatial_axes = tuple(range(1, rank + 1))

    def back(g):
        dw = np.zeros_like(w)
        dx_pad = np.zeros_like(x_pad)
        for off, win in windows.items():
            dw[(slice(None), slice(None)) + off] = np.tensordot(
                g, x_pad[win], axes=(spatial_axes, spatial_axes))
            dx_pad[win] += np.tensordot(w[(slice(None), slice(None)) + off], g,
                                        axes=([0], [0]))
        crop = (slice(None),) + tuple(
            slice(before, before + n) for (before, _), n in zip(pads, x.shape[1:]))
        return dx_pad[crop], dw, g.sum(axis=spatial_axes)

    return out, back


class TestConvMatchesTensordotOracle:
    """Shapes span several GEMM tiles with a ragged last one, and the 3D
    shapes have several leading output indices. The 1x1 kernels take the
    pointwise path, and the even extents pad one more after than before."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("x_shape, w_shape", [
        ((16, 64, 64), (8, 16, 3, 3)),
        ((8, 4, 31, 64), (6, 8, 3, 3, 3)),
        ((64, 70, 64), (8, 64, 1, 1)),
        ((128, 3, 70, 32), (8, 128, 1, 1, 1)),
        ((16, 60, 64), (8, 16, 2, 4)),
        ((8, 4, 31, 64), (6, 8, 2, 3, 4)),
    ])
    def test_output_and_gradients(self, x_shape, w_shape, dtype):
        rng = np.random.default_rng(31)
        x = rng.normal(size=x_shape).astype(dtype)
        w = rng.normal(size=w_shape).astype(dtype)
        b = rng.normal(size=w_shape[0]).astype(dtype)
        ref_out, ref_back = conv_nd_tensordot(x, w, b)
        rows, width = ref_out.shape[-2:]
        per_tile = T.CONV_TILE_ELEMS // (int(np.prod(w_shape[1:])) * width)
        assert rows > per_tile and rows % per_tile, "shape must span ragged tiles"

        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = T.conv_nd(tx, tw, tb)
        g = rng.normal(size=ref_out.shape).astype(dtype)
        T.backward(T.tsum(T.mul(out, Tensor(g))))

        rel = 1e-10 if dtype == np.float64 else 1e-5
        for got, ref in zip((out, tx.grad, tw.grad, tb.grad), (ref_out, *ref_back(g))):
            assert got.dtype == dtype and got.shape == ref.shape
            np.testing.assert_allclose(got.data, ref, rtol=rel,
                                       atol=rel * np.abs(ref).max())


def conv_grads_per_offset(x, w, g):
    """dx and dw of ``conv_nd`` with one col2im add per kernel offset.

    The engine's former backward, kept as the oracle of the one that adds all
    offsets along the leading axes at once: same tiles, same GEMMs, and
    prod(k) strided adds per tile.
    """
    plan = T._conv_plan(x.shape, w.shape, None)
    x_pad = np.zeros(plan.padded, x.dtype)
    x_pad[plan.crop] = x
    src = T._columns(x_pad, plan)
    w_cols = w.reshape(-1, plan.col_rows)
    g_tiles = g.reshape(plan.out_tiles)
    dw = np.zeros(w_cols.shape, w.dtype)
    dx_pad = np.zeros_like(x_pad)
    d_src = T._columns(dx_pad, plan)
    for flat, idx, cols, d_shape in plan.tiles:
        g_tile = g_tiles[:, flat, cols]
        dw += g_tile @ src[idx].reshape(plan.col_rows, -1).T
        d_cols = (w_cols.T @ g_tile).reshape(d_shape)
        d_win = d_src[idx]
        for off in np.ndindex(*w.shape[2:]):
            d_win[(slice(None),) + off] += d_cols[(slice(None),) + off]
    return dx_pad[plan.crop], dw.reshape(w.shape)


class TestCol2imMatchesPerOffsetOracle:
    """Byte-equal gradients on plans with several leading output indices and
    several row tiles each, the last one ragged."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("x_shape, w_shape", [
        ((8, 4, 31, 64), (6, 8, 3, 3, 3)),
        ((8, 4, 31, 64), (6, 8, 2, 3, 4)),
        ((32, 5, 23, 64), (6, 32, 3, 1, 1)),
        ((3, 3, 91, 128), (8, 3, 3, 3, 3)),
        ((16, 60, 64), (8, 16, 3, 3)),
    ])
    def test_dx_and_dw_byte_equal(self, x_shape, w_shape, dtype):
        rng = np.random.default_rng(51)
        x = rng.normal(size=x_shape).astype(dtype)
        w = rng.normal(size=w_shape).astype(dtype)
        rows, width = x_shape[-2:]
        per_tile = T.CONV_TILE_ELEMS // (math.prod(w_shape[1:]) * width)
        assert rows > per_tile and rows % per_tile, "shape must span ragged tiles"
        tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = T.conv_nd(tx, tw)
        g = rng.normal(size=out.shape).astype(dtype)
        T.backward(T.tsum(T.mul(out, Tensor(g))))
        ref_dx, ref_dw = conv_grads_per_offset(x, w, g)
        for got, ref in ((tx.grad.data, ref_dx), (tw.grad.data, ref_dw)):
            assert got.dtype == dtype
            assert got.tobytes() == ref.tobytes()


class TestConvPlanCache:
    """The shape-only plan is cached per (input, kernel, bias) shape."""

    CASES = [  # (x shape, w shape, bias), interleaved on purpose
        ((3, 9, 7), (4, 3, 3, 3), False),
        ((2, 4, 5, 6), (3, 2, 3, 3, 3), False),
        ((3, 9, 7), (4, 3, 3, 3), True),
        ((5, 6, 6), (2, 5, 1, 1), False),
        ((3, 9, 7), (4, 3, 3, 2), False),  # an even extent pads one more after
        ((2, 4, 5, 6), (3, 2, 1, 1, 1), True),
        ((5, 6, 6), (2, 5, 1, 1), True),
        ((3, 9, 7), (4, 3, 3, 3), False),
    ]

    def _check(self, x_shape, w_shape, bias, rng):
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0]) if bias else None
        ref_out, ref_back = conv_nd_tensordot(x, w, b)
        tx, tw = Tensor(x.copy(), requires_grad=True), Tensor(w, requires_grad=True)
        out = T.conv_nd(tx, tw, None if b is None else Tensor(b))
        g = rng.normal(size=ref_out.shape)
        T.backward(T.tsum(T.mul(out, Tensor(g))))
        ref_dx, ref_dw, _ = ref_back(g)
        for got, ref in ((out.data, ref_out), (tx.grad.data, ref_dx), (tw.grad.data, ref_dw)):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
        np.testing.assert_array_equal(tx.data, x)  # the input is left as it was

    def test_cold_then_warm_calls_match_oracle(self):
        T._conv_plan.cache_clear()
        rng = np.random.default_rng(41)
        for _ in range(2):
            for case in self.CASES:
                self._check(*case, rng)
        assert T._conv_plan.cache_info().hits >= len(self.CASES)

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((3, 5, 6), (4, 3, 1, 1)), ((3, 2, 5, 6), (4, 3, 1, 1, 1))])
    def test_unpadded_conv_keeps_input_apart(self, x_shape, w_shape):
        rng = np.random.default_rng(42)
        for _ in range(2):
            x = rng.normal(size=x_shape)
            tx = Tensor(x.copy(), requires_grad=True)
            out = T.conv_nd(tx, Tensor(rng.normal(size=w_shape)))
            assert not np.shares_memory(out.data, tx.data)
            out.data[...] = 7.0  # writing the output must not reach the input
            np.testing.assert_array_equal(tx.data, x)
        self._check(x_shape, w_shape, False, rng)

    def test_bad_geometry_raises_every_call(self):
        x = Tensor(np.zeros((1, 4, 4)))
        for _ in range(3):
            # the operand checks live in the cached plan, and errors are not cached
            with pytest.raises(ShapeError, match="channels"):
                T.conv_nd(x, Tensor(np.zeros((1, 2, 1, 1))))
            with pytest.raises(ShapeError, match="bias"):
                T.conv_nd(x, Tensor(np.zeros((2, 1, 1, 1))), Tensor(np.zeros(3)))
            with pytest.raises(ShapeError, match="kernel rank"):
                T.conv_nd(x, Tensor(np.zeros((1, 1, 1, 1, 1))))


class TestResultInvariant:
    """Every op output is a C-contiguous float array of its inputs' dtype,
    whether ``_result`` took it as is or normalized it."""

    def _spy(self, monkeypatch):
        made = []
        real = T._result

        def spy(data, parents, backward_fn, op):
            out = real(data, parents, backward_fn, op)
            made.append((out, parents))
            return out

        monkeypatch.setattr(T, "_result", spy)
        return made

    @staticmethod
    def _assert_node(out, dtype):
        assert type(out.data) is np.ndarray
        assert out.data.flags.c_contiguous, out
        assert out.dtype == dtype, out

    def test_every_gradcheck_case(self, monkeypatch):
        from tamseg.gradcheck import _op_cases
        made = self._spy(monkeypatch)
        for name, tensors, build_loss in _op_cases(np.random.default_rng(0)):
            made.clear()
            loss = build_loss()
            assert made, name
            for out, _ in made:
                self._assert_node(out, np.float64)
            T.backward(loss)
            for t in tensors.values():
                self._assert_node(t.grad, np.float64)

    def test_float32_copies(self, monkeypatch):
        made = self._spy(monkeypatch)
        rng = np.random.default_rng(1)

        def leaf(*shape):
            return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

        x, k, k1, m = leaf(2, 5, 6), leaf(3, 2, 3, 3), leaf(3, 2, 1, 1), leaf(4, 6)
        gamma, beta = leaf(3), leaf(3)
        conv = T.conv_nd(x, k1)
        normed = T.batch_norm(T.conv_nd(x, k), gamma, beta, BatchNormState(3), True)
        attn = T.matmul(T.softmax(m, axis=1), T.transpose(m))
        parts = T.concat([T.slice_axis(m, 0, 0, 2), T.sigmoid(m)], axis=0)
        loss = (T.tsum(T.relu(normed)) + T.mean(conv) + T.tsum(attn)
                + T.tsum(T.reshape(parts, (36,))) + T.tsum(T.max_pool(x, (1, 2))))
        assert len(made) > 10
        for out, _ in made:
            self._assert_node(out, np.float32)
        T.backward(loss)
        for t in (x, k, k1, m, gamma, beta):
            self._assert_node(t.grad, np.float32)

    def test_odd_arrays_are_normalized_or_refused(self):
        strided = np.arange(12.0, dtype=np.float32).reshape(3, 4).T
        out = T._result(strided, (), None, "probe")
        assert out.data.flags.c_contiguous and out.dtype == np.float32
        np.testing.assert_array_equal(out.data, strided)
        scalar = T._result(np.float64(2.5), (), None, "probe")
        assert scalar.shape == () and scalar.dtype == np.float64
        for bad in (np.arange(3), np.arange(3.0, dtype=">f8"), np.ones(3, np.float16)):
            with pytest.raises(ValueError):
                T._result(bad, (), None, "probe")


class TestPoolUpsample:
    def test_max_pool_known_values(self):
        x = np.arange(16.0).reshape(1, 4, 4)
        out = T.max_pool(Tensor(x), 2).data
        np.testing.assert_allclose(out[0], [[5.0, 7.0], [13.0, 15.0]])

    def test_max_pool_rejects_ragged(self):
        with pytest.raises(ShapeError):
            T.max_pool(Tensor(np.zeros((1, 5, 4))), 2)

    def test_pool_per_axis_factors(self):
        x = np.random.default_rng(6).normal(size=(2, 4, 6, 6))
        out = T.max_pool(Tensor(x), (1, 2, 2))
        assert out.shape == (2, 4, 3, 3)

    def test_upsample_repeats(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = T.upsample_nearest(Tensor(x), 2).data
        np.testing.assert_allclose(out[0, :2, :2], np.ones((2, 2)))
        np.testing.assert_allclose(out[0, 2:, 2:], 4 * np.ones((2, 2)))

    def test_frame_axis_kept_at_factor_122(self):
        # C2 pools and upsamples its (C, T, H, W) frame stack at (1, 2, 2)
        x = np.arange(2 * 3 * 4 * 4, dtype=np.float64).reshape(2, 3, 4, 4)
        pooled = T.max_pool(Tensor(x), (1, 2, 2)).data
        np.testing.assert_array_equal(pooled, x[..., 1::2, 1::2])
        up = T.upsample_nearest(Tensor(pooled), (1, 2, 2)).data
        np.testing.assert_array_equal(up, pooled.repeat(2, axis=2).repeat(2, axis=3))

    def test_pool_then_upsample_shape(self):
        x = Tensor(np.random.default_rng(8).normal(size=(3, 8, 8)))
        assert T.upsample_nearest(T.max_pool(x, 2), 2).shape == x.shape


class TestBatchNorm:
    def test_training_normalizes(self):
        rng = np.random.default_rng(13)
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 9, 9))
        state = BatchNormState(4, dtype=np.float64)
        out = T.batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                           state, training=True).data
        np.testing.assert_allclose(out.mean(axis=(1, 2)), np.zeros(4), atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(1, 2)), np.ones(4), rtol=1e-3)

    def test_running_stats_update(self):
        x = np.random.default_rng(14).normal(size=(2, 5, 5))
        state = BatchNormState(2, dtype=np.float64)
        T.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                     state, training=True)
        np.testing.assert_allclose(state.running_mean, 0.1 * x.mean(axis=(1, 2)),
                                   rtol=1e-12)
        np.testing.assert_allclose(state.running_var,
                                   0.9 * 1.0 + 0.1 * x.var(axis=(1, 2)), rtol=1e-12)

    def test_eval_uses_running_stats(self):
        x = np.random.default_rng(15).normal(size=(2, 4, 4))
        state = BatchNormState(2, dtype=np.float64)
        state.running_mean = np.array([1.0, -1.0])
        state.running_var = np.array([4.0, 0.25])
        out = T.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                           state, training=False).data
        ref = (x - state.running_mean[:, None, None]) / np.sqrt(
            state.running_var[:, None, None] + T.BN_EPS)
        np.testing.assert_allclose(out, ref, rtol=1e-12)
        # eval mode must not touch the state
        np.testing.assert_allclose(state.running_mean, [1.0, -1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_channel_vector_input(self, dtype):
        # a (C,) input has no axis to reduce: in training each channel is its
        # own mean with zero variance, so the output is beta, the input and
        # gamma get zero gradient and the running variance only decays
        rng = np.random.default_rng(17)
        x, gamma, beta, g = (Tensor(rng.normal(size=3).astype(dtype), requires_grad=True)
                             for _ in range(4))
        state = BatchNormState(3, dtype=dtype)
        out = T.batch_norm(x, gamma, beta, state, training=True)
        T.backward(T.tsum(T.mul(out, Tensor(g.data))))
        np.testing.assert_array_equal(out.data, beta.data)
        np.testing.assert_array_equal(x.grad.data, np.zeros(3, dtype))
        np.testing.assert_array_equal(gamma.grad.data, np.zeros(3, dtype))
        np.testing.assert_array_equal(beta.grad.data, g.data)
        np.testing.assert_array_equal(
            state.running_mean, (0.9 * np.zeros(3, dtype) + 0.1 * x.data).astype(dtype))
        np.testing.assert_array_equal(state.running_var, np.full(3, 0.9, dtype))
        for arr in (out.data, x.grad.data, gamma.grad.data, beta.grad.data,
                    state.running_mean, state.running_var):
            assert arr.dtype == dtype and arr.shape == (3,)

    def test_gamma_beta_affine(self):
        x = np.random.default_rng(16).normal(size=(1, 6, 6))
        state = BatchNormState(1, dtype=np.float64)
        out = T.batch_norm(Tensor(x), Tensor(np.array([2.0])),
                           Tensor(np.array([-3.0])), state, training=True).data
        np.testing.assert_allclose(out.mean(), -3.0, atol=1e-10)


class TestFiniteGuard:
    def test_assert_finite_passes_clean(self):
        t = Tensor(np.ones(3))
        assert T.assert_finite(t) is t

    def test_assert_finite_rejects_nan(self):
        with pytest.raises(NumericError):
            T.assert_finite(Tensor(np.array([1.0, np.nan])))

    def test_assert_finite_rejects_inf(self):
        with pytest.raises(NumericError):
            T.assert_finite(Tensor(np.array([np.inf])), what="loss")


class TestMacCounting:
    def test_matmul_macs(self):
        a, b = Tensor(np.ones((3, 4))), Tensor(np.ones((4, 5)))
        with T.count_macs() as counter:
            T.matmul(a, b)
        assert counter.total == 3 * 4 * 5

    def test_conv_macs(self):
        x = Tensor(np.ones((2, 8, 8)))
        w = Tensor(np.ones((3, 2, 3, 3)))
        with T.count_macs() as counter:
            T.conv_nd(x, w)
        assert counter.total == 9 * 2 * 3 * 64

    def test_innermost_counter_wins(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))
        with T.count_macs() as outer:
            T.matmul(a, b)
            with T.count_macs() as inner:
                T.matmul(a, b)
        assert inner.total == 8
        assert outer.total == 8  # counts route to the innermost scope only


class TestNoGrad:
    @staticmethod
    def _leaf(rng, *shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    def test_outputs_record_no_graph(self):
        rng = np.random.default_rng(30)
        x, k, m = self._leaf(rng, 2, 6, 6), self._leaf(rng, 3, 2, 3, 3), self._leaf(rng, 4, 4)
        gamma, beta = self._leaf(rng, 3), self._leaf(rng, 3)
        with T.no_grad():
            conv = T.conv_nd(x, k)
            outs = [conv, T.batch_norm(conv, gamma, beta, BatchNormState(3, np.float64), False),
                    T.matmul(T.softmax(m, axis=1), T.transpose(m)),
                    T.concat([m, m], axis=0), T.tsum(T.relu(x))]
        for out in outs:
            assert out._parents == () and out._backward is None, out
            assert not out.requires_grad, out
        # the same ops outside the switch record the graph again
        tracked = T.conv_nd(x, k)
        assert tracked.requires_grad and tracked._parents == (x, k)
        np.testing.assert_array_equal(tracked.data, conv.data)

    def test_backward_names_the_switch(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            loss = T.tsum(x * x)
        with pytest.raises(ValueError, match=r"no_grad\(\)"):
            T.backward(loss)
        assert x.grad is None

    def test_nests_and_restores_on_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert not (x * 2.0).requires_grad
            assert not (x * 2.0).requires_grad  # the inner exit keeps it on
        assert (x * 2.0).requires_grad
        with pytest.raises(ShapeError):
            with T.no_grad():
                T.add(x, Tensor(np.ones(3)))  # shape checks still run
        assert (x * 2.0).requires_grad

    def test_eval_batch_norm_gradcheck_passes_outside_the_switch(self):
        # the switch is not eval mode: an eval-mode batch_norm still records
        # its graph outside it, and the gradcheck suite backpropagates there
        from tamseg.gradcheck import TOLERANCE, _op_cases, check_gradients
        (tensors, build_loss), = [(t, fn) for name, t, fn in
                                  _op_cases(np.random.default_rng(0))
                                  if name == "batch_norm_eval"]
        with T.no_grad():
            assert not build_loss().requires_grad
        assert check_gradients(build_loss, tensors) < TOLERANCE
