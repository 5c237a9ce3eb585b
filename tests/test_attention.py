"""The cross-time attention module against an independent straight-line oracle.

The oracle below recomputes the whole module with plain loops and explicit
numpy arithmetic (no engine ops), including a naive six-deep convolution
loop, so agreement is meaningful evidence rather than a reimplementation of
the same code path.
"""

import math

import numpy as np
import pytest

from tamseg.attention import (MAX_POSITIONS, FeatureStack, TamConfig,
                              TamParams, gate_and_fuse,
                              head_attention, head_blocks, pair_attention,
                              project_qkv, tam_forward)
from tamseg.errors import ShapeError, ValidationError
from tamseg.tensor import (Tensor, backward, concat, conv_nd, matmul, mul,
                           reshape, scale, slice_axis, softmax, transpose, tsum)


def attention_logits(q: Tensor, k: Tensor) -> Tensor:
    """Scaled dot-product logits between all query and key positions.

    ``q`` and ``k`` are single-head (width, N) maps; entry (p, r) is the
    match between query position p and key position r, scaled by
    1/sqrt(width).
    """
    if q.shape[0] != k.shape[0]:
        raise ShapeError(f"query width {q.shape[0]} != key width {k.shape[0]}")
    return scale(matmul(transpose(q), k), 1.0 / math.sqrt(k.shape[0]))


def tam_oracle(frames, p, heads):
    """Straight-line eval-mode recomputation of the whole module (2D)."""
    t_n = len(frames)
    c = frames[0].shape[0]
    sp = frames[0].shape[1:]
    n = int(np.prod(sp))
    d = p["w_q"].shape[0]
    width = d // heads

    def conv1x1(x, w, b=None):
        y = w.reshape(w.shape[0], w.shape[1]) @ x.reshape(x.shape[0], n)
        if b is not None:
            y = y + b[:, None]
        return y

    def conv3x3_same(x, w):
        pad = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        out = np.zeros((w.shape[0],) + sp)
        for o in range(w.shape[0]):
            for i0 in range(sp[0]):
                for j0 in range(sp[1]):
                    acc = 0.0
                    for ci in range(x.shape[0]):
                        for ki in range(3):
                            for kj in range(3):
                                acc += w[o, ci, ki, kj] * pad[ci, i0 + ki, j0 + kj]
                    out[o, i0, j0] = acc
        return out

    proj = []
    for f in frames:
        proj.append((conv1x1(f, p["w_q"], p["b_q"]),
                     conv1x1(f, p["w_k"]),
                     conv1x1(f, p["w_v"], p["b_v"])))
    outs = []
    for i in range(t_n):
        q = proj[i][0]
        acc = np.zeros((c,) + sp)
        for j in range(t_n):
            if j == i:
                continue
            k, v = proj[j][1], proj[j][2]
            head_outs = []
            for h in range(heads):
                qh = q[h * width:(h + 1) * width]
                kh = k[h * width:(h + 1) * width]
                vh = v[h * width:(h + 1) * width]
                logits = qh.T @ kh / math.sqrt(width)
                e = np.exp(logits - logits.max(axis=1, keepdims=True))
                attn = e / e.sum(axis=1, keepdims=True)
                head_outs.append((attn @ vh.T).T)
            a = np.concatenate(head_outs, axis=0).reshape((d,) + sp)
            gate = 1.0 / (1.0 + np.exp(
                -conv1x1(a, p["w_g"], p["b_g"]).reshape((d,) + sp)))
            gated = a * gate
            comb = np.concatenate([frames[i], gated], axis=0)
            fused = conv3x3_same(comb, p["w_r"])
            rm, rv = p["bn_running_mean"], p["bn_running_var"]
            normed = (p["bn_gamma"][:, None, None] * (fused - rm[:, None, None])
                      / np.sqrt(rv[:, None, None] + 1e-5)
                      + p["bn_beta"][:, None, None])
            acc += np.maximum(normed, 0.0)
        avg = acc / (t_n - 1)
        outs.append(conv1x1(avg, p["w_o"]).reshape((c,) + sp))
    return outs


# -- the per-pair route the module used before its heads were cut once per
# frame; kept as the oracle its replacement must match byte for byte


def split_heads(x, heads):
    """(d_embed, N) -> (heads, d_embed/heads, N); contiguous row blocks become heads."""
    d, n = x.shape
    if d % heads:
        raise ShapeError(f"embedding width {d} not divisible by {heads} heads")
    return reshape(x, (heads, d // heads, n))


def cross_time_attention(q_i, k_j, v_j):
    """Single-head attention from frame i's (width, N) queries onto frame j."""
    weights = softmax(attention_logits(q_i, k_j), axis=1)
    return transpose(matmul(weights, transpose(v_j)))


def multi_head_attention(q_i, k_j, v_j, heads):
    """Per-head attention, concatenated back to the full embedding width."""
    qh = split_heads(q_i, heads)
    kh = split_heads(k_j, heads)
    vh = split_heads(v_j, heads)
    width = q_i.shape[0] // heads
    outs = []
    for h in range(heads):
        def head(x):
            return reshape(slice_axis(x, 0, h, h + 1), (width, x.shape[2]))
        outs.append(cross_time_attention(head(qh), head(kh), head(vh)))
    return concat(outs, axis=0) if heads > 1 else outs[0]


def tam_forward_per_pair(stack, params, training=False):
    """The module with every pair re-splitting and re-transposing its heads."""
    cfg = params.config
    t = len(stack)
    spatial = stack.frames[0].shape[1:]
    projections = [project_qkv(f, params) for f in stack.frames]
    refined = []
    for i in range(t):
        q_i = projections[i][0]
        pair_sum = None
        for j in range(t):
            if j == i:
                continue
            _, k_j, v_j = projections[j]
            a_multi = multi_head_attention(q_i, k_j, v_j, cfg.heads)
            a_spatial = reshape(a_multi, (cfg.d_embed,) + spatial)
            fused = gate_and_fuse(stack.frames[i], a_spatial, params, training)
            pair_sum = fused if pair_sum is None else pair_sum + fused
        avg = scale(pair_sum, 1.0 / (t - 1))
        refined.append(conv_nd(avg, params.w_o))
    return FeatureStack(frames=refined)


def make_params(rng, channels=8, d_embed=8, heads=2, randomize_bn=True):
    cfg = TamConfig(channels=channels, d_embed=d_embed, heads=heads,
                    spatial_rank=2)
    params = TamParams(cfg, rng, dtype=np.float64)
    if randomize_bn:
        # eval-mode BN with nontrivial running stats, so the oracle checks them too
        params.bn_state.running_mean = rng.uniform(-0.3, 0.3, size=channels)
        params.bn_state.running_var = rng.uniform(0.5, 1.5, size=channels)
    return cfg, params


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValidationError):
            TamConfig(channels=8, d_embed=10, heads=4)

    def test_rank_validated(self):
        with pytest.raises(ValidationError):
            TamConfig(channels=8, d_embed=8, heads=2, spatial_rank=4)

    def test_stack_needs_two_frames(self):
        with pytest.raises(ValidationError):
            FeatureStack(frames=[Tensor(np.zeros((2, 4, 4)))])

    def test_stack_shape_mismatch(self):
        with pytest.raises(ShapeError):
            FeatureStack(frames=[Tensor(np.zeros((2, 4, 4))),
                                 Tensor(np.zeros((2, 4, 5)))])


class TestProjections:
    def test_identity_weights_flatten_input(self):
        rng = np.random.default_rng(0)
        cfg, params = make_params(rng, channels=4, d_embed=4, heads=1)
        params.w_q.data = np.eye(4).reshape(4, 4, 1, 1)
        params.b_q.data = np.zeros(4)
        f = Tensor(rng.normal(size=(4, 3, 3)))
        q, _, _ = project_qkv(f, params)
        np.testing.assert_allclose(q.data, f.data.reshape(4, 9))

    def test_shapes(self):
        rng = np.random.default_rng(1)
        cfg, params = make_params(rng, channels=8, d_embed=16, heads=4)
        f = Tensor(rng.normal(size=(8, 4, 4)))
        q, k, v = project_qkv(f, params)
        assert q.shape == k.shape == v.shape == (16, 16)

    def test_column_is_per_position_matvec(self):
        rng = np.random.default_rng(2)
        cfg, params = make_params(rng, channels=5, d_embed=6, heads=2)
        f = rng.normal(size=(5, 2, 3))
        q, _, _ = project_qkv(Tensor(f), params)
        w = params.w_q.data.reshape(6, 5)
        flat = f.reshape(5, 6)
        for pos in range(6):
            np.testing.assert_allclose(q.data[:, pos],
                                       w @ flat[:, pos] + params.b_q.data,
                                       rtol=1e-12)

    def test_channel_mismatch(self):
        rng = np.random.default_rng(3)
        cfg, params = make_params(rng)
        with pytest.raises(ShapeError):
            project_qkv(Tensor(rng.normal(size=(5, 4, 4))), params)


class TestHeads:
    def test_single_head_is_identity(self):
        x = Tensor(np.random.default_rng(4).normal(size=(6, 10)))
        (only,) = head_blocks(x, 1)
        np.testing.assert_allclose(only.data, x.data)

    def test_contiguous_blocks(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        h = [b.data for b in head_blocks(x, 2)]
        np.testing.assert_allclose(h[0], x.data[:2])  # rows {0,1} -> head 0
        np.testing.assert_allclose(h[1], x.data[2:])  # rows {2,3} -> head 1

    def test_round_trip(self):
        x = Tensor(np.random.default_rng(5).normal(size=(8, 7)))
        np.testing.assert_allclose(concat(head_blocks(x, 4), axis=0).data, x.data)
        rows = transpose(x)
        np.testing.assert_allclose(concat(head_blocks(rows, 4, axis=1), axis=1).data,
                                   rows.data)

    def test_non_divisible(self):
        with pytest.raises(ShapeError):
            head_blocks(Tensor(np.zeros((5, 4))), 2)


def attend(q, k, v):
    """:func:`head_attention` on (width, N) maps, returning (width, N)."""
    return transpose(head_attention(transpose(q), k, transpose(v)))


class TestCrossTimeAttention:
    def test_single_key_position_copies_value(self):
        rng = np.random.default_rng(6)
        q = Tensor(rng.normal(size=(3, 1)))
        k = Tensor(rng.normal(size=(3, 1)))
        v = Tensor(rng.normal(size=(3, 1)))
        out = attend(q, k, v)
        np.testing.assert_allclose(out.data, v.data, rtol=1e-12)

    def test_identical_keys_give_value_mean(self):
        rng = np.random.default_rng(7)
        q = Tensor(rng.normal(size=(2, 5)))
        k = Tensor(np.tile(rng.normal(size=(2, 1)), (1, 5)))
        v = Tensor(rng.normal(size=(2, 5)))
        out = attend(q, k, v)
        expected = np.tile(v.data.mean(axis=1, keepdims=True), (1, 5))
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_two_position_hand_computation(self):
        # width 1, two positions; weights written out with explicit exp calls
        q = Tensor(np.array([[1.0, 2.0]]))
        k = Tensor(np.array([[0.5, 1.0]]))
        v = Tensor(np.array([[3.0, 5.0]]))
        out = attend(q, k, v).data

        def row(logit_a, logit_b):
            ea, eb = math.exp(logit_a), math.exp(logit_b)
            return ea / (ea + eb), eb / (ea + eb)

        w00, w01 = row(1.0 * 0.5, 1.0 * 1.0)  # query pos 0, scale sqrt(1)=1
        w10, w11 = row(2.0 * 0.5, 2.0 * 1.0)  # query pos 1
        np.testing.assert_allclose(out[0, 0], w00 * 3.0 + w01 * 5.0, rtol=1e-12)
        np.testing.assert_allclose(out[0, 1], w10 * 3.0 + w11 * 5.0, rtol=1e-12)

    def test_weights_normalize_per_query(self):
        rng = np.random.default_rng(8)
        q = Tensor(rng.normal(size=(4, 9)) * 3)
        k = Tensor(rng.normal(size=(4, 9)) * 3)
        weights = softmax(attention_logits(q, k), axis=1).data
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(9), atol=1e-6)

    def test_logits_scale_quadratically(self):
        # scaling q and k by s multiplies every pre-softmax logit by s^2 exactly
        rng = np.random.default_rng(9)
        q = rng.normal(size=(3, 6))
        k = rng.normal(size=(3, 6))
        base = attention_logits(Tensor(q), Tensor(k)).data
        scaled = attention_logits(Tensor(2.0 * q), Tensor(2.0 * k)).data
        np.testing.assert_allclose(scaled, 4.0 * base, rtol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            attention_logits(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4))))
        with pytest.raises(ShapeError):
            head_attention(Tensor(np.zeros((4, 3))), Tensor(np.zeros((2, 4))),
                           Tensor(np.zeros((4, 3))))

    def test_multi_head_matches_per_head_assembly(self):
        rng = np.random.default_rng(10)
        q, k, v = (Tensor(rng.normal(size=(8, 5))) for _ in range(3))
        got = pair_attention(head_blocks(transpose(q), 4, axis=1), head_blocks(k, 4),
                             head_blocks(transpose(v), 4, axis=1)).data
        for h in range(4):
            sl = slice(2 * h, 2 * h + 2)
            single = attend(Tensor(q.data[sl]), Tensor(k.data[sl]),
                            Tensor(v.data[sl])).data
            np.testing.assert_allclose(got[sl], single, rtol=1e-12)


class TestGateAndFuse:
    def _setup(self, seed=11):
        rng = np.random.default_rng(seed)
        cfg, params = make_params(rng, channels=4, d_embed=4, heads=2)
        f = Tensor(rng.normal(size=(4, 3, 3)))
        a = Tensor(rng.normal(size=(4, 3, 3)))
        return rng, params, f, a

    def test_saturated_gate_passes_attention_through(self):
        rng, params, f, a = self._setup()
        params.w_g.data = np.zeros_like(params.w_g.data)
        params.b_g.data = np.full(4, 40.0)  # sigmoid(40) == 1 to double precision
        open_out = gate_and_fuse(f, a, params).data

        params.b_g.data = np.full(4, -40.0)  # closed gate: summary zeroed
        closed_out = gate_and_fuse(f, a, params).data
        a2 = Tensor(a.data + rng.normal(size=a.shape))
        closed_out2 = gate_and_fuse(f, a2, params).data
        # with the gate closed the attention summary cannot reach the output
        np.testing.assert_allclose(closed_out, closed_out2, atol=1e-12)
        assert np.max(np.abs(open_out - closed_out)) > 1e-3

    def test_gate_values_are_sigmoid_of_projection(self):
        rng, params, f, a = self._setup(12)
        w = params.w_g.data.reshape(4, 4)
        pre = (w @ a.data.reshape(4, 9) + params.b_g.data[:, None])
        expected_gate = 1.0 / (1.0 + np.exp(-pre))
        # recover the gate by feeding a saturating copy through the module is
        # indirect; instead check the module output against a manual recompute
        from tamseg.tensor import conv_nd
        gated = a.data.reshape(4, 9) * expected_gate
        comb = np.concatenate([f.data, gated.reshape(4, 3, 3)], axis=0)
        fused = conv_nd(Tensor(comb), params.w_r).data
        rm = params.bn_state.running_mean
        rv = params.bn_state.running_var
        normed = (params.bn_gamma.data[:, None, None]
                  * (fused - rm[:, None, None]) / np.sqrt(rv[:, None, None] + 1e-5)
                  + params.bn_beta.data[:, None, None])
        np.testing.assert_allclose(gate_and_fuse(f, a, params).data,
                                   np.maximum(normed, 0.0), rtol=1e-10)

    def test_spatial_mismatch(self):
        rng, params, f, a = self._setup(13)
        with pytest.raises(ShapeError):
            gate_and_fuse(f, Tensor(np.zeros((4, 2, 3))), params)


class TestTamForward:
    def test_matches_straight_line_oracle(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cfg, params = make_params(rng)
            frames_np = [rng.standard_normal((8, 4, 4)) for _ in range(2)]
            got = tam_forward(FeatureStack([Tensor(f) for f in frames_np]),
                              params, training=False)
            want = tam_oracle(frames_np, params.to_arrays(), cfg.heads)
            for g, w in zip(got.frames, want):
                worst = max(worst, float(np.max(np.abs(g.data - w))))
        assert worst < 1e-6

    def test_oracle_holds_for_three_frames(self):
        rng = np.random.default_rng(99)
        cfg, params = make_params(rng)
        frames_np = [rng.standard_normal((8, 4, 4)) for _ in range(3)]
        got = tam_forward(FeatureStack([Tensor(f) for f in frames_np]), params)
        want = tam_oracle(frames_np, params.to_arrays(), cfg.heads)
        for g, w in zip(got.frames, want):
            np.testing.assert_allclose(g.data, w, atol=1e-9)

    @pytest.mark.parametrize("t", [2, 3, 5])
    @pytest.mark.parametrize("heads", [1, 2, 4, 8])
    def test_shape_preservation(self, t, heads):
        rng = np.random.default_rng(100 + t + heads)
        cfg, params = make_params(rng, channels=8, d_embed=8, heads=heads)
        frames = [Tensor(rng.standard_normal((8, 4, 4))) for _ in range(t)]
        out = tam_forward(FeatureStack(frames), params)
        assert len(out) == t
        for f in out.frames:
            assert f.shape == (8, 4, 4)

    def test_contributing_frame_order_is_irrelevant(self):
        # the average over j != i is commutative; swapping contributors
        # must leave the target frame's refinement unchanged
        rng = np.random.default_rng(14)
        cfg, params = make_params(rng)
        f0, f1, f2 = [rng.standard_normal((8, 4, 4)) for _ in range(3)]
        out_a = tam_forward(FeatureStack([Tensor(f0), Tensor(f1), Tensor(f2)]),
                            params)
        out_b = tam_forward(FeatureStack([Tensor(f0), Tensor(f2), Tensor(f1)]),
                            params)
        a, b = out_a.frames[0].data, out_b.frames[0].data
        rel = np.max(np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-8))
        assert rel < 1e-5

    def test_single_head_equals_direct_formula(self):
        rng = np.random.default_rng(15)
        cfg, params = make_params(rng, channels=6, d_embed=6, heads=1)
        frames_np = [rng.standard_normal((6, 3, 3)) for _ in range(2)]
        got = tam_forward(FeatureStack([Tensor(f) for f in frames_np]), params)
        want = tam_oracle(frames_np, params.to_arrays(), heads=1)
        for g, w in zip(got.frames, want):
            np.testing.assert_allclose(g.data, w, atol=1e-9)

    def test_position_guard(self):
        rng = np.random.default_rng(17)
        cfg, params = make_params(rng, channels=2, d_embed=2, heads=1)
        big = int(np.ceil(np.sqrt(MAX_POSITIONS))) + 1
        frames = [Tensor(np.zeros((2, big, big))) for _ in range(2)]
        with pytest.raises(ValidationError, match="positions"):
            tam_forward(FeatureStack(frames), params)

    def test_gradients_flow_to_all_live_parameters(self):
        rng = np.random.default_rng(18)
        cfg, params = make_params(rng)
        frames = [Tensor(rng.standard_normal((8, 4, 4)), requires_grad=True)
                  for _ in range(2)]
        out = tam_forward(FeatureStack(frames), params, training=True)
        backward(tsum(out.frames[0]) + tsum(out.frames[1]))
        for name, t in params.named_parameters().items():
            assert t.grad is not None and np.any(t.grad.data != 0), name
        for f in frames:
            assert f.grad is not None


class TestMatchesPerPairRoute:
    """The module against :func:`tam_forward_per_pair`, byte for byte.

    Cutting heads once per frame moves no arithmetic: every matmul, softmax
    and gradient sum sees the same operands in the same order, so outputs,
    gradients and batch-norm running stats must agree in every bit.
    """

    @staticmethod
    def _run(forward, cfg, arrays, frames_np, weights_np):
        params = TamParams(cfg, np.random.default_rng(0), dtype=arrays["w_q"].dtype)
        params.load_arrays(arrays)
        frames = [Tensor(f, requires_grad=True) for f in frames_np]
        out = forward(FeatureStack(list(frames)), params, training=True)
        loss = None
        for f, w in zip(out.frames, weights_np):
            term = tsum(mul(f, Tensor(w)))
            loss = term if loss is None else loss + term
        backward(loss)
        got = {f"out_{i}": f.data for i, f in enumerate(out.frames)}
        got.update({f"grad_frame_{i}": f.grad.data for i, f in enumerate(frames)})
        got.update({f"grad_{name}": t.grad.data
                    for name, t in params.named_parameters().items()})
        got["bn_running_mean"] = params.bn_state.running_mean
        got["bn_running_var"] = params.bn_state.running_var
        return got

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_bit_identical(self, t, heads, dtype):
        rng = np.random.default_rng(1000 + 10 * t + heads)
        cfg = TamConfig(channels=6, d_embed=8, heads=heads, spatial_rank=2)
        arrays = TamParams(cfg, rng, dtype=dtype).to_arrays()
        frames_np = [rng.standard_normal((6, 3, 5)).astype(dtype) for _ in range(t)]
        weights_np = [rng.standard_normal((6, 3, 5)).astype(dtype) for _ in range(t)]
        want = self._run(tam_forward_per_pair, cfg, arrays, frames_np, weights_np)
        got = self._run(tam_forward, cfg, arrays, frames_np, weights_np)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].dtype == want[name].dtype == dtype, name
            assert got[name].shape == want[name].shape, name
            assert got[name].tobytes() == want[name].tobytes(), name


class TestParamSerialization:
    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(21)
        _, params = make_params(rng)
        arrays = params.to_arrays()
        arrays["w_q"] = arrays["w_q"][:, :4]
        with pytest.raises(ShapeError):
            params.load_arrays(arrays)

    def test_running_stat_shape_mismatch_rejected(self):
        _, params = make_params(np.random.default_rng(22))
        arrays = params.to_arrays()
        arrays["bn_running_mean"] = np.zeros(3)
        with pytest.raises(ShapeError, match="bn_running_mean"):
            params.load_arrays(arrays)

    def test_missing_tensor_rejected(self):
        _, params = make_params(np.random.default_rng(23))
        before = {k: v.copy() for k, v in params.to_arrays().items()}
        _, other = make_params(np.random.default_rng(24))
        arrays = other.to_arrays()
        del arrays["w_o"]
        with pytest.raises(ValidationError, match="w_o"):
            params.load_arrays(arrays)
        for name, arr in params.to_arrays().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_loaded_arrays_are_copies(self):
        _, params = make_params(np.random.default_rng(25))
        _, other = make_params(np.random.default_rng(26))
        arrays = {k: v.copy() for k, v in other.to_arrays().items()}
        params.load_arrays(arrays)
        for name, arr in params.to_arrays().items():
            assert not np.shares_memory(arr, arrays[name]), name

    def test_initial_weights_follow_a_skipped_key_bias_draw(self):
        # the key map's bias was drawn after w_k; its draw stays, so every
        # later initial weight is where it was before the bias went
        params = TamParams(TamConfig(channels=8, d_embed=4, heads=2),
                           np.random.default_rng(3), dtype=np.float64)
        rng = np.random.default_rng(3)
        bound = 1.0 / math.sqrt(8)
        for shape in ((4, 8, 1, 1), (4,), (4, 8, 1, 1), (4,)):
            rng.uniform(-bound, bound, size=shape)
        assert params.w_v.data.tobytes() == \
            rng.uniform(-bound, bound, size=(4, 8, 1, 1)).tobytes()

    def test_parameter_count(self):
        cfg = TamConfig(channels=8, d_embed=8, heads=2)
        params = TamParams(cfg, np.random.default_rng(0))
        c, d = 8, 8
        expected = 3 * d * c + 2 * d        # q/k/v projections, q and v biased
        expected += d * d + d               # gate
        expected += c * (c + d) * 9         # 3x3 fusion
        expected += 2 * c                   # bn gamma/beta
        expected += c * c                   # output projection
        assert params.parameter_count() == expected
