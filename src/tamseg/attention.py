"""Cross-time attention module for motion-enhanced feature refinement.

Given T per-frame feature maps, the module refines each frame by attending
from it (queries) to every other frame (keys/values) over spatial positions,
gating the attention summary with a learned per-position confidence, fusing
it back with the original features through a local convolution, and
averaging the per-pair refinements. Output shapes equal input shapes, so the
module drops between any two layers of a segmentation backbone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .tensor import (BatchNormState, Tensor, batch_norm, concat, conv_nd,
                     matmul, mul, relu, reshape, scale, sigmoid, slice_axis,
                     softmax, transpose)

# Attention is quadratic in position count; the module is meant for coarse
# (deep) layers, so refuse grids that would silently allocate huge matrices.
MAX_POSITIONS = 4096


@dataclass(frozen=True)
class TamConfig:
    """Hyperparameters of one attention module instance."""

    channels: int
    d_embed: int
    heads: int = 4
    spatial_rank: int = 2

    def __post_init__(self):
        if self.spatial_rank not in (2, 3):
            raise ValidationError(f"spatial_rank must be 2 or 3, got {self.spatial_rank}")
        if self.heads < 1:
            raise ValidationError(f"heads must be >= 1, got {self.heads}")
        if self.d_embed < self.heads:
            raise ValidationError(f"d_embed ({self.d_embed}) must be >= heads ({self.heads})")
        if self.d_embed % self.heads:
            raise ValidationError(f"d_embed ({self.d_embed}) must be divisible by "
                                  f"heads ({self.heads})")
        if self.channels < 1:
            raise ValidationError("channels must be positive")


@dataclass
class FeatureStack:
    """Ordered per-frame feature maps, each (C, *spatial), sharing one shape."""

    frames: list[Tensor]

    def __post_init__(self):
        if len(self.frames) < 2:
            raise ValidationError(f"a feature stack needs T >= 2 frames, got {len(self.frames)}")
        shape = self.frames[0].shape
        for i, f in enumerate(self.frames):
            if f.shape != shape:
                raise ShapeError(f"frame {i} shape {f.shape} differs from frame 0 "
                                 f"shape {shape}")

    def __len__(self) -> int:
        return len(self.frames)


def _uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> Tensor:
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype),
                  requires_grad=True)


def _filled(n: int, value: float, dtype) -> Tensor:
    return Tensor(np.full(n, value, dtype=dtype), requires_grad=True)


class ParameterSet:
    """Parameter tensors and batch-norm running stats under checkpoint names.

    Each array is named once, where it is made: ``params`` maps a name to its
    tensor, ``stats`` maps a name to the (state, attribute) of one running
    statistic. Both keep creation order, so :meth:`named_parameters` lists
    the tensors in the order their initial values were drawn.
    """

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.stats: dict[str, tuple[BatchNormState, str]] = {}

    def param(self, name: str, tensor: Tensor) -> Tensor:
        self.params[name] = tensor
        return tensor

    def norm_state(self, prefix: str, state: BatchNormState) -> BatchNormState:
        """Name the running mean and variance of ``state`` ``prefix + attr``."""
        for attr in ("running_mean", "running_var"):
            self.stats[prefix + attr] = (state, attr)
        return state

    def named_parameters(self) -> dict[str, Tensor]:
        return dict(self.params)

    def parameter_count(self) -> int:
        return sum(t.size for t in self.params.values())

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Every parameter and running stat by name: the live arrays, not copies."""
        out = {name: t.data for name, t in self.params.items()}
        out.update({name: getattr(state, attr) for name, (state, attr) in self.stats.items()})
        return out

    def to_arrays(self) -> dict[str, np.ndarray]:
        """A copy of :meth:`named_arrays`, which later training leaves as it is."""
        return {name: arr.copy() for name, arr in self.named_arrays().items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy ``arrays[name]`` into every array, in place.

        Each value is converted to the dtype of the array it fills and must
        have its shape. The arrays stay the same objects, so an optimizer
        that holds them as views (``optim.Adam``) trains the loaded values.
        Every name is checked before any is written, so a rejected checkpoint
        changes nothing. Names the model does not have are ignored, so a
        checkpoint that still holds a since-deleted tensor (the attention
        module's key bias, say) loads.
        """
        current = self.named_arrays()
        loaded = {}
        for name, arr in current.items():
            if name not in arrays:
                raise ValidationError(f"checkpoint is missing tensor {name!r}")
            if np.shape(arrays[name]) != arr.shape:
                raise ShapeError(f"checkpoint tensor {name} has shape "
                                 f"{np.shape(arrays[name])}, expected {arr.shape}")
            loaded[name] = np.asarray(arrays[name], dtype=arr.dtype)
        for name, arr in current.items():
            arr[...] = loaded[name]


class TamParams(ParameterSet):
    """Learnable weights of one attention module instance, drawn from ``rng``.

    Query/key/value and output maps are position-wise (1x1) convolutions; the
    residual fusion is a 3x3 (3x3x3 in 3D) convolution followed by batch
    norm, so the fusion carries no bias of its own. Nor does the key map: a
    key bias adds q_i·b to every logit of query row i, a shift softmax
    cancels, so it would never reach the output.
    """

    def __init__(self, config: TamConfig, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        self.config = config
        c, d, rank = config.channels, config.d_embed, config.spatial_rank
        one = (1,) * rank
        self.w_q = self.param("w_q", _uniform(rng, (d, c) + one, c, dtype))
        self.b_q = self.param("b_q", _uniform(rng, (d,), c, dtype))
        self.w_k = self.param("w_k", _uniform(rng, (d, c) + one, c, dtype))
        # drawn and dropped where the key bias was drawn, so every later
        # initial weight stays where it was
        rng.uniform(size=d)
        self.w_v = self.param("w_v", _uniform(rng, (d, c) + one, c, dtype))
        self.b_v = self.param("b_v", _uniform(rng, (d,), c, dtype))
        self.w_g = self.param("w_g", _uniform(rng, (d, d) + one, d, dtype))
        self.b_g = self.param("b_g", _filled(d, 0.0, dtype))
        self.w_r = self.param("w_r", _uniform(rng, (c, c + d) + (3,) * rank,
                                              (c + d) * 3 ** rank, dtype))
        self.bn_gamma = self.param("bn_gamma", _filled(c, 1.0, dtype))
        self.bn_beta = self.param("bn_beta", _filled(c, 0.0, dtype))
        self.w_o = self.param("w_o", _uniform(rng, (c, c) + one, c, dtype))
        self.bn_state = self.norm_state("bn_", BatchNormState(c, dtype=dtype))


# -- the four stages ---------------------------------------------------------


def project_qkv(f_t: Tensor, params: TamParams) -> tuple[Tensor, Tensor, Tensor]:
    """Position-wise query/key/value projections, flattened to (d_embed, N)."""
    cfg = params.config
    if f_t.shape[0] != cfg.channels:
        raise ShapeError(f"feature map has {f_t.shape[0]} channels, "
                         f"config expects {cfg.channels}")
    n = math.prod(f_t.shape[1:])
    q = reshape(conv_nd(f_t, params.w_q, params.b_q), (cfg.d_embed, n))
    k = reshape(conv_nd(f_t, params.w_k), (cfg.d_embed, n))
    v = reshape(conv_nd(f_t, params.w_v, params.b_v), (cfg.d_embed, n))
    return q, k, v


def head_blocks(x: Tensor, heads: int, axis: int = 0) -> list[Tensor]:
    """Cut the embedding axis of ``x`` into ``heads`` contiguous blocks, one per head.

    Head h of a (d_embed, N) map is rows [h*w, (h+1)*w) with w = d_embed/heads;
    ``axis=1`` cuts the same heads as columns of a transposed (N, d_embed) map.
    """
    d = x.shape[axis]
    if d % heads:
        raise ShapeError(f"embedding width {d} not divisible by {heads} heads")
    if heads == 1:
        return [x]
    w = d // heads
    return [slice_axis(x, axis, h * w, (h + 1) * w) for h in range(heads)]


def _logits(q_rows: Tensor, k: Tensor) -> Tensor:
    return scale(matmul(q_rows, k), 1.0 / math.sqrt(k.shape[0]))


def head_attention(q_rows: Tensor, k: Tensor, v_rows: Tensor) -> Tensor:
    """Single-head attention from one frame's queries onto another's keys/values.

    Queries and values come as (N, width) rows, keys as a (width, N) map, the
    layouts the two matmuls consume, so a frame transposes its maps once for
    all its pairs. Softmax normalizes over key positions, so each query row
    of the (N, width) result is a convex combination of the value rows.
    """
    if q_rows.shape[1] != k.shape[0]:
        raise ShapeError(f"query width {q_rows.shape[1]} != key width {k.shape[0]}")
    return matmul(softmax(_logits(q_rows, k), axis=1), v_rows)


def pair_attention(q_heads: list[Tensor], k_heads: list[Tensor],
                   v_heads: list[Tensor]) -> Tensor:
    """Multi-head attention of one frame pair, restored to (d_embed, N).

    The operands are :func:`head_blocks` of a frame's transposed queries, of
    the other frame's keys and of its transposed values.
    """
    outs = [head_attention(q, k, v) for q, k, v in zip(q_heads, k_heads, v_heads)]
    return transpose(concat(outs, axis=1) if len(outs) > 1 else outs[0])


def gate_and_fuse(f_i: Tensor, a_multi: Tensor, params: TamParams,
                  training: bool = False) -> Tensor:
    """Self-gate the attention summary and fuse it back with the source frame.

    ``a_multi`` is the multi-head attention output restored to spatial layout
    (d_embed, *spatial). The sigmoid gate assigns a per-position confidence;
    the gated summary is concatenated onto ``f_i`` along channels and reduced
    back to C channels by the fusion convolution, batch norm, then ReLU.
    """
    if f_i.shape[1:] != a_multi.shape[1:]:
        raise ShapeError(f"spatial extents differ: frame {f_i.shape[1:]} vs "
                         f"attention {a_multi.shape[1:]}")
    gate = sigmoid(conv_nd(a_multi, params.w_g, params.b_g))
    gated = mul(a_multi, gate)
    combined = concat([f_i, gated], axis=0)
    fused = conv_nd(combined, params.w_r)
    return relu(batch_norm(fused, params.bn_gamma, params.bn_beta,
                           params.bn_state, training))


def check_positions(spatial, error) -> None:
    """Raise ``error`` if a ``spatial`` grid has more than ``MAX_POSITIONS``."""
    n = math.prod(spatial)
    if n > MAX_POSITIONS:
        raise error(f"attention over {n} positions exceeds the {MAX_POSITIONS} "
                    "guard; insert the module at a coarser layer")


def tam_forward(stack: FeatureStack, params: TamParams,
                training: bool = False) -> FeatureStack:
    """Refine every frame of ``stack`` with cross-time attention.

    For each target frame i, attention is computed against every other frame
    j, gated and fused to a per-pair refinement; the refinements are averaged
    over the T-1 contributing frames and passed through the output projection.
    Output frames keep their input shapes.
    """
    cfg = params.config
    t = len(stack)
    spatial = stack.frames[0].shape[1:]
    if len(spatial) != cfg.spatial_rank:
        raise ShapeError(f"stack has spatial rank {len(spatial)}, "
                         f"config expects {cfg.spatial_rank}")
    check_positions(spatial, ValidationError)

    # each frame's heads are cut once and shared by its T-1 pairs
    heads = []
    for f in stack.frames:
        q, k, v = project_qkv(f, params)
        heads.append((head_blocks(transpose(q), cfg.heads, axis=1),
                      head_blocks(k, cfg.heads),
                      head_blocks(transpose(v), cfg.heads, axis=1)))
    refined = []
    for i in range(t):
        q_i = heads[i][0]
        pair_sum = None
        for j in range(t):
            if j == i:
                continue
            _, k_j, v_j = heads[j]
            a_spatial = reshape(pair_attention(q_i, k_j, v_j), (cfg.d_embed,) + spatial)
            fused = gate_and_fuse(stack.frames[i], a_spatial, params, training)
            pair_sum = fused if pair_sum is None else pair_sum + fused
        avg = scale(pair_sum, 1.0 / (t - 1))
        refined.append(conv_nd(avg, params.w_o))
    return FeatureStack(frames=refined)
