"""N-dimensional float tensors with reverse-mode automatic differentiation.

The engine is deliberately small and auditable: values live in contiguous
numpy arrays, every differentiable operation records its inputs and a
backward closure on the produced tensor, and ``backward`` replays the
recorded graph once, in reverse topological order.

Two rules keep the gradient code simple enough to verify by hand:

* no implicit broadcasting: binary operations accept operands of exactly
  equal shape, or a plain Python number (callers reshape explicitly);
* only float32/float64 tensors exist, and both operands of a binary
  operation must share a dtype.

Multiply-accumulate counts for ``matmul`` and ``conv_nd`` are recorded on
an active :class:`MacCounter` (see :func:`count_macs`), which the analytic
cost model is tested against. Under :func:`no_grad` ops record no graph, so
an inference forward keeps only its outputs alive.
"""

from __future__ import annotations

import functools
import math
import threading
from contextlib import contextmanager
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import NumericError, ShapeError

FLOAT_DTYPES = (np.float32, np.float64)
_FLOAT_DTYPES = frozenset(np.dtype(t) for t in FLOAT_DTYPES)


def _as_dtype(dtype) -> np.dtype:
    dt = np.dtype(dtype)
    if dt not in _FLOAT_DTYPES:
        raise ValueError(f"unsupported tensor dtype {dt}; only float32/float64")
    return dt


class Tensor:
    """A contiguous row-major N-D float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        if dtype is None:
            dtype = (data.dtype if isinstance(data, np.ndarray)
                     and data.dtype in _FLOAT_DTYPES else np.float64)
        # asarray with order="C" keeps 0-d scalars 0-d (ascontiguousarray
        # would promote them to shape (1,))
        arr = np.asarray(data, dtype=_as_dtype(dtype), order="C")
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Tensor | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._op = "leaf"

    # -- basic properties ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{grad}, op={self._op})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return recip(self) * other

    def __neg__(self):
        return neg(self)


# -- graph machinery -------------------------------------------------------


def _wrap(data: np.ndarray) -> Tensor:
    """Untracked tensor over ``data`` as is; the caller guarantees the invariants."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out._parents = ()
    out._backward = None
    out._op = "leaf"
    return out


def _result(data: np.ndarray, parents: Sequence[Tensor], backward_fn, op: str) -> Tensor:
    # an op's output is almost always a fresh C-contiguous float array already,
    # which the constructor would only re-check; anything else it normalizes
    if (type(data) is np.ndarray and data.flags.c_contiguous
            and data.dtype in _FLOAT_DTYPES):
        out = _wrap(data)
    else:
        out = Tensor(data, dtype=data.dtype)
    out._op = op
    if getattr(_LOCAL, "no_grad", False):
        return out
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward_fn
            break
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = _wrap(np.zeros(t.data.shape, t.data.dtype))
    t.grad.data += g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    ``loss`` must be scalar. Gradients accumulate across calls until a
    tensor's ``grad`` is set back to None. The graph is freed as it is swept,
    so each graph backpropagates once.
    """
    if loss.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing to backpropagate "
                         "(it was made under tensor.no_grad() or from tensors "
                         "that do not require grad)")
    if loss.grad is None:
        loss.grad = Tensor(np.zeros_like(loss.data))
    loss.grad.data += np.ones_like(loss.data)
    # iterative depth-first topological order (parents before children), so
    # graphs deeper than the recursion limit work
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
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
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad.data)
            node._backward = None
            node._parents = ()


def assert_finite(t: Tensor, what: str = "tensor") -> Tensor:
    """Raise :class:`NumericError` if ``t`` holds any NaN or Inf."""
    if not np.isfinite(t.data).all():
        bad = int(np.size(t.data) - np.isfinite(t.data).sum())
        raise NumericError(f"{what} contains {bad} non-finite value(s) (op={t._op})")
    return t


# per-thread engine state: the no_grad flag and the MAC counter stack
_LOCAL = threading.local()


@contextmanager
def no_grad():
    """Context manager under which ops on this thread record no graph.

    Outputs made inside it carry no parents, no backward closure and
    ``requires_grad`` False, so nothing but the outputs themselves stays
    alive; shape checks and MAC counts are unchanged. It nests, and the
    previous setting returns when the body exits, also by an exception.
    """
    before = getattr(_LOCAL, "no_grad", False)
    _LOCAL.no_grad = True
    try:
        yield
    finally:
        _LOCAL.no_grad = before


# -- MAC instrumentation -----------------------------------------------------


class MacCounter:
    """Accumulates multiply-accumulate counts of matmul/conv executions."""

    def __init__(self):
        self.total = 0


@contextmanager
def count_macs():
    """Context manager yielding a :class:`MacCounter` active on this thread."""
    counter = MacCounter()
    stack = getattr(_LOCAL, "mac_stack", None)
    if stack is None:
        stack = _LOCAL.mac_stack = []
    stack.append(counter)
    try:
        yield counter
    finally:
        stack.pop()


def _count(n: int) -> None:
    stack = getattr(_LOCAL, "mac_stack", None)
    if stack:
        stack[-1].total += n


# -- shape/dtype checks ------------------------------------------------------


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: operand shapes {a.shape} and {b.shape} differ "
                         "(no implicit broadcasting)")
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: operand dtypes {a.dtype} and {b.dtype} differ")


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


# -- elementwise ops ---------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    if _is_number(b):
        return shift(a, float(b))
    _check_same_shape(a, b, "add")

    def back(g):
        _accum(a, g)
        _accum(b, g)

    return _result(a.data + b.data, (a, b), back, "add")


def sub(a: Tensor, b) -> Tensor:
    if _is_number(b):
        return shift(a, -float(b))
    _check_same_shape(a, b, "sub")

    def back(g):
        _accum(a, g)
        _accum(b, -g)

    return _result(a.data - b.data, (a, b), back, "sub")


def mul(a: Tensor, b) -> Tensor:
    """Hadamard product (or scaling when ``b`` is a Python number)."""
    if _is_number(b):
        return scale(a, float(b))
    _check_same_shape(a, b, "mul")

    def back(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _result(a.data * b.data, (a, b), back, "mul")


def div(a: Tensor, b) -> Tensor:
    if _is_number(b):
        return scale(a, 1.0 / float(b))
    _check_same_shape(a, b, "div")

    def back(g):
        _accum(a, g / b.data)
        _accum(b, -g * a.data / (b.data * b.data))

    return _result(a.data / b.data, (a, b), back, "div")


def recip(a: Tensor) -> Tensor:
    out_data = 1.0 / a.data

    def back(g):
        _accum(a, -g * out_data * out_data)

    return _result(out_data, (a,), back, "recip")


def neg(a: Tensor) -> Tensor:
    def back(g):
        _accum(a, -g)

    return _result(-a.data, (a,), back, "neg")


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def back(g):
        _accum(a, g * s)

    return _result(a.data * np.asarray(s, dtype=a.dtype), (a,), back, "scale")


def shift(a: Tensor, c: float) -> Tensor:
    def back(g):
        _accum(a, g)

    return _result(a.data + np.asarray(float(c), dtype=a.dtype), (a,), back, "shift")


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def back(g):
        _accum(a, g * mask)

    # maximum, not where(mask, ...): NaN must propagate, not flush to zero
    return _result(np.maximum(a.data, 0), (a,), back, "relu")


def sigmoid(a: Tensor) -> Tensor:
    # Stable two-branch evaluation keeps exp arguments non-positive.
    x = a.data
    e = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out_data = out_data.astype(a.dtype, copy=False)

    def back(g):
        _accum(a, g * out_data * (1.0 - out_data))

    return _result(out_data, (a,), back, "sigmoid")


def log(a: Tensor) -> Tensor:
    def back(g):
        _accum(a, g / a.data)

    return _result(np.log(a.data), (a,), back, "log")


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only where a is inside."""
    inside = (a.data >= lo) & (a.data <= hi)

    def back(g):
        _accum(a, g * inside)

    return _result(np.clip(a.data, lo, hi), (a,), back, "clip")


# -- reductions ---------------------------------------------------------------


def tsum(a: Tensor) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    def back(g):
        _accum(a, np.broadcast_to(g, a.shape).astype(a.dtype, copy=False))

    return _result(np.asarray(a.data.sum(), dtype=a.dtype), (a,), back, "sum")


def mean(a: Tensor) -> Tensor:
    """Mean of all elements, as a 0-d tensor."""
    return scale(tsum(a), 1.0 / a.size)


# -- structural ops -----------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in (shape if isinstance(shape, Iterable) else (shape,)))
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}")

    def back(g):
        _accum(a, g.reshape(a.shape))

    return _result(a.data.reshape(shape), (a,), back, "reshape")


def transpose(a: Tensor) -> Tensor:
    """Reverse the axes; for a matrix, its transpose."""
    def back(g):
        _accum(a, np.ascontiguousarray(g.transpose()))

    return _result(np.ascontiguousarray(a.data.transpose()), (a,), back, "transpose")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    ax = axis if axis >= 0 else axis + tensors[0].ndim
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != len(base) or other[:ax] + other[ax + 1:] != base[:ax] + base[ax + 1:]:
            raise ShapeError(f"concat: shapes {tensors[0].shape} and {t.shape} "
                             f"incompatible along axis {axis}")
        if t.dtype != tensors[0].dtype:
            raise ShapeError("concat: dtypes differ")

    def back(g):
        start = 0
        for t in tensors:
            stop = start + t.shape[ax]
            idx = tuple(slice(None) if d != ax else slice(start, stop) for d in range(g.ndim))
            _accum(t, np.ascontiguousarray(g[idx]))
            start = stop

    return _result(np.concatenate([t.data for t in tensors], axis=ax),
                   tuple(tensors), back, "concat")


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    ax = axis if axis >= 0 else axis + a.ndim
    if not (0 <= start < stop <= a.shape[ax]):
        raise ShapeError(f"slice [{start}:{stop}] out of range for axis {axis} "
                         f"of shape {a.shape}")
    idx = tuple(slice(None) if d != ax else slice(start, stop) for d in range(a.ndim))

    def back(g):
        full = np.zeros(a.shape, a.dtype)
        full[idx] = g
        _accum(a, full)

    return _result(np.ascontiguousarray(a.data[idx]), (a,), back, "slice")


# -- matmul / softmax ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.shape} and {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul: operand dtypes {a.dtype} and {b.dtype} differ")
    _count(a.shape[0] * a.shape[1] * b.shape[1])

    def back(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _result(a.data @ b.data, (a, b), back, "matmul")


def softmax(a: Tensor, axis: int) -> Tensor:
    ax = axis if axis >= 0 else axis + a.ndim
    if not 0 <= ax < a.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=ax, keepdims=True)

    def back(g):
        inner = (g * out_data).sum(axis=ax, keepdims=True)
        _accum(a, out_data * (g - inner))

    return _result(out_data.astype(a.dtype, copy=False), (a,), back, "softmax")


# -- convolution ---------------------------------------------------------------


# Elements of im2col columns gathered per GEMM tile. 2**16 elements are
# 256 KiB of float32, about one core's L2 cache, so a tile's columns are still
# cached when the matmul reads them; the whole-layer column matrix (tens of
# MiB at 128x128 in 3D) would stream through memory twice and raise peak RSS.
CONV_TILE_ELEMS = 2 ** 16


class _ConvPlan(NamedTuple):
    """Everything about one convolution that depends only on shapes."""

    out_shape: tuple[int, ...]       # (C_out, *spatial)
    out_tiles: tuple[int, int, int]  # (C_out, leading output positions, rows * width)
    # padded input shape, or None for a pointwise kernel (every extent 1): it
    # needs no pad and reads every input position once, so the input viewed
    # as (C_in, *out_tiles[1:]) is its own im2col matrix
    padded: tuple[int, ...] | None
    crop: tuple[slice, ...]          # the input's place in the padded array
    # shape of the column source: the (C_in, *k, *out) window view of the
    # padded input, whose strides in elements are win_strides, or for a
    # pointwise kernel the input as (C_in, *out_tiles[1:])
    src_shape: tuple[int, ...]
    win_strides: tuple[int, ...]
    col_rows: int                    # C_in * prod(k)
    # (flat leading index, column-source index, output column slice,
    #  column-gradient shape) per tile
    tiles: tuple[tuple[int, tuple, slice, tuple[int, ...]], ...]
    # column-gradient indices, one per in-plane kernel offset: a tile holds
    # one index of each leading output axis, so the kernel offsets along
    # those axes write disjoint planes and one strided add covers them all
    offsets: tuple[tuple, ...]
    bias_shape: tuple[int, ...]      # (C_out, 1, ...), broadcast over the output
    spatial_axes: tuple[int, ...]
    macs: int


# Distinct (input, kernel, bias) shape combinations a model uses number a few
# dozen; the bound only keeps a shape sweep from growing the cache without
# limit.
CONV_PLAN_CACHE = 256


@functools.lru_cache(maxsize=CONV_PLAN_CACHE)
def _conv_plan(x_shape, k_shape, b_shape) -> _ConvPlan:
    """Check the operand shapes and plan the convolution; ``b_shape`` is None without bias."""
    spatial = x_shape[1:]
    rank = len(spatial)
    if len(k_shape) != rank + 2:
        raise ShapeError(f"conv: kernel rank {len(k_shape) - 2} does not match input "
                         f"spatial rank {rank} (input {x_shape}, kernel {k_shape})")
    if rank not in (2, 3):
        raise ShapeError(f"conv: only 2 or 3 spatial dims supported, got {rank}")
    c_out, c_in, *kshape = k_shape
    if c_in != x_shape[0]:
        raise ShapeError(f"conv: input has {x_shape[0]} channels but kernel expects {c_in}")
    if b_shape is not None and b_shape != (c_out,):
        raise ShapeError(f"conv: bias shape {b_shape} != ({c_out},)")
    # "same" at stride 1: k - 1 pad per axis, the odd one after
    padded = (c_in,) + tuple(n + k - 1 for n, k in zip(spatial, kshape))
    crop = (slice(None),) + tuple(slice((k - 1) // 2, (k - 1) // 2 + n)
                                  for n, k in zip(spatial, kshape))
    # C-contiguous element strides of the padded array
    steps = tuple(math.prod(padded[d + 1:]) for d in range(len(padded)))
    col_rows = c_in * math.prod(kshape)
    rows, width = spatial[-2:]
    leads = math.prod(spatial[:-2])
    pointwise = all(k == 1 for k in kshape)
    block = max(1, CONV_TILE_ELEMS // (col_rows * width))
    tiles = []
    for flat, lead in enumerate(np.ndindex(*spatial[:-2])):
        for r0 in range(0, rows, block):
            r1 = min(r0 + block, rows)
            cols = slice(r0 * width, r1 * width)
            if pointwise:
                tiles.append((flat, (slice(None), flat, cols), cols,
                              (c_in, (r1 - r0) * width)))
            else:
                tiles.append((flat, (Ellipsis,) + lead + (slice(r0, r1), slice(None)),
                              cols, (c_in, *kshape, r1 - r0, width)))
    return _ConvPlan(
        out_shape=(c_out, *spatial),
        out_tiles=(c_out, leads, rows * width),
        padded=None if pointwise else padded,
        crop=crop,
        src_shape=(c_in, leads, rows * width) if pointwise else (c_in, *kshape, *spatial),
        win_strides=steps + steps[1:],
        col_rows=col_rows,
        tiles=tuple(tiles),
        offsets=(((Ellipsis,),) if pointwise
                 else tuple((slice(None),) * (rank - 1) + off
                            for off in np.ndindex(*kshape[-2:]))),
        bias_shape=(c_out,) + (1,) * rank,
        spatial_axes=tuple(range(1, rank + 1)),
        macs=col_rows * c_out * math.prod(spatial))


def _columns(a: np.ndarray, plan: _ConvPlan) -> np.ndarray:
    """View of a C-contiguous padded (C, *spatial) array whose tiles are im2col columns.

    Indexing it with a tile's column-source index and reshaping the result
    to (C * prod(k), tile) gives that tile's im2col columns. For a pointwise
    plan it is the array itself as (C, leads, rows * width). Otherwise it is
    the (C, *k, *out) window view: entry [c, *off, *pos] is
    ``a[c, *(pos + off)]``, and for one fixed kernel offset the view holds
    distinct elements. Building it on ``a`` as a buffer checks that the view
    stays inside ``a``.
    """
    if plan.padded is None:
        return a.reshape(plan.src_shape)
    return np.ndarray(plan.src_shape, a.dtype, buffer=a,
                      strides=tuple(s * a.itemsize for s in plan.win_strides))


def conv_nd(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Cross-correlation of a (C_in, *spatial) input with a (C_out, C_in, *k) kernel.

    Supports 2 or 3 spatial dimensions. The correlation is "same" at stride
    1: the output keeps the input's extents, and each axis is zero-padded by
    ``(k - 1) // 2`` before and the rest of ``k - 1`` after. The kernel is not
    flipped.

    The convolution is an im2col GEMM (Chellapilla et al. 2006, "High
    Performance Convolutional Neural Networks for Document Processing"), tiled
    over the output: leading output axes one index at a time, axis -2 in
    blocks of rows, the last block possibly ragged. Each tile gathers its
    (C_in * prod(k), tile) column matrix from a strided window view of the
    padded input and makes one matmul into its block of the output. Rows per
    block keep a tile's columns near ``CONV_TILE_ELEMS`` elements, an L2-sized
    budget, so no layer's whole column matrix is built. The backward walks the
    same tiles and recomputes their columns from the padded input:
    ``dW += g_tile @ cols.T``, and ``dcols = W.T @ g_tile`` is scattered into
    the padded input gradient (col2im) with one strided add per in-plane
    kernel offset, which covers every offset along the leading axes at once.

    The shape-only part of this (shape checks, pads, tile list) is planned
    once per shape combination and cached. A pointwise (1x1) kernel needs no
    pad and reads its columns straight from the input, with no window view.
    """
    plan = _conv_plan(x.data.shape, kernel.data.shape,
                      None if bias is None else bias.data.shape)
    if plan.padded is None:
        x_pad = x.data
    else:
        x_pad = np.zeros(plan.padded, dtype=x.dtype)
        x_pad[plan.crop] = x.data
    src = _columns(x_pad, plan)
    col_rows = plan.col_rows
    w_cols = kernel.data.reshape(-1, col_rows)

    out_data = np.empty(plan.out_tiles, dtype=x.dtype)
    for flat, idx, cols, _ in plan.tiles:
        np.matmul(w_cols, src[idx].reshape(col_rows, -1), out=out_data[:, flat, cols])
    out_data = out_data.reshape(plan.out_shape)
    if bias is not None:
        out_data += bias.data.reshape(plan.bias_shape)
    _count(plan.macs)

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def back(g):
        g_tiles = g.reshape(plan.out_tiles)
        dk = np.zeros(w_cols.shape, w_cols.dtype) if kernel.requires_grad else None
        if x.requires_grad:
            dx_pad = np.zeros(x_pad.shape, x_pad.dtype)
            d_src = _columns(dx_pad, plan)
        for flat, idx, cols, d_shape in plan.tiles:
            g_tile = g_tiles[:, flat, cols]
            if dk is not None:
                dk += g_tile @ src[idx].reshape(col_rows, -1).T
            if x.requires_grad:
                d_cols = (w_cols.T @ g_tile).reshape(d_shape)
                d_win = d_src[idx]
                for off in plan.offsets:
                    d_win[off] += d_cols[off]
        if dk is not None:
            _accum(kernel, dk.reshape(kernel.shape))
        if x.requires_grad:
            _accum(x, np.ascontiguousarray(dx_pad[plan.crop]))
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=plan.spatial_axes))

    return _result(out_data, parents, back, "conv")


# -- pooling / upsampling -------------------------------------------------------


def _per_axis(value, rank: int, name: str) -> tuple[int, ...]:
    if isinstance(value, int):
        return (value,) * rank
    value = tuple(int(v) for v in value)
    if len(value) != rank:
        raise ShapeError(f"{name}: expected {rank} entries, got {len(value)}")
    return value


def max_pool(x: Tensor, factor=2) -> Tensor:
    """Non-overlapping max pooling over the spatial dims of a (C, *spatial) tensor."""
    rank = x.ndim - 1
    factors = _per_axis(factor, rank, "pool factor")
    for n, f in zip(x.shape[1:], factors):
        if n % f:
            raise ShapeError(f"max_pool: extent {n} not divisible by factor {f} "
                             f"(shape {x.shape})")
    c = x.shape[0]
    outs = tuple(n // f for n, f in zip(x.shape[1:], factors))
    # (C, o1, f1, o2, f2, ...) -> (C, o1, o2, ..., f1*f2*...)
    split = x.data.reshape((c,) + tuple(v for pair in zip(outs, factors) for v in pair))
    perm = (0,) + tuple(1 + 2 * d for d in range(rank)) + tuple(2 + 2 * d for d in range(rank))
    blocks = split.transpose(perm).reshape((c,) + outs + (-1,))
    arg = blocks.argmax(axis=-1)
    out_data = np.take_along_axis(blocks, arg[..., None], axis=-1)[..., 0]

    def back(g):
        dblocks = np.zeros_like(blocks)
        np.put_along_axis(dblocks, arg[..., None], g[..., None], axis=-1)
        dsplit = dblocks.reshape((c,) + outs + factors).transpose(np.argsort(perm))
        _accum(x, np.ascontiguousarray(dsplit.reshape(x.shape)))

    return _result(np.ascontiguousarray(out_data), (x,), back, "max_pool")


def upsample_nearest(x: Tensor, factor=2) -> Tensor:
    """Nearest-neighbour upsampling of a (C, *spatial) tensor by integer factors."""
    rank = x.ndim - 1
    factors = _per_axis(factor, rank, "upsample factor")
    out_data = x.data
    for d, f in enumerate(factors):
        if f > 1:
            out_data = np.repeat(out_data, f, axis=d + 1)

    def back(g):
        blocks = g.reshape((x.shape[0],) + tuple(
            v for pair in zip(x.shape[1:], factors) for v in pair))
        axes = tuple(2 + 2 * d for d in range(rank))
        _accum(x, np.ascontiguousarray(blocks.sum(axis=axes)))

    return _result(np.ascontiguousarray(out_data), (x,), back, "upsample")


# -- batch normalization ----------------------------------------------------------


# the running-stat momentum and the variance floor of every batch norm
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


class BatchNormState:
    """Running statistics for one batch-norm layer (one entry per channel)."""

    def __init__(self, channels: int, dtype=np.float32):
        self.running_mean = np.zeros(channels, dtype=_as_dtype(dtype))
        self.running_var = np.ones(channels, dtype=_as_dtype(dtype))


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
               training: bool) -> Tensor:
    """Per-channel normalization of a (C, *spatial) tensor.

    Training mode normalizes with the statistics of this call (biased variance
    over all non-channel elements) and folds them into ``state`` with momentum
    ``BN_MOMENTUM``; eval mode normalizes with the running statistics. The
    state update is the one deliberate side effect in the op set. A (C,)
    input reduces over no axis: in training its mean is the input itself and
    its variance is zero.
    """
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm: gamma/beta shapes {gamma.shape}/{beta.shape} "
                         f"!= ({c},)")
    axes = tuple(range(1, x.ndim))
    bshape = (c,) + (1,) * (x.ndim - 1)

    if training:
        mu = x.data.mean(axis=axes)
        centered = x.data - mu.reshape(bshape)
        # the steps of numpy's var, reusing the mean and the centered input
        var = (centered * centered).sum(axis=axes) / math.prod(x.shape[1:])
        state.running_mean = ((1 - BN_MOMENTUM) * state.running_mean
                              + BN_MOMENTUM * mu).astype(state.running_mean.dtype, copy=False)
        state.running_var = ((1 - BN_MOMENTUM) * state.running_var
                             + BN_MOMENTUM * var).astype(state.running_var.dtype, copy=False)
    else:
        mu = state.running_mean.astype(x.dtype, copy=False)
        var = state.running_var.astype(x.dtype, copy=False)
        centered = x.data - mu.reshape(bshape)

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat = centered * inv_std.reshape(bshape)
    out_data = gamma.data.reshape(bshape) * x_hat + beta.data.reshape(bshape)

    def back(g):
        if gamma.requires_grad:
            _accum(gamma, (g * x_hat).sum(axis=axes))
        if beta.requires_grad:
            _accum(beta, g.sum(axis=axes))
        if x.requires_grad:
            gs = gamma.data.reshape(bshape) * inv_std.reshape(bshape)
            if training:
                g_mean = g.mean(axis=axes, keepdims=True)
                gx_mean = (g * x_hat).mean(axis=axes, keepdims=True)
                _accum(x, gs * (g - g_mean - x_hat * gx_mean))
            else:
                _accum(x, gs * g)

    return _result(out_data.astype(x.dtype, copy=False), (x, gamma, beta), back, "batch_norm")
