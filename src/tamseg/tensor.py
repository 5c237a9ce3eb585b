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
an inference forward keeps only its outputs alive. Under :func:`record` the
public ops also list their top-level calls on a tape, which the gradient
check replays.
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
    if _LOCAL.no_grad:
        return out
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward_fn
            break
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad``; the first gradient is written into a new array.

    The first write is ``g + 0.0`` into a fresh array of ``t``'s shape and
    dtype: one pass, the exact bytes a zero fill plus an add gave (``-0.0``
    becomes ``+0.0``), and never an alias of ``g``, which a closure may hand
    to several inputs. A ``grad`` already present, such as the optimizer's
    zeroed view, is added to in place.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        # out passed by position: the out= keyword costs more than the add on
        # the engine's smallest arrays
        t.grad = _wrap(np.add(g, 0.0, np.empty(t.data.shape, t.data.dtype)))
    else:
        t.grad.data += g


def _accum_fresh(t: Tensor, g: np.ndarray) -> None:
    """:func:`_accum` for a ``g`` the closure made and hands to no other input.

    ``g`` must have ``t``'s shape and be C-contiguous: a new array, or a
    view of one that only this call holds. The first write adds ``0.0`` into
    ``g`` in place (the same bytes as :func:`_accum`'s, ``-0.0`` becoming
    ``+0.0``) and keeps it as the gradient, so nothing is allocated. A numpy
    scalar, which a 0-d product gives, or a ``g`` of another dtype than
    ``t``'s goes through :func:`_accum`.
    """
    if (t.requires_grad and t.grad is None and type(g) is np.ndarray
            and g.dtype == t.data.dtype):
        t.grad = _wrap(np.add(g, 0.0, g))
    else:
        _accum(t, g)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    ``loss`` must be scalar. Gradients accumulate across calls until a
    tensor's ``grad`` is set back to None, or zeroed by an optimizer's
    ``zero_grad``. The graph is freed as it is swept, so each graph
    backpropagates once.
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
    # graphs deeper than the recursion limit work. Only nodes with a closure
    # are pushed: a leaf runs none, and it would be appended right after its
    # own push, so leaving leaves out keeps the order of the closures
    order: list[Tensor] = []
    seen: set[Tensor] = set()  # Tensor hashes by identity
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p._backward is not None and p not in seen:
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


class _EngineState(threading.local):
    """Per-thread engine state; the class attributes are each thread's start values.

    Plain attribute reads, not ``getattr`` with a default: a missing
    thread-local attribute raises and catches an ``AttributeError`` on every
    op call, which costs more than some of the ops themselves.
    """

    no_grad = False
    tape: list | None = None  # the active record() tape
    macs: MacCounter | None = None  # the active count_macs() counter


_LOCAL = _EngineState()


@contextmanager
def _setting(name: str, value):
    """Engine state ``name`` set to ``value`` (yielded) for the body, then back."""
    before = getattr(_LOCAL, name)
    setattr(_LOCAL, name, value)
    try:
        yield value
    finally:
        setattr(_LOCAL, name, before)


def no_grad():
    """Context manager under which ops on this thread record no graph.

    Outputs made inside it carry no parents, no backward closure and
    ``requires_grad`` False, so nothing but the outputs themselves stays
    alive; shape checks and MAC counts are unchanged. It nests, and the
    previous setting returns when the body exits, also by an exception.
    """
    return _setting("no_grad", True)


def record():
    """Context manager yielding a tape of the op calls made on this thread.

    Each call of a public op appends ``(name, args, kwargs, out)``, where
    ``name`` is the op's attribute name in this module. Only top-level calls
    are taped: the ops an op calls itself (``add`` of a number calls
    ``shift``, ``mean`` calls ``tsum`` and ``scale``) are part of its call.
    The tape holds the arguments and the output as passed and returned, so
    a call can be rerun on them with ``getattr(tensor, name)``. A nested
    ``record`` tapes into its own list only; the outer tape returns when the
    body exits, also by an exception.
    """
    return _setting("tape", [])


def _recorded(fn):
    """Make ``fn`` a public op whose top-level calls go on an active :func:`record` tape."""
    name = fn.__name__

    @functools.wraps(fn)
    def op(*args, **kwargs):
        tape = _LOCAL.tape
        if tape is None:
            return fn(*args, **kwargs)
        _LOCAL.tape = None  # the ops fn calls are part of this call
        try:
            out = fn(*args, **kwargs)
        finally:
            _LOCAL.tape = tape
        tape.append((name, args, kwargs, out))
        return out
    return op


# -- MAC instrumentation -----------------------------------------------------


class MacCounter:
    """Accumulates multiply-accumulate counts of matmul/conv executions."""

    def __init__(self):
        self.total = 0


def count_macs():
    """Context manager yielding a :class:`MacCounter` active on this thread.

    Only the innermost counter counts; an outer one counts again once the
    body exits, also by an exception.
    """
    return _setting("macs", MacCounter())


def _count(n: int) -> None:
    counter = _LOCAL.macs
    if counter is not None:
        counter.total += n


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


@_recorded
def add(a: Tensor, b) -> Tensor:
    if _is_number(b):
        return shift(a, float(b))
    _check_same_shape(a, b, "add")

    def back(g):
        _accum(a, g)
        _accum(b, g)

    return _result(a.data + b.data, (a, b), back, "add")


@_recorded
def sub(a: Tensor, b) -> Tensor:
    if _is_number(b):
        return shift(a, -float(b))
    _check_same_shape(a, b, "sub")

    def back(g):
        _accum(a, g)
        _accum(b, -g)

    return _result(a.data - b.data, (a, b), back, "sub")


@_recorded
def mul(a: Tensor, b) -> Tensor:
    """Hadamard product (or scaling when ``b`` is a Python number)."""
    if _is_number(b):
        return scale(a, float(b))
    _check_same_shape(a, b, "mul")

    def back(g):
        _accum_fresh(a, g * b.data)
        _accum_fresh(b, g * a.data)

    return _result(a.data * b.data, (a, b), back, "mul")


@_recorded
def div(a: Tensor, b) -> Tensor:
    if _is_number(b):
        return scale(a, 1.0 / float(b))
    _check_same_shape(a, b, "div")

    def back(g):
        _accum_fresh(a, g / b.data)
        _accum_fresh(b, -g * a.data / (b.data * b.data))

    return _result(a.data / b.data, (a, b), back, "div")


@_recorded
def recip(a: Tensor) -> Tensor:
    out_data = 1.0 / a.data

    def back(g):
        _accum_fresh(a, -g * out_data * out_data)

    return _result(out_data, (a,), back, "recip")


@_recorded
def neg(a: Tensor) -> Tensor:
    def back(g):
        _accum_fresh(a, -g)

    return _result(-a.data, (a,), back, "neg")


@_recorded
def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def back(g):
        _accum_fresh(a, g * s)

    return _result(a.data * np.asarray(s, dtype=a.dtype), (a,), back, "scale")


@_recorded
def shift(a: Tensor, c: float) -> Tensor:
    def back(g):
        _accum(a, g)

    return _result(a.data + np.asarray(float(c), dtype=a.dtype), (a,), back, "shift")


@_recorded
def relu(a: Tensor) -> Tensor:
    """max(a, 0); NaN propagates.

    The closure keeps the input array held at the call, not a mask, and
    builds the mask ``x > 0`` in the backward; a later rebind of ``a.data``
    does not change which array it reads.
    """
    x = a.data

    def back(g):
        _accum_fresh(a, g * (x > 0))

    # maximum, not where(mask, ...): NaN must propagate, not flush to zero
    return _result(np.maximum(a.data, 0), (a,), back, "relu")


@_recorded
def sigmoid(a: Tensor) -> Tensor:
    # Stable two-branch evaluation keeps exp arguments non-positive.
    x = a.data
    e = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out_data = out_data.astype(a.dtype, copy=False)

    def back(g):
        _accum_fresh(a, g * out_data * (1.0 - out_data))

    return _result(out_data, (a,), back, "sigmoid")


@_recorded
def log(a: Tensor) -> Tensor:
    def back(g):
        _accum_fresh(a, g / a.data)

    return _result(np.log(a.data), (a,), back, "log")


@_recorded
def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only where a is inside.

    As in :func:`relu`, the closure keeps the input array held at the call
    and builds the inside mask in the backward.
    """
    x = a.data

    def back(g):
        _accum_fresh(a, g * ((x >= lo) & (x <= hi)))

    return _result(np.clip(a.data, lo, hi), (a,), back, "clip")


# -- reductions ---------------------------------------------------------------


@_recorded
def tsum(a: Tensor) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    def back(g):
        _accum(a, np.broadcast_to(g, a.shape).astype(a.dtype, copy=False))

    return _result(np.asarray(a.data.sum(), dtype=a.dtype), (a,), back, "sum")


@_recorded
def mean(a: Tensor) -> Tensor:
    """Mean of all elements, as a 0-d tensor."""
    return scale(tsum(a), 1.0 / a.size)


# -- structural ops -----------------------------------------------------------


@_recorded
def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in (shape if isinstance(shape, Iterable) else (shape,)))
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}")

    def back(g):
        _accum(a, g.reshape(a.shape))

    return _result(a.data.reshape(shape), (a,), back, "reshape")


@_recorded
def transpose(a: Tensor) -> Tensor:
    """Reverse the axes; for a matrix, its transpose."""
    def back(g):
        _accum(a, np.ascontiguousarray(g.transpose()))

    return _result(np.ascontiguousarray(a.data.transpose()), (a,), back, "transpose")


@_recorded
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


@_recorded
def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    ax = axis if axis >= 0 else axis + a.ndim
    if not (0 <= start < stop <= a.shape[ax]):
        raise ShapeError(f"slice [{start}:{stop}] out of range for axis {axis} "
                         f"of shape {a.shape}")
    idx = tuple(slice(None) if d != ax else slice(start, stop) for d in range(a.ndim))

    def back(g):
        full = np.zeros(a.shape, a.dtype)
        full[idx] = g
        _accum_fresh(a, full)

    return _result(np.ascontiguousarray(a.data[idx]), (a,), back, "slice")


# -- matmul / softmax ---------------------------------------------------------


@_recorded
def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.shape} and {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul: operand dtypes {a.dtype} and {b.dtype} differ")
    _count(a.shape[0] * a.shape[1] * b.shape[1])

    def back(g):
        _accum_fresh(a, g @ b.data.T)
        _accum_fresh(b, a.data.T @ g)

    return _result(a.data @ b.data, (a, b), back, "matmul")


@_recorded
def softmax(a: Tensor, axis: int) -> Tensor:
    ax = axis if axis >= 0 else axis + a.ndim
    if not 0 <= ax < a.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=ax, keepdims=True)

    def back(g):
        inner = (g * out_data).sum(axis=ax, keepdims=True)
        _accum_fresh(a, out_data * (g - inner))

    return _result(out_data.astype(a.dtype, copy=False), (a,), back, "softmax")


# -- convolution ---------------------------------------------------------------


# Elements of im2col columns gathered per GEMM tile. 2**16 elements are
# 256 KiB of float32, about one core's L2 cache, so a tile's columns are still
# cached when the matmul reads them; the whole-layer column matrix (tens of
# MiB at 128x128 in 3D) would stream through memory twice and raise peak RSS.
CONV_TILE_ELEMS = 2 ** 16


class _ConvPlan(NamedTuple):
    """Everything about one convolution that depends only on shapes.

    A 2D conv is planned as the one-plane case of the 3D loop: one input
    plane (``L = 1``) and one leading kernel offset (``kl = 1``).
    """

    out_shape: tuple[int, ...]       # (C_out, *spatial)
    out_planes: tuple[int, int, int]  # (C_out, L, rows * width)
    # (C_out, C_in, kl, kh * kw), or None when kl == 1: then the kernel as
    # (1, C_out, C_in * kh * kw) is a view, with no transpose
    kernel_split: tuple[int, int, int, int] | None
    w_shape: tuple[int, int, int]    # (kl, C_out, C_in * kh * kw): one GEMM matrix per dl
    # in-plane padded input shape, or None for an in-plane 1x1 kernel: it
    # needs no pad and reads every input position once, so the input viewed
    # as (C_in, L, rows * width) holds its im2col columns
    padded: tuple[int, ...] | None
    crop: tuple[slice, ...]          # the input's place in the padded array
    # shape of the column source: the (C_in, kh, kw, L, rows, width) window
    # view of the padded input, whose strides in bytes are win_strides[itemsize],
    # or for an in-plane 1x1 kernel the input as (C_in, L, rows * width)
    src_shape: tuple[int, ...]
    win_strides: dict[int, tuple[int, ...]]
    col_rows: int                    # C_in * kh * kw
    dx_shape: tuple[int, int]        # (C_in, L * rows * width): the input gradient, flat
    # (column-source index, ((dl, output index, first, dk_first), ...),
    # column-gradient shape, scatter) per input plane and row block, planes
    # outer: the index gathers the plane's in-plane columns, and each pair
    # names a kernel offset dl along L and the output block it feeds;
    # ``first`` marks the pair that writes that block first, which every
    # output block has, and ``dk_first`` the pair that writes kernel plane
    # dl's gradient first. The scatter holds one (o, lo, hi, shift) add per
    # in-plane kernel offset o = (i, j), in ``np.ndindex`` order: columns
    # lo:hi of the offset's rows o::kh*kw of the (C_in * kh * kw, tile)
    # column gradient go into ``dx_shape`` at lo + shift:hi + shift, where
    # the shift is the plane's start plus (r0 + i - ph) * width + (j - pw),
    # and the tile's rows that fall outside the plane are clipped
    tiles: tuple[tuple[tuple, tuple[tuple[int, tuple, bool, bool], ...], tuple[int, ...],
                       tuple[tuple[int, int, int, int], ...]], ...]
    unfed: tuple[int, ...]           # kernel offsets dl along L that no pair feeds
    # (j, first, stop) per in-plane kernel column j: the columns of the
    # (C_in, kh, kw, tile rows, width) column gradient whose taps fall in the
    # column padding, which a shift would wrap into the neighbouring row;
    # zeroed before the scatter, so a wrapped tap adds +0.0
    pad_taps: tuple[tuple[int, int, int], ...]
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
    planes, rows, width = (1, *spatial) if rank == 2 else spatial
    kl, kh, kw = (1, *kshape) if rank == 2 else kshape
    pointwise = kh == kw == 1
    # "same" at stride 1: k - 1 pad per in-plane axis, the odd one after; the
    # leading axis gets no pad, as its zero planes would only add zero products
    padded = (c_in, *spatial[:-2], rows + kh - 1, width + kw - 1)
    crop = (slice(None),) * (rank - 1) + tuple(
        slice((k - 1) // 2, (k - 1) // 2 + n) for n, k in ((rows, kh), (width, kw)))
    # element strides of the window view's axes (channel, in-plane kernel
    # offsets, plane, row, column) in the C-contiguous padded input
    plane = padded[-2] * padded[-1]
    steps = (planes * plane, padded[-1], 1, plane, padded[-1], 1)
    col_rows = c_in * kh * kw
    block = max(1, CONV_TILE_ELEMS // (col_rows * width))
    # output plane t reads input plane t + dl - lead_pad at kernel offset dl
    lead_pad = (kl - 1) // 2
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    tiles = []
    written = set()
    fed = set()
    for src in range(planes):
        for r0 in range(0, rows, block):
            r1 = min(r0 + block, rows)
            cols = slice(r0 * width, r1 * width)
            pairs = []
            for dl in range(kl):
                t = src - dl + lead_pad
                if 0 <= t < planes:
                    pairs.append((dl, (slice(None), t, cols), (t, r0) not in written,
                                  dl not in fed))
                    written.add((t, r0))
                    fed.add(dl)
            scatter = []
            for o, (i, j) in enumerate(np.ndindex(kh, kw)):
                # tile rows r whose input row r0 + r + i - ph is in the plane
                lo = max(0, ph - i - r0) * width
                hi = min(r1 - r0, rows + ph - i - r0) * width
                shift = (r0 + i - ph) * width + (j - pw)
                # a tap shifted before the plane's start or past its end is
                # a zeroed column-padding tap, dropped
                lo = max(lo, -shift)
                hi = min(hi, rows * width - shift)
                if lo < hi:
                    scatter.append((o, lo, hi, src * rows * width + shift))
            idx = ((slice(None), src, cols) if pointwise
                   else (slice(None),) * 3 + (src, slice(r0, r1)))
            tiles.append((idx, tuple(pairs), (c_in, kh, kw, r1 - r0, width), tuple(scatter)))
    # column w of offset j reads input column w + j - pw: the taps before
    # column 0 and from column width on are padding (all of them for a
    # kernel more than twice as wide as the input)
    pad_taps = tuple((j, first, stop) for j in range(kw)
                     for first, stop in ((0, pw - j), (max(0, width + pw - j), width))
                     if first < stop)
    return _ConvPlan(
        out_shape=(c_out, *spatial),
        out_planes=(c_out, planes, rows * width),
        kernel_split=None if kl == 1 else (c_out, c_in, kl, kh * kw),
        w_shape=(kl, c_out, col_rows),
        padded=None if pointwise else padded,
        crop=crop,
        src_shape=((c_in, planes, rows * width) if pointwise
                   else (c_in, kh, kw, planes, rows, width)),
        win_strides={d.itemsize: tuple(s * d.itemsize for s in steps) for d in _FLOAT_DTYPES},
        col_rows=col_rows,
        dx_shape=(c_in, planes * rows * width),
        tiles=tuple(tiles),
        unfed=tuple(dl for dl in range(kl) if dl not in fed),
        pad_taps=pad_taps,
        bias_shape=(c_out,) + (1,) * rank,
        spatial_axes=tuple(range(1, rank + 1)),
        macs=col_rows * kl * c_out * math.prod(spatial))


def _columns(a: np.ndarray, plan: _ConvPlan) -> np.ndarray:
    """View of a C-contiguous padded (C, *spatial) array whose tiles are im2col columns.

    Indexing it with a tile's column-source index and reshaping the result
    to (C * kh * kw, tile) gives the in-plane im2col columns of one input
    plane's row block. For an in-plane 1x1 kernel it is the array itself as
    (C, L, rows * width). Otherwise it is the (C, kh, kw, L, rows, width)
    window view: entry [c, i, j, l, r, w] is ``a[c, l, r + i, w + j]`` (no
    ``l`` in 2D), and for one fixed in-plane offset the view holds distinct
    elements. Building it on ``a`` as a buffer checks that the view stays
    inside ``a``.
    """
    if plan.padded is None:
        return a.reshape(plan.src_shape)
    return np.ndarray(plan.src_shape, a.dtype, buffer=a,
                      strides=plan.win_strides[a.itemsize])


@_recorded
def conv_nd(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Cross-correlation of a (C_in, *spatial) input with a (C_out, C_in, *k) kernel.

    Supports 2 or 3 spatial dimensions. The correlation is "same" at stride
    1: the output keeps the input's extents, and each axis is zero-padded by
    ``(k - 1) // 2`` before and the rest of ``k - 1`` after. The kernel is not
    flipped.

    A (C_in, L, H, W) input with a kl x kh x kw kernel is a sum over the
    leading kernel offsets dl of in-plane im2col GEMMs (Chellapilla et al.
    2006, "High Performance Convolutional Neural Networks for Document
    Processing"; the split of the leading kernel axis follows kn2row,
    Vasudevan et al. 2017). It is tiled over input planes and, within a
    plane, blocks of rows, the last block possibly ragged. Each tile gathers
    its plane's (C_in * kh * kw, tile) columns once from a strided window view
    of the input, padded in-plane only, and multiplies them by the kernel's
    plane dl for each output plane t they feed: ``out[:, t] (+)= W_dl @ cols``,
    where the first product into an output block writes it and the others
    add. So an input plane is gathered once, not once per dl, and products
    with the zero padding planes along L are never formed. A 2D conv, or a
    3D one with kl = 1, is the one-plane, one-offset case: one GEMM per tile.
    Rows per block keep a tile's columns near ``CONV_TILE_ELEMS`` elements,
    an L2-sized budget, so no layer's whole column matrix is built. The
    backward walks the same tiles and recomputes their columns from the
    padded input: ``dW_dl (+)= g_t @ cols.T``, where the first product into
    kernel plane dl writes it and a plane no pair feeds is zero, and
    ``dcols = sum W_dl.T @ g_t`` is scattered into the unpadded input
    gradient's plane (col2im) by whole-row shifts: the block of in-plane
    kernel offset (i, j) goes in as one add at flat shift
    ``(r0 + i - ph) * width + (j - pw)``, its rows outside the plane clipped
    and its taps in the column padding zeroed first, so a tap that wraps
    into the next row adds +0.0. Each input-gradient element gets the adds
    it would get in a padded buffer, in the same tile-then-offset order.

    The MAC count is that of the full correlation, padded taps included
    (C_in * prod(k) * C_out per output position), as the cost table states
    it, though the skipped padding products are not computed.

    The shape-only part of this (shape checks, pads, tiles and the pairs
    each tile feeds) is planned once per shape combination and cached. An
    in-plane 1x1 kernel needs no pad and reads its columns straight from the
    input, with no window view.
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
    if plan.kernel_split is None:
        w = kernel.data.reshape(plan.w_shape)
    else:
        w = kernel.data.reshape(plan.kernel_split).transpose(2, 0, 1, 3).reshape(plan.w_shape)

    out_data = np.empty(plan.out_planes, dtype=x.dtype)
    for idx, pairs, *_ in plan.tiles:
        cols = src[idx].reshape(col_rows, -1)
        for dl, out_idx, first, _ in pairs:
            if first:
                np.matmul(w[dl], cols, out=out_data[out_idx])
            else:
                block = out_data[out_idx]
                block += w[dl] @ cols
    out_data = out_data.reshape(plan.out_shape)
    if bias is not None:
        out_data += bias.data.reshape(plan.bias_shape)
    _count(plan.macs)

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def back(g):
        g_planes = g.reshape(plan.out_planes)
        dk = None
        if kernel.requires_grad:
            dk = np.empty(plan.w_shape, w.dtype)
            if plan.unfed:
                dk[list(plan.unfed)] = 0
        if x.requires_grad:
            dx = np.zeros(plan.dx_shape, x.dtype)
            taps = kernel.shape[-2] * kernel.shape[-1]
        for idx, pairs, d_shape, scatter in plan.tiles:
            if dk is not None:
                cols_t = src[idx].reshape(col_rows, -1).T
                for dl, out_idx, _, dk_first in pairs:
                    if dk_first:
                        np.matmul(g_planes[out_idx], cols_t, out=dk[dl])
                    else:
                        dk_dl = dk[dl]
                        dk_dl += g_planes[out_idx] @ cols_t
                # freed before col2im allocates: two tile-sized arrays alive
                # at once nearly double a small layer's backward time
                del cols_t
            if x.requires_grad:
                dl, out_idx, *_ = pairs[0]
                d_cols = w[dl].T @ g_planes[out_idx]
                for dl, out_idx, *_ in pairs[1:]:
                    d_cols += w[dl].T @ g_planes[out_idx]
                d_taps = d_cols.reshape(d_shape)
                for j, first, stop in plan.pad_taps:
                    d_taps[:, :, j, :, first:stop] = 0
                for o, lo, hi, shift in scatter:
                    d_block = dx[:, lo + shift:hi + shift]
                    d_block += d_cols[o::taps, lo:hi]
        if dk is not None:
            if plan.kernel_split is not None:  # back from one matrix per dl
                c_out, c_in, kl, _ = plan.kernel_split
                dk = dk.reshape(kl, c_out, c_in, -1).transpose(1, 2, 0, 3)
            _accum(kernel, dk.reshape(kernel.shape))
        if x.requires_grad:
            _accum_fresh(x, dx.reshape(x.shape))
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


class _PoolPlan(NamedTuple):
    """Everything about one max pooling that depends only on shapes."""

    split: tuple[int, ...]      # (C, o1, f1, o2, f2, ...): the input, reshaped
    out_shape: tuple[int, ...]  # (C, o1, o2, ...)
    # one index per window offset, in the windows' row-major order: it picks
    # the (C, o1, o2, ...) strided view of the elements at that offset
    windows: tuple[tuple, ...]


# a model pools a handful of shapes; the bound only stops a shape sweep
# from growing the cache without limit
POOL_PLAN_CACHE = 64


@functools.lru_cache(maxsize=POOL_PLAN_CACHE)
def _pool_plan(shape: tuple[int, ...], factors: tuple[int, ...]) -> _PoolPlan:
    for n, f in zip(shape[1:], factors):
        if n % f:
            raise ShapeError(f"max_pool: extent {n} not divisible by factor {f} "
                             f"(shape {shape})")
    outs = tuple(n // f for n, f in zip(shape[1:], factors))
    return _PoolPlan(
        split=(shape[0],) + tuple(v for pair in zip(outs, factors) for v in pair),
        out_shape=(shape[0],) + outs,
        windows=tuple((slice(None),) + tuple(v for i in offset for v in (slice(None), i))
                      for offset in np.ndindex(*factors)))


@_recorded
def max_pool(x: Tensor, factor=2) -> Tensor:
    """Non-overlapping max pooling over the spatial dims of a (C, *spatial) tensor.

    The forward folds one strided view per window offset into the output,
    in the windows' row-major order, with ``np.maximum(view, out)``. On a
    tie ``np.maximum`` returns its second operand, so a window's earlier
    element wins (of +0.0 and -0.0, the one that comes first), and a NaN
    anywhere in a window makes its output NaN. The backward routes each
    output's gradient to the first element of its window that equals the
    output or is NaN, which is the element ``argmax`` picks. The closure
    keeps the input and output arrays held at the call, no copy and no
    index array.
    """
    factors = _per_axis(factor, x.ndim - 1, "pool factor")
    plan = _pool_plan(x.shape, factors)
    split = x.data.reshape(plan.split)
    out_data = split[plan.windows[0]].copy()
    for idx in plan.windows[1:]:
        np.maximum(split[idx], out_data, out=out_data)

    def back(g):
        dx = np.zeros(plan.split, split.dtype)
        free = np.ones(plan.out_shape, bool)  # outputs whose gradient is not routed yet
        for idx in plan.windows[:-1]:
            view = split[idx]
            hit = view == out_data
            hit |= np.isnan(view)
            hit &= free
            np.copyto(dx[idx], g, where=hit)
            free ^= hit
        # every window holds its maximum, so the last offset takes what is left
        np.copyto(dx[plan.windows[-1]], g, where=free)
        _accum_fresh(x, dx.reshape(x.shape))

    return _result(out_data, (x,), back, "max_pool")


@_recorded
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
        _accum_fresh(x, np.ascontiguousarray(blocks.sum(axis=axes)))

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


@_recorded
def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
               training: bool) -> Tensor:
    """Per-channel normalization of a (C, *spatial) tensor.

    Training mode normalizes with the statistics of this call (biased variance
    over all non-channel elements) and folds them into ``state`` with momentum
    ``BN_MOMENTUM``; eval mode normalizes with the running statistics. The
    state update is the one deliberate side effect in the op set. A (C,)
    input reduces over no axis: in training its mean is the input itself and
    its variance is zero.

    The centered input is normalized in place, so a call makes two full-size
    arrays, the normalized input and the output; the closure keeps the
    normalized input and the per-channel inverse deviation. The backward
    forms ``g * x_hat`` once and takes each of its two channel sums once;
    they are the gamma and beta gradients, and divided by the item count as
    numpy's ``mean`` divides (the sum by an ``intp``, in place) they are the
    two means of the input gradient, which is built in two full-size arrays.
    """
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm: gamma/beta shapes {gamma.shape}/{beta.shape} "
                         f"!= ({c},)")
    axes = tuple(range(1, x.ndim))
    bshape = (c,) + (1,) * (x.ndim - 1)

    if training:
        # the steps numpy's mean and sum take, without their Python wrappers:
        # the sum divided in place by the item count, an intp
        count = np.intp(math.prod(x.shape[1:]))
        mu = np.add.reduce(x.data, axes)
        mu = np.true_divide(mu, count, out=mu, casting="unsafe")
        centered = x.data - mu.reshape(bshape)
        # the steps of numpy's var, reusing the mean and the centered input
        var = np.add.reduce(centered * centered, axes) / math.prod(x.shape[1:])
        state.running_mean = ((1 - BN_MOMENTUM) * state.running_mean
                              + BN_MOMENTUM * mu).astype(state.running_mean.dtype, copy=False)
        state.running_var = ((1 - BN_MOMENTUM) * state.running_var
                             + BN_MOMENTUM * var).astype(state.running_var.dtype, copy=False)
    else:
        mu = state.running_mean.astype(x.dtype, copy=False)
        var = state.running_var.astype(x.dtype, copy=False)
        centered = x.data - mu.reshape(bshape)

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat = centered  # normalized in place: a call makes two full-size arrays
    x_hat *= inv_std.reshape(bshape)
    out_data = gamma.data.reshape(bshape) * x_hat
    out_data += beta.data.reshape(bshape)

    def back(g):
        x_train = x.requires_grad and training
        if gamma.requires_grad or x_train:
            gx = g * x_hat
            gx_sum = gx.sum(axis=axes)
            if gamma.requires_grad:
                _accum(gamma, gx_sum)
        if beta.requires_grad or x_train:
            g_sum = g.sum(axis=axes)
            if beta.requires_grad:
                _accum(beta, g_sum)
        if x.requires_grad:
            gs = gamma.data.reshape(bshape) * inv_std.reshape(bshape)
            if training:
                # the means as numpy's mean takes them: each sum divided in
                # place by the item count, an intp
                g_mean = np.true_divide(g_sum, count, out=g_sum, casting="unsafe")
                gx_mean = np.true_divide(gx_sum, count, out=gx_sum, casting="unsafe")
                # gs * (g - g_mean - x_hat * gx_mean), with gx's buffer reused
                dx = g - g_mean.reshape(bshape)
                dx -= np.multiply(x_hat, gx_mean.reshape(bshape), out=gx)
                dx *= gs
                _accum_fresh(x, dx)
            else:
                _accum_fresh(x, gs * g)

    return _result(out_data.astype(x.dtype, copy=False), (x, gamma, beta), back, "batch_norm")
