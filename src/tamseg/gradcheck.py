"""Finite-difference verification of the autodiff engine.

Every differentiable operation is checked by comparing its reverse-mode
gradients against central differences on a float64 copy of the computation.
Only the first evaluation of each loss is backpropagated, and it is also
recorded: ``tensor.record`` tapes its op calls. A central difference then
replays, under ``tensor.no_grad()``, only the taped calls that the perturbed
tensor feeds and that lead to the loss, so it costs the part of the forward
between that tensor and the loss: each call reruns on its recorded arguments
and rebinds its recorded output, which later calls read, and the recorded
data return after the tensor's differences. A tensor that feeds every call,
or none that leads to the loss, is evaluated in full. Before its
differences, a guard moves all of a tensor's elements at once and compares a
replay with a full evaluation; a replay that differs in any bit (a loss that
reads tensor data outside the recorded ops) sends that tensor back to one
full evaluation per difference. Batch norm in training mode updates its
running statistics only in the calls that run, so they get fewer updates
during a check than under full evaluation; no check reads them. The check
suites here back both the test suite and the ``gradcheck`` CLI command; keep
them cheap enough to run on every change.

The differences run in forked worker processes, one per CPU of the affinity
set (``workers.map_in_workers``; ``taskset -c 0`` keeps them in-process).
``check_gradients`` records and backpropagates the first loss and draws every
sampled coordinate in the caller's process, then hands out units of at most
``UNIT_COORDS`` coordinates of one tensor; ``run_op_suite`` builds every
seed's cases in the caller's process and hands out one (seed, case) check
per unit, which runs in-process inside its worker. Only numeric derivatives
and errors come back, so the results are the same bytes for any worker
count. What a worker does stays in it: its changes to tensor data and
recorded outputs, and whatever a spy in ``build_loss`` or in a replayed op
records. ``check_gradients`` sets ``.grad`` and calls ``relative_error`` in
its caller's process; for an op-suite case, that process is a worker.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from . import workers
from .tensor import Tensor, backward, no_grad

STEP = 1e-5
TOLERANCE = 1e-4
# the most coordinates of one tensor that one work unit of check_gradients
# differences; a large tensor (the attention module's 1152-element fusion
# kernel, say) is split so that it does not keep one worker busy alone
UNIT_COORDS = 32


@dataclass
class GradCheckResult:
    name: str
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


def relative_error(analytic: np.ndarray, numeric: np.ndarray,
                   abs_floor: float = 0.0) -> float:
    """Max elementwise |a - n| / (|a| + |n| + 1e-8).

    Coordinates where both values sit below ``abs_floor`` count as exact
    agreement: a mathematically zero derivative leaves only rounding residue
    on both routes, and a relative comparison of two noise values is
    meaningless. A wrong analytic zero still fails, because the numeric side
    would show the true magnitude.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if not a.size:
        return 0.0
    err = np.abs(a - n) / (np.abs(a) + np.abs(n) + 1e-8)
    if abs_floor > 0.0:
        err = np.where((np.abs(a) < abs_floor) & (np.abs(n) < abs_floor),
                       0.0, err)
    return float(np.max(err))


def check_gradients(build_loss, tensors: dict[str, Tensor], *,
                    sample: int | None = None,
                    rng: np.random.Generator | None = None,
                    abs_floor: float = 0.0) -> float:
    """Compare reverse-mode grads of the scalar ``build_loss()`` to central differences.

    ``build_loss`` must recompute the loss from the tensors' current ``data``
    and be free of randomness; a loss that runs batch norm in training mode
    qualifies, since that mode never reads the running statistics it
    updates. ``sample`` limits the check to that many randomly chosen
    coordinates per tensor, drawn from ``rng``. Returns the worst relative
    error.

    The first ``build_loss()`` is recorded (``tensor.record``) and
    backpropagated. Each difference then replays, under
    ``tensor.no_grad()``, only the recorded op calls that read the perturbed
    tensor, directly or through an earlier such call, and lead to the loss.
    A replayed call reruns on its recorded arguments and rebinds its
    recorded output's ``data``, which the calls after it read; the recorded
    ``data`` return after each unit's guard and differences, also when one
    raises, so the caller's loss keeps its recorded value. Before a tensor's
    first differences in a process, a guard moves all its elements at once,
    each by its own step in [-STEP, STEP], and evaluates one replay and one
    full ``build_loss()`` there. Unless the two match bit for bit (they differ
    when the loss reads the tensor's data outside the recorded ops, through
    a ``.data`` read or an op that is not recorded, whichever elements that
    read touches), the tensor falls back to one ``build_loss()`` per
    evaluation. A tensor whose replay would rerun every recorded call or
    none (a loss that is not the output of a recorded call, say) is
    evaluated by ``build_loss()`` from the start, with no guard. So the
    numeric derivatives are those of full evaluation, unless an outside read
    that a single-element step moves leaves the loss unmoved bit for bit
    under the guard's step. Batch norm in training mode updates its running
    statistics only in the calls that run, so a check makes fewer updates
    than full evaluation would; no check reads them.

    The recorded loss, the backward and the draw of every tensor's sampled
    coordinates, in tensor order, happen in the caller's process, so ``rng``
    is consumed as by a serial check. The differences are split into units
    of at most ``UNIT_COORDS`` coordinates of one tensor, mapped over
    ``workers.map_in_workers``; each unit returns its numeric derivatives,
    and the relative error of each tensor is taken here over all of them.
    Each process guards a tensor once, before its first unit of that
    tensor, and the guard's outcome does not depend on the unit. So the
    result is the same bytes at any worker count. After the recorded loss,
    ``build_loss`` and the replayed ops run in the workers; they run in
    this process only with one CPU (``taskset -c 0``) or one unit, or inside
    a worker (an op-suite case). A unit's exception is re-raised with its
    type and message, the first failing unit's in tensor and coordinate
    order; a worker that dies raises ``ChildProcessError`` naming the tensor
    and its coordinate range, ``w_r [32:64]`` say (positions in the
    tensor's checked coordinates).
    """
    for name, t in tensors.items():
        if t.dtype != np.float64:
            raise ValueError(f"gradcheck requires float64 inputs; {name} is {t.dtype}")
    if sample is not None and rng is None:
        raise ValueError("sampled gradcheck needs an rng")
    for t in tensors.values():
        t.grad = None
    with T.record() as tape:
        loss = build_loss()
    backward(loss)

    names, ts = list(tensors), list(tensors.values())
    analytic, coords = [], []
    for t in ts:
        analytic.append((t.grad.data if t.grad is not None
                         else np.zeros(t.shape, dtype=np.float64)).reshape(-1))
        if sample is not None and sample < t.size:
            coords.append(rng.choice(t.size, size=sample, replace=False))
        else:
            coords.append(np.arange(t.size))
    units = [(k, start, min(start + UNIT_COORDS, c.size))
             for k, c in enumerate(coords) for start in range(0, c.size, UNIT_COORDS)]
    # tensor index -> its replay plan and chosen evaluation; each process
    # fills its own copy, so a tensor is guarded once per process
    chosen = {}

    def full():
        return build_loss().item()

    def run_unit(unit) -> np.ndarray:
        k, start, stop = unit
        flat = ts[k].data.reshape(-1)
        plan = chosen[k][0] if k in chosen else _replay_plan(tape, ts[k], loss)
        recorded = [(out, out.data) for *_, out in plan]
        try:
            with no_grad():
                if k not in chosen:
                    # a plan of every taped call would rerun the whole loss;
                    # an empty one means the loss is not a taped output or
                    # the tensor does not reach it through the ops
                    evaluate = full
                    if 0 < len(plan) < len(tape):
                        evaluate = functools.partial(_replay, plan)
                        if not _replay_is_full(flat, evaluate, full):
                            evaluate = full
                    chosen[k] = plan, evaluate
                numeric = np.empty(stop - start, dtype=np.float64)
                for out_idx, i in enumerate(coords[k][start:stop]):
                    plus, minus = _difference(flat, i, chosen[k][1])
                    numeric[out_idx] = (plus - minus) / (2.0 * STEP)
        finally:
            # replays rebind these; the next unit's plan and the caller's
            # loss read them as recorded
            for out, data in recorded:
                out.data = data
        return numeric

    numerics = [np.empty(c.size, dtype=np.float64) for c in coords]
    for (k, start, stop), numeric in zip(units, workers.map_in_workers(
            run_unit, units, [f"{names[k]} [{start}:{stop}]" for k, start, stop in units])):
        numerics[k][start:stop] = numeric
    # np.max keeps a NaN error, which Python's max would drop
    return float(np.max([relative_error(a[c], numeric, abs_floor=abs_floor)
                         for a, c, numeric in zip(analytic, coords, numerics)], initial=0.0))


def _difference(flat: np.ndarray, i, evaluate) -> tuple[float, float]:
    """``evaluate()`` with ``flat[i]`` moved up, then down, by ``STEP``."""
    saved = flat[i]
    try:
        flat[i] = saved + STEP
        plus = evaluate()
        flat[i] = saved - STEP
        minus = evaluate()
    finally:
        flat[i] = saved
    return plus, minus


def _replay_is_full(flat: np.ndarray, replay, full) -> bool:
    """Whether ``replay()`` equals ``full()`` bit for bit with all of ``flat`` moved.

    Every element moves at once, each by its own step in [-STEP, STEP] from
    a fixed generator, so a loss that reads any of them outside the recorded
    ops (a ``.data`` read, an op that is not recorded) moves in full
    evaluation but not in the replay, whichever elements are sampled.
    """
    saved = flat.copy()
    try:
        flat += np.random.default_rng(0).uniform(-STEP, STEP, flat.size)
        return replay().hex() == full().hex()
    finally:
        flat[...] = saved


def _tensors(arg):
    """The tensors ``arg`` is or holds in (nested) lists, tuples and dict values."""
    if isinstance(arg, Tensor):
        yield arg
    elif type(arg) in (list, tuple, dict):
        for a in arg.values() if type(arg) is dict else arg:
            yield from _tensors(a)


def _replay_plan(tape: list, t: Tensor, loss: Tensor) -> list:
    """The taped calls that read ``t`` and lead to ``loss``, in tape order.

    A call reads ``t`` directly or through an earlier such call; it leads to
    ``loss`` when its output is ``loss`` or a later call of the plan reads
    it (the loss of one frame, say, skips the other frame's head). So a
    plan that is not empty ends with the loss's call.
    """
    fed = {id(t)}
    reads = []
    for call in tape:  # call[1:3] is the arguments, call[3] the output
        if any(id(x) in fed for x in _tensors(call[1:3])):
            reads.append(call)
            fed.add(id(call[3]))
    needed = {id(loss)}
    plan = []
    for call in reversed(reads):
        if id(call[3]) in needed:
            plan.append(call)
            needed.update(id(x) for x in _tensors(call[1:3]))
    return plan[::-1]


def _replay(plan: list) -> float:
    """Rerun ``plan`` on current data, rebinding each recorded output; the loss."""
    for name, args, kwargs, out in plan:
        # through the module attribute, so a wrapped op is the one replayed
        out.data = getattr(T, name)(*args, **kwargs).data
    return out.item()


def _rand(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _away_from(rng, shape, points, margin=0.05):
    """Uniform sample on [-1, 1) avoiding ``margin`` neighborhoods of kink ``points``."""
    data = rng.uniform(-1.0, 1.0, size=shape)
    for p in points:
        near = np.abs(data - p) < margin
        data = np.where(near, data + 2 * margin * np.sign(data - p + 1e-12), data)
    return Tensor(data, requires_grad=True)


def _op_cases(rng: np.random.Generator):
    """Yield (name, tensors, build_loss) triples covering every differentiable op.

    Each case's loss is a fixed random projection of the op output, drawn
    once at case-construction time so repeated evaluations see the same
    function (central differences require that).
    """
    cases = []
    w_rng = np.random.default_rng(rng.integers(2 ** 31))

    def case(name, tensors, fn):
        cases.append((name, tensors, fn))

    def proj(shape):
        w = Tensor(w_rng.uniform(-1.0, 1.0, size=shape))
        return lambda out: T.tsum(out * w)

    a = _rand(rng, (3, 4))
    b = _rand(rng, (3, 4))
    p34 = proj((3, 4))
    case("add", {"a": a, "b": b}, lambda: p34(a + b))
    case("sub", {"a": a, "b": b}, lambda: p34(a - b))
    case("mul", {"a": a, "b": b}, lambda: p34(a * b))
    bd = _away_from(rng, (3, 4), [0.0], margin=0.3)
    case("div", {"a": a, "b": bd}, lambda: p34(a / bd))
    case("recip", {"b": bd}, lambda: p34(T.recip(bd)))
    case("neg", {"a": a}, lambda: p34(T.neg(a)))
    case("scale", {"a": a}, lambda: p34(T.scale(a, -1.7)))
    case("shift", {"a": a}, lambda: p34(T.shift(a, 0.4)))
    case("add_scalar", {"a": a}, lambda: p34(a + 2.5))
    case("rsub_scalar", {"a": a}, lambda: p34(1.0 - a))

    p45 = proj((4, 5))
    r = _away_from(rng, (4, 5), [0.0])
    case("relu", {"x": r}, lambda: p45(T.relu(r)))
    s = _rand(rng, (4, 5), -3.0, 3.0)
    case("sigmoid", {"x": s}, lambda: p45(T.sigmoid(s)))
    p = _rand(rng, (4, 5), 0.2, 3.0)
    case("log", {"x": p}, lambda: p45(T.log(p)))
    c = _away_from(rng, (4, 5), [-0.5, 0.5], margin=0.05)
    case("clip", {"x": c}, lambda: p45(T.clip(c, -0.5, 0.5)))

    m = _rand(rng, (2, 3, 4))
    case("sum_all", {"x": m}, lambda: T.tsum(m))
    case("mean_all", {"x": m}, lambda: T.mean(m))

    p64 = proj((6, 4))
    p432 = proj((4, 3, 2))
    case("reshape", {"x": m}, lambda: p64(T.reshape(m, (6, 4))))
    case("transpose", {"x": m}, lambda: p432(T.transpose(m)))
    c1 = _rand(rng, (2, 3))
    c2 = _rand(rng, (4, 3))
    p63 = proj((6, 3))
    case("concat", {"a": c1, "b": c2}, lambda: p63(T.concat([c1, c2], axis=0)))
    p224 = proj((2, 2, 4))
    case("slice", {"x": m}, lambda: p224(T.slice_axis(m, 1, 1, 3)))

    ma = _rand(rng, (3, 5))
    mb = _rand(rng, (5, 2))
    p32 = proj((3, 2))
    case("matmul", {"a": ma, "b": mb}, lambda: p32(T.matmul(ma, mb)))
    sm = _rand(rng, (4, 6), -2.0, 2.0)
    p46 = proj((4, 6))
    case("softmax", {"x": sm}, lambda: p46(T.softmax(sm, axis=1)))

    x2 = _rand(rng, (2, 6, 6))
    k2 = _rand(rng, (3, 2, 3, 3), -0.5, 0.5)
    kb = _rand(rng, (3,), -0.5, 0.5)
    ps = proj((3, 6, 6))
    case("conv2d_same", {"x": x2, "k": k2, "b": kb}, lambda: ps(T.conv_nd(x2, k2, kb)))
    x3 = _rand(rng, (2, 4, 4, 4))
    k3 = _rand(rng, (2, 2, 3, 3, 3), -0.3, 0.3)
    p3d = proj((2, 4, 4, 4))
    case("conv3d_same", {"x": x3, "k": k3}, lambda: p3d(T.conv_nd(x3, k3)))

    mp = Tensor(rng.permutation(np.linspace(-1.0, 1.0, 32)).reshape(2, 4, 4),
                requires_grad=True)
    pp2 = proj((2, 2, 2))
    case("max_pool2d", {"x": mp}, lambda: pp2(T.max_pool(mp, 2)))
    mp3 = Tensor(rng.permutation(np.linspace(-1.0, 1.0, 128)).reshape(2, 4, 4, 4),
                 requires_grad=True)
    pp3 = proj((2, 2, 2, 2))
    case("max_pool3d", {"x": mp3}, lambda: pp3(T.max_pool(mp3, 2)))
    pu2 = proj((2, 8, 8))
    pu3 = proj((2, 8, 8, 8))
    case("upsample2d", {"x": mp}, lambda: pu2(T.upsample_nearest(mp, 2)))
    case("upsample3d", {"x": mp3}, lambda: pu3(T.upsample_nearest(mp3, 2)))

    bx = _rand(rng, (3, 4, 4))
    gamma = _rand(rng, (3,), 0.5, 1.5)
    beta = _rand(rng, (3,), -0.5, 0.5)
    pbn = proj((3, 4, 4))

    def bn_train():
        state = T.BatchNormState(3, dtype=np.float64)
        return pbn(T.batch_norm(bx, gamma, beta, state, training=True))

    case("batch_norm_train", {"x": bx, "gamma": gamma, "beta": beta}, bn_train)

    eval_state = T.BatchNormState(3, dtype=np.float64)
    eval_state.running_mean = rng.uniform(-0.5, 0.5, size=3)
    eval_state.running_var = rng.uniform(0.5, 1.5, size=3)
    case("batch_norm_eval", {"x": bx, "gamma": gamma, "beta": beta},
         lambda: pbn(T.batch_norm(bx, gamma, beta, eval_state, training=False)))

    # the models' own configurations: C2 stacks (C, 1, H, W) frames along
    # axis 1 and pools and upsamples the (C, T, H, W) stack at (1, 2, 2); the
    # backbone's softmax runs over the class axis 0
    frames = [_rand(rng, (2, 1, 3, 3)) for _ in range(3)]
    pcat = proj((2, 3, 3, 3))
    case("concat_axis1", {f"f{i}": f for i, f in enumerate(frames)},
         lambda: pcat(T.concat(frames, axis=1)))
    mt = Tensor(rng.permutation(np.linspace(-1.0, 1.0, 96)).reshape(2, 3, 4, 4),
                requires_grad=True)
    pt2 = proj((2, 3, 2, 2))
    pt8 = proj((2, 3, 8, 8))
    case("max_pool_122", {"x": mt}, lambda: pt2(T.max_pool(mt, (1, 2, 2))))
    case("upsample_122", {"x": mt}, lambda: pt8(T.upsample_nearest(mt, (1, 2, 2))))
    logits = _rand(rng, (3, 4, 4), -2.0, 2.0)
    pcls = proj((3, 4, 4))
    case("softmax_axis0", {"x": logits}, lambda: pcls(T.softmax(logits, axis=0)))
    return cases


def run_op_suite(seeds=range(20)) -> list[GradCheckResult]:
    """Check every engine op against central differences across ``seeds``.

    Every seed's cases are built here; each (seed, case) check is one unit
    of ``workers.map_in_workers`` and runs ``check_gradients`` through the
    module attribute, in-process inside its worker. A case's worst error is
    the max over seeds, and the results keep the first seed's case order. A
    worker that dies raises ``ChildProcessError`` naming the case and its
    seed (``softmax seed 3``).
    """
    cases = [(seed, *case) for seed in seeds
             for case in _op_cases(np.random.default_rng(seed))]
    # through the module attribute, so a wrapped check is the one that runs
    errors = workers.map_in_workers(lambda case: check_gradients(case[3], case[2]), cases,
                                    [f"{name} seed {seed}" for seed, name, *_ in cases])
    worst: dict[str, float] = {}
    for (_, name, *_), err in zip(cases, errors):
        # np.maximum keeps a NaN error, which Python's max would drop
        worst[name] = float(np.maximum(worst.get(name, 0.0), err))
    return [GradCheckResult(name, err) for name, err in worst.items()]


def run_tam_suite(seeds=range(3)) -> list[GradCheckResult]:
    """Full-coordinate check of the attention module end to end.

    A T=2 stack of 4x4 frames with 8 channels keeps the Jacobian small
    enough to probe every parameter and input coordinate.
    """
    from .attention import FeatureStack, TamConfig, TamParams, tam_forward

    results = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        cfg = TamConfig(channels=8, d_embed=8, heads=2, spatial_rank=2)
        params = TamParams.initialize(cfg, rng, dtype=np.float64)
        frames = [_rand(rng, (8, 4, 4)) for _ in range(2)]
        weights = [Tensor(rng.uniform(-1.0, 1.0, size=(8, 4, 4))) for _ in range(2)]

        def build_loss():
            out = tam_forward(FeatureStack(frames=list(frames)), params,
                              training=True)
            total = None
            for f, w in zip(out.frames, weights):
                term = T.tsum(f * w)
                total = term if total is None else total + term
            return total

        tensors = {f"frame_{i}": f for i, f in enumerate(frames)}
        tensors.update(params.named_parameters())
        # the key bias shifts all logits of a query row equally, and softmax
        # cancels per-row shifts, so its true gradient is identically zero;
        # the floor keeps that exact zero from failing a relative comparison
        err = check_gradients(build_loss, tensors, abs_floor=1e-7)
        results.append(GradCheckResult(f"tam_seed{seed}", err))
    return results


def run_end2end_suite(seeds=range(2)) -> list[GradCheckResult]:
    """Check of 4 sampled coordinates per tensor through a small backbone
    plus loss."""
    from .losses import dice_ce_loss, one_hot
    from .unet import BackboneConfig, UNetBackbone

    results = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        cfg = BackboneConfig(spatial_rank=2, levels=3, channels=(4, 8, 16),
                             classes=3, in_channels=1,
                             insertion_set=frozenset({"E3"}), heads=2)
        model = UNetBackbone(cfg, rng, dtype=np.float64)
        frames = [_rand(rng, (1, 8, 8), -0.5, 0.5) for _ in range(2)]
        labels = rng.integers(0, 3, size=(8, 8))
        truth = one_hot(labels, 3, dtype=np.float64)

        def build_loss():
            probs = model.forward(frames, training=True)
            return dice_ce_loss(probs[0], truth)

        tensors = dict(model.named_parameters())
        tensors.update({f"frame_{i}": f for i, f in enumerate(frames)})
        coord_rng = np.random.default_rng(seed + 1000)
        err = check_gradients(build_loss, tensors, sample=4, rng=coord_rng,
                              abs_floor=1e-7)
        results.append(GradCheckResult(f"end2end_seed{seed}", err))
    return results


SUITES = {"ops": run_op_suite, "tam": run_tam_suite, "end2end": run_end2end_suite}


def run_suite(scope: str, **kwargs) -> list[GradCheckResult]:
    if scope not in SUITES:
        raise ValueError(f"unknown gradcheck scope {scope!r}; "
                         f"choose from {sorted(SUITES)}")
    return SUITES[scope](**kwargs)
