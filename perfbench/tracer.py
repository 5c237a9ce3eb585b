"""Outside-in layer tracer for the tamseg benchmark.

The tracer never edits the package. It wraps the public functions of each
layer and rebinds every module-level name in ``tamseg.*`` that refers to a
wrapped function, so consumer modules that imported an op by name
(``from .tensor import conv_nd``) are traced as well as ``tamseg.tensor``
itself. Backward work is timed by replacing the ``_backward`` closure on each
tensor a wrapped op returns; the tape calls the replacement in place of the
original.

Spans are opened and closed on a stack. Every span adds its duration and its
self time (duration minus the time its child spans cover) to a per-name
aggregate; spans above the tensor-op level are also kept whole, with start,
end and parent, and written out when the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import types

import numpy as np

# tensor ops by the category their per-layer metric reports
OP_CATEGORIES = {
    "conv_nd": "conv_nd", "matmul": "matmul", "softmax": "softmax",
    "batch_norm": "batch_norm",
    "max_pool": "resample", "upsample_nearest": "resample",
    "reshape": "layout", "transpose": "layout", "concat": "layout",
    "slice_axis": "layout",
    **{name: "elementwise" for name in (
        "add", "sub", "mul", "div", "recip", "neg", "scale", "shift", "relu",
        "sigmoid", "log", "clip", "tsum", "mean")},
}

# spans that set the layer an op is created in; backward time is charged to it
_LAYER_OF = {"attention.tam_forward": "attention", "losses.dice_ce_loss": "losses",
             "unet.forward": "unet"}


class _Agg:
    __slots__ = ("count", "total", "self_time")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.clock = time.perf_counter
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- span bookkeeping ----------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded so far (patches stay in place)."""
        self.agg: dict[str, _Agg] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []  # [name, start, child_time, span_index]
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.bwd_by_layer: dict[str, float] = {}
        self.attention_in_unet = 0.0
        self.max_positions = 0
        self._last_node = None
        self._step_mark = None
        self._case_start = None
        self._case_end = None

    def _begin(self, name: str, keep: bool) -> list:
        index = -1
        if keep:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
        frame = [name, self.clock(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _end(self, frame: list) -> float:
        end = self.clock()
        name, start, child, index = frame
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = _Agg()
        a.count += 1
        a.total += dur
        a.self_time += dur - child
        if index >= 0:
            self.spans[index] = (name, start, end, self.spans[index][3])
        return end

    def inside(self, name: str) -> bool:
        return any(f[0] == name for f in self._stack)

    def _layer(self) -> str | None:
        for f in reversed(self._stack):
            layer = _LAYER_OF.get(f[0])
            if layer is not None:
                return layer
        return None

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def total(self, name: str) -> float:
        a = self.agg.get(name)
        return a.total if a else 0.0

    def self_time(self, name: str) -> float:
        a = self.agg.get(name)
        return a.self_time if a else 0.0

    def calls(self, name: str) -> int:
        a = self.agg.get(name)
        return a.count if a else 0

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, originals: dict[int, object]) -> None:
        """Point every tamseg module-level name bound to an original at its wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tamseg" or mod_name.startswith("tamseg.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced entry point; :meth:`uninstall` restores them."""
        import tamseg.attention
        import tamseg.experiments
        import tamseg.gradcheck
        import tamseg.losses
        import tamseg.metrics
        import tamseg.optim
        import tamseg.synth
        import tamseg.tensor as tensor
        import tamseg.tnsr
        import tamseg.unet

        originals: dict[int, object] = {}

        def plan(fn, wrapper):
            originals[id(fn)] = wrapper

        for op in OP_CATEGORIES:
            plan(getattr(tensor, op), self._op_wrapper(op, getattr(tensor, op)))
        plan(tensor.backward, self._span_wrapper("tensor.backward", tensor.backward))
        plan(tamseg.attention.tam_forward, self._tam_wrapper(tamseg.attention.tam_forward))
        plan(tamseg.losses.dice_ce_loss,
             self._span_wrapper("losses.dice_ce_loss", tamseg.losses.dice_ce_loss))
        plan(tamseg.experiments.train, self._train_wrapper(tamseg.experiments.train))
        plan(tamseg.experiments.evaluate, self._eval_wrapper(tamseg.experiments.evaluate))
        for name in ("generate", "load_dataset", "write_dataset"):
            fn = getattr(tamseg.synth, name)
            plan(fn, self._span_wrapper(f"synth.{name}", fn))
        # byte counts include the TNSR header: 7 bytes plus 4 per axis
        plan(tamseg.tnsr.write_array, self._span_wrapper(
            "tnsr.write_array", tamseg.tnsr.write_array, False,
            lambda args, _: ("tnsr.bytes_written",
                             7 + 4 * np.ndim(args[1]) + np.asarray(args[1]).nbytes)))
        plan(tamseg.tnsr.read_array, self._span_wrapper(
            "tnsr.read_array", tamseg.tnsr.read_array, False,
            lambda _, out: ("tnsr.bytes_read", 7 + 4 * out.ndim + out.nbytes)))
        plan(tamseg.tnsr.atomic_write_text, self._span_wrapper(
            "tnsr.atomic_write_text", tamseg.tnsr.atomic_write_text, False,
            lambda args, _: ("tnsr.bytes_written", len(args[1].encode("utf-8")))))
        for name in ("write_bundle", "read_bundle", "read_json"):
            fn = getattr(tamseg.tnsr, name)
            plan(fn, self._span_wrapper(f"tnsr.{name}", fn))
        plan(tamseg.gradcheck.run_suite, self._suite_wrapper(tamseg.gradcheck.run_suite))
        plan(tamseg.gradcheck.check_gradients,
             self._check_wrapper(tamseg.gradcheck.check_gradients))
        self._rebind(originals)

        for cls in (tamseg.unet.UNetBackbone, tamseg.unet.TimeConvUNet):
            self._set(cls, "forward", self._forward_wrapper(cls.forward))
        self._set(tamseg.optim.Adam, "step", self._adam_wrapper(tamseg.optim.Adam.step))
        self._set(tamseg.metrics.MetricReport, "add_case",
                  self._add_case_wrapper(tamseg.metrics.MetricReport.add_case))
        self._set(tamseg.metrics, "ndimage", self._ndimage_proxy(tamseg.metrics.ndimage))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers ------------------------------------------------------------------

    def _span_wrapper(self, name: str, fn, keep: bool = True, tally=None):
        """Time ``fn`` as span ``name``; ``tally(args, result)`` gives a (key, n) count."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._begin(name, keep)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(frame)
            if tally is not None:
                self.count(*tally(args, out))
            return out
        return wrapper

    def _op_wrapper(self, op: str, fn):
        name = f"tensor.{op}"
        bwd_name = f"{name}.bwd"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._begin(name, False)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(frame)
            if op == "conv_nd":
                kernel = args[1] if len(args) > 1 else kwargs["kernel"]
                tracer.count("macs.conv_nd", math.prod(kernel.shape[1:])
                              * kernel.shape[0] * math.prod(out.shape[1:]))
            elif op == "matmul":
                a, b = args[0], args[1]
                tracer.count("macs.matmul", a.shape[0] * a.shape[1] * b.shape[1])
            if out is not tracer._last_node:
                # a nested op already counted the node this wrapper returns
                tracer._last_node = out
                layer = tracer._layer()
                tracer.count("graph_nodes")
                tracer.count(f"graph_nodes.{layer}")
                back = out._backward
                if back is not None and not getattr(back, "_traced", False):
                    out._backward = tracer._timed_backward(bwd_name, layer, back)
            return out
        return wrapper

    def _timed_backward(self, name: str, layer, back):
        tracer = self

        def timed(g):
            frame = tracer._begin(name, False)
            try:
                back(g)
            finally:
                start = frame[1]
                end = tracer._end(frame)
                tracer.bwd_by_layer[layer] = tracer.bwd_by_layer.get(layer, 0.0) + end - start
        timed._traced = True
        return timed

    def _tam_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(stack, params, *args, **kwargs):
            t = len(stack.frames)
            n = math.prod(stack.frames[0].shape[1:])
            pairs = t * (t - 1)
            tracer.count("attention.pairs", pairs)
            tracer.count("attention.logits_bytes", pairs * params.config.heads * n * n
                         * stack.frames[0].dtype.itemsize)
            tracer.max_positions = max(tracer.max_positions, n)
            in_unet = tracer.inside("unet.forward")
            frame = tracer._begin("attention.tam_forward", True)
            try:
                return fn(stack, params, *args, **kwargs)
            finally:
                start = frame[1]
                end = tracer._end(frame)
                if in_unet:
                    tracer.attention_in_unet += end - start
        return wrapper

    def _forward_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(model, frames, training=False):
            in_train = tracer.inside("experiments.train")
            in_eval = tracer.inside("experiments.evaluate")
            frame = tracer._begin("unet.forward", True)
            if in_eval:
                tracer._close_case()
                tracer._case_start = frame[1]
            try:
                return fn(model, frames, training)
            finally:
                start = frame[1]
                end = tracer._end(frame)
                if in_train and not training:
                    tracer.count("experiments.val_s", end - start)
        return wrapper

    def _close_case(self) -> None:
        if self._case_start is not None and self._case_end is not None:
            self.sample("experiments.eval_case_s", self._case_end - self._case_start)
        self._case_start = self._case_end = None

    def _adam_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(opt):
            if "optim.param_elems" not in tracer.counts:
                tracer.counts["optim.param_elems"] = sum(p.size for p in opt.params)
            frame = tracer._begin("optim.step", True)
            try:
                return fn(opt)
            finally:
                end = tracer._end(frame)
                if tracer._step_mark is not None:
                    tracer.sample("experiments.step_s", end - tracer._step_mark)
                tracer._step_mark = end
        return wrapper

    def _train_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._step_mark = None
            frame = tracer._begin("experiments.train", True)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end(frame)
                tracer._step_mark = None
        return wrapper

    def _eval_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._case_start = tracer._case_end = None
            frame = tracer._begin("experiments.evaluate", True)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close_case()
                tracer._end(frame)
        return wrapper

    def _add_case_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(report, case, frame_idx, pred, truth, labels):
            frame = tracer._begin("metrics.add_case", True)
            try:
                return fn(report, case, frame_idx, pred, truth, labels)
            finally:
                tracer._case_end = tracer._end(frame)
                # surface distances run only for rows whose regions are both non-empty
                tracer.count("metrics.surface_rows", sum(
                    1 for row in report.rows[len(report.rows) - len(labels):] if not row.error))
        return wrapper

    def _ndimage_proxy(self, ndimage):
        proxy = types.SimpleNamespace(**{k: getattr(ndimage, k) for k in dir(ndimage)
                                         if not k.startswith("__")})
        proxy.distance_transform_edt = self._span_wrapper(
            "metrics.edt", ndimage.distance_transform_edt)
        return proxy

    def _suite_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(scope, **kwargs):
            frame = tracer._begin(f"gradcheck.suite.{scope}", True)
            try:
                return fn(scope, **kwargs)
            finally:
                tracer._end(frame)
        return wrapper

    def _check_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(build_loss, tensors, **kwargs):
            def counted():
                tracer.count("gradcheck.loss_evals")
                frame = tracer._begin("gradcheck.loss_eval", False)
                try:
                    return build_loss()
                finally:
                    tracer._end(frame)
            return fn(counted, tensors, **kwargs)
        return wrapper

    # -- output ---------------------------------------------------------------------

    def span_records(self) -> list[dict]:
        """The kept spans, with self time, in start order."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "self": end - start - child[i]}
                for i, (name, start, end, parent) in enumerate(self.spans)]


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


# timings that are zero on some workload; each also gets a share of the traced
# wall time (``_pct``), which reads 0 there instead of an unmeasured-looking 0 ms
SHARED_TIMINGS = (
    "tensor.conv_nd.bwd_ms", "tensor.matmul.fwd_ms", "tensor.matmul.bwd_ms",
    "tensor.softmax.bwd_ms", "tensor.batch_norm.bwd_ms", "tensor.backward.tape_ms",
    "attention.fwd_ms", "attention.bwd_ms", "unet.backbone_bwd_ms", "losses.fwd_ms",
    "losses.bwd_ms", "optim.step_ms", "experiments.val_ms", "experiments.checkpoint_ms",
    "metrics.add_case_ms", "metrics.edt_ms", "tnsr.write_ms", "tnsr.read_ms",
    "synth.load_dataset_ms", "gradcheck.eval_ms", "gradcheck.ops_s", "gradcheck.tam_s",
    "gradcheck.end2end_s")


def layer_metrics(tr: Tracer, units: int, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced loop, each divided by ``units``.

    A unit is a training step, a scored case or a gradcheck round, as the
    workload counts it; ``wall_s`` is the traced wall time of the entry-point
    calls. Values are (number, unit) pairs.
    """
    out: dict[str, tuple[float, str]] = {}
    counts = tr.counts

    def ms(seconds: float) -> float:
        return seconds * 1e3 / units

    def per(value: float) -> float:
        return value / units

    for op in ("conv_nd", "matmul", "softmax", "batch_norm"):
        out[f"tensor.{op}.fwd_ms"] = (ms(tr.total(f"tensor.{op}")), "ms")
        out[f"tensor.{op}.bwd_ms"] = (ms(tr.total(f"tensor.{op}.bwd")), "ms")
    conv_macs = counts.get("macs.conv_nd", 0)
    conv_fwd, conv_bwd = tr.total("tensor.conv_nd"), tr.total("tensor.conv_nd.bwd")
    out["tensor.conv_nd.calls"] = (per(tr.calls("tensor.conv_nd")), "count")
    out["tensor.conv_nd.macs"] = (per(conv_macs), "count")
    # computed: 2 FLOPs per MAC forward; backward does dW and dX, twice the MACs
    out["tensor.conv_nd.fwd_gflops"] = (2 * conv_macs / conv_fwd / 1e9 if conv_fwd else 0.0,
                                       "GFLOP/s")
    out["tensor.conv_nd.bwd_gflops"] = (4 * conv_macs / conv_bwd / 1e9 if conv_bwd else 0.0,
                                       "GFLOP/s")
    out["tensor.matmul.macs"] = (per(counts.get("macs.matmul", 0)), "count")
    for category in ("resample", "layout", "elementwise"):
        seconds = sum(tr.self_time(f"tensor.{op}") + tr.self_time(f"tensor.{op}.bwd")
                      for op, cat in OP_CATEGORIES.items() if cat == category)
        out[f"tensor.{category}_ms"] = (ms(seconds), "ms")
    out["tensor.graph_nodes"] = (per(counts.get("graph_nodes", 0)), "count")
    out["tensor.backward.tape_ms"] = (ms(tr.self_time("tensor.backward")), "ms")

    tam_calls = tr.calls("attention.tam_forward")
    out["attention.fwd_ms"] = (ms(tr.total("attention.tam_forward")), "ms")
    out["attention.bwd_ms"] = (ms(tr.bwd_by_layer.get("attention", 0.0)), "ms")
    out["attention.graph_nodes_per_call"] = (
        counts.get("graph_nodes.attention", 0) / tam_calls if tam_calls else 0.0, "count")
    out["attention.pairs"] = (per(counts.get("attention.pairs", 0)), "count")
    out["attention.max_positions"] = (float(tr.max_positions), "count")
    out["attention.logits_mb"] = (per(counts.get("attention.logits_bytes", 0)) / 2 ** 20,
                                  "MiB")

    unet_fwd = tr.total("unet.forward")
    out["unet.fwd_ms"] = (ms(unet_fwd), "ms")
    out["unet.backbone_fwd_ms"] = (ms(unet_fwd - tr.attention_in_unet), "ms")
    out["unet.backbone_bwd_ms"] = (ms(tr.bwd_by_layer.get("unet", 0.0)), "ms")
    out["losses.fwd_ms"] = (ms(tr.total("losses.dice_ce_loss")), "ms")
    out["losses.bwd_ms"] = (ms(tr.bwd_by_layer.get("losses", 0.0)), "ms")
    out["optim.step_ms"] = (ms(tr.total("optim.step")), "ms")
    out["optim.param_elems"] = (float(counts.get("optim.param_elems", 0)), "count")

    steps = [s * 1e3 for s in tr.samples.get("experiments.step_s", [])]
    out["experiments.step_ms_p50"] = (_percentile(steps, 50), "ms")
    out["experiments.step_ms_p90"] = (_percentile(steps, 90), "ms")
    out["experiments.step_samples"] = (float(len(steps)), "count")
    out["experiments.val_ms"] = (ms(counts.get("experiments.val_s", 0.0)), "ms")
    out["experiments.checkpoint_ms"] = (ms(tr.total("tnsr.write_bundle")), "ms")
    cases = [s * 1e3 for s in tr.samples.get("experiments.eval_case_s", [])]
    out["experiments.eval_case_ms_p50"] = (_percentile(cases, 50), "ms")
    out["experiments.eval_case_ms_p90"] = (_percentile(cases, 90), "ms")
    out["experiments.eval_case_samples"] = (float(len(cases)), "count")

    rows = counts.get("metrics.surface_rows", 0)
    out["metrics.add_case_ms"] = (ms(tr.total("metrics.add_case")), "ms")
    out["metrics.edt_ms"] = (ms(tr.total("metrics.edt")), "ms")
    out["metrics.edt_calls_per_label"] = (tr.calls("metrics.edt") / rows if rows else 0.0,
                                          "count")
    out["tnsr.write_ms"] = (ms(tr.total("tnsr.write_array")
                               + tr.total("tnsr.atomic_write_text")), "ms")
    out["tnsr.read_ms"] = (ms(tr.total("tnsr.read_array") + tr.total("tnsr.read_json")),
                           "ms")
    out["tnsr.bytes_written"] = (per(counts.get("tnsr.bytes_written", 0)), "count")
    out["tnsr.bytes_read"] = (per(counts.get("tnsr.bytes_read", 0)), "count")
    out["synth.load_dataset_ms"] = (ms(tr.total("synth.load_dataset")), "ms")

    out["gradcheck.loss_evals"] = (per(counts.get("gradcheck.loss_evals", 0)), "count")
    out["gradcheck.eval_ms"] = (ms(tr.total("gradcheck.loss_eval")), "ms")
    for scope in ("ops", "tam", "end2end"):
        out[f"gradcheck.{scope}_s"] = (per(tr.total(f"gradcheck.suite.{scope}")), "s")
    unit_s = wall_s / units
    for name in SHARED_TIMINGS:
        value, unit = out[name]
        seconds = value / 1e3 if unit == "ms" else value
        out[name.rsplit("_", 1)[0] + "_pct"] = (100.0 * seconds / unit_s, "%")
    return out
