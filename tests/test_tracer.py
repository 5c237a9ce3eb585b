"""The benchmark tracer still finds every name it rebinds in the package."""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from tamseg import costs, gradcheck, optim, synth, tensor, tnsr, unet
from tamseg.attention import FeatureStack, TamConfig, TamParams, tam_forward
from tamseg.tensor import Tensor, backward

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_step_uninstall():
    module = load_tracer()
    step, conv = optim.Adam.step, tensor.conv_nd
    tracer = module.Tracer()
    try:
        tracer.install()
        assert tracer._patches
        assert optim.Adam.step is not step and tensor.conv_nd is not conv
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = optim.Adam([p], lr=0.1)
        backward(tensor.tsum(p * p))
        opt.step()
        assert tracer.calls("optim.step") == 1
        assert tracer.counts["optim.param_elems"] == 2
    finally:
        tracer.uninstall()
    assert optim.Adam.step is step and tensor.conv_nd is conv


def test_traced_macs_match_counter_and_cost_table():
    # what the benchmark's --trace 1 MAC self-check asserts, on small models
    module = load_tracer()
    config = unet.BackboneConfig(levels=5, channels=(2, 4, 4, 8, 8), heads=2)
    rng = np.random.default_rng(0)
    tracer = module.Tracer()
    try:
        tracer.install()
        for config_id, frames in (("C1", 2), ("C2", 3), ("C4", 3)):
            model = unet.build_model(config_id, config, rng)
            inputs = [Tensor(rng.standard_normal((1, 16, 16)).astype(np.float32))
                      for _ in range(frames)]
            before = tracer.counts.get("macs.conv_nd", 0) + tracer.counts.get("macs.matmul", 0)
            backwards = tracer.calls("tensor.conv_nd.bwd")
            with tensor.count_macs() as counter:
                probs = tensor.concat(model.forward(inputs, training=True), axis=0)
            weights = Tensor(rng.standard_normal(probs.shape).astype(np.float32))
            tensor.backward(tensor.tsum(probs * weights))
            traced = (tracer.counts.get("macs.conv_nd", 0)
                      + tracer.counts.get("macs.matmul", 0) - before)
            closed_form = costs.configuration_report(
                config_id, config, (16, 16), frames).total_macs
            assert traced == counter.total == closed_form > 0, config_id
            assert tracer.calls("tensor.conv_nd.bwd") > backwards, config_id
    finally:
        tracer.uninstall()


def test_every_traced_op_is_recorded():
    # an op the tape misses is still correct, but every gradient check that
    # reads it would quietly fall back to full evaluation
    ops = set(load_tracer().OP_CATEGORIES)
    taped = set()
    for _, _, build_loss in gradcheck._op_cases(np.random.default_rng(0)):
        with tensor.record() as tape:
            build_loss()
        taped.update(name for name, *_ in tape)
    assert taped == ops, (sorted(ops - taped), sorted(taped - ops))


def small_tam_case():
    rng = np.random.default_rng(0)
    params = TamParams.initialize(TamConfig(channels=4, d_embed=4, heads=2),
                                  rng, dtype=np.float64)
    frames = [Tensor(rng.uniform(-1.0, 1.0, (4, 2, 2)), requires_grad=True)
              for _ in range(2)]
    weights = [Tensor(rng.uniform(-1.0, 1.0, (4, 2, 2))) for _ in range(2)]

    def build_loss():
        out = tam_forward(FeatureStack(frames=list(frames)), params, training=True)
        return tensor.tsum(out.frames[0] * weights[0]) + tensor.tsum(out.frames[1] * weights[1])

    return build_loss, {"frame_0": frames[0]}


def test_traced_check_times_the_replays():
    build_loss, tensors = small_tam_case()
    samples = (1, 2, 3)

    def check(sample):
        return gradcheck.check_gradients(build_loss, tensors, sample=sample,
                                         rng=np.random.default_rng(sample))

    untraced = [check(s) for s in samples]
    module = load_tracer()
    tracer = module.Tracer()
    softmax, evals = [], []
    try:
        tracer.install()
        traced = []
        for s in samples:
            before = tracer.calls("tensor.softmax"), tracer.counts.get("gradcheck.loss_evals", 0)
            traced.append(check(s))
            softmax.append(tracer.calls("tensor.softmax") - before[0])
            evals.append(tracer.counts["gradcheck.loss_evals"] - before[1])
    finally:
        tracer.uninstall()
    assert traced == untraced
    # two replays per difference, each rerunning the same softmax calls
    assert softmax[2] - softmax[1] == softmax[1] - softmax[0] > 0
    # replays are not loss evaluations: the recorded loss and the guard's
    assert evals == [2, 2, 2]


def test_edt_traced_while_ndimage_is_lazy():
    # a fresh interpreter, so scipy.ndimage has not been loaded by another test
    code = textwrap.dedent(f"""
        import importlib.util, sys
        import numpy as np
        from tamseg import metrics

        assert "scipy.ndimage._nd_image" not in sys.modules
        spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(TRACER)!r})
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        a, b = np.zeros((6, 7), np.int64), np.zeros((6, 7), np.int64)
        a[1:3, 1:4] = b[3:5, 2:6] = 1
        masks = metrics.SegmentationMask(a, (1.0, 1.0)), metrics.SegmentationMask(b, (1.0, 1.0))
        tracer = module.Tracer()
        try:
            tracer.install()
            traced = metrics.hausdorff(*masks, 1)
            assert tracer.calls("metrics.edt") == 2, tracer.calls("metrics.edt")
        finally:
            tracer.uninstall()
        assert metrics.ndimage is sys.modules["scipy.ndimage"]
        assert metrics.hausdorff(*masks, 1) == traced
        assert metrics.ndimage.distance_transform_edt(np.ones((2, 2))).shape == (2, 2)
        print("ok")
    """)
    env = dict(os.environ)
    src = str(TRACER.parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_traced_bundle_and_dataset_round_trips(tmp_path):
    # the benchmark reads checkpoint time from the tnsr.write_bundle span and
    # read bytes from read_array, which every flat payload is read through
    module = load_tracer()
    tracer = module.Tracer()
    arrays = {"w": np.ones((2, 3), np.float32), "b": np.zeros(4, np.float32)}
    try:
        tracer.install()
        tnsr.write_bundle(tmp_path / "ck", arrays, {"step": 1})
        back, _ = tnsr.read_bundle(tmp_path / "ck")
        synth.write_dataset(tmp_path / "ds", {
            "train": [synth.SequenceSpec(extents=(32, 32), frames=2)]})
        (sample,) = synth.load_dataset(tmp_path / "ds")["train"]
    finally:
        tracer.uninstall()
    np.testing.assert_array_equal(back["w"], arrays["w"])
    assert sample.frames == 2
    payloads = [tmp_path / "ck" / "tensors.tnsr", tmp_path / "ds" / "frames.tnsr",
                tmp_path / "ds" / "masks.tnsr"]
    assert tracer.counts["tnsr.bytes_read"] == sum(p.stat().st_size for p in payloads)
    assert tracer.calls("tnsr.write_bundle") == 1
    assert tracer.calls("synth.write_dataset") == 1
