"""The benchmark tracer still finds every name it rebinds in the package."""

import importlib.util
from pathlib import Path

import numpy as np

from tamseg import costs, optim, tensor, unet
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
