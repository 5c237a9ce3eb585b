"""The benchmark tracer still finds every name it rebinds in the package."""

import importlib.util
from pathlib import Path

import numpy as np

from tamseg import optim, tensor
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
