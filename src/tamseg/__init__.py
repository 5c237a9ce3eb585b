"""Motion-enhanced segmentation with a plug-in cross-time attention module.

Submodules:

- ``tensor``: numpy-backed reverse-mode autodiff engine and op set
- ``optim``: Adam
- ``attention``: the cross-time attention module
- ``unet``: segmentation backbones and the named configuration sweep
- ``losses``: compound Dice + cross-entropy training loss
- ``metrics``: Dice, Hausdorff, and mean average surface distance, in
  numpy alone (exact all-pairs boundary distances, no ``scipy.ndimage``)
- ``synth``: synthetic contracting-cavity sequences with exact masks
- ``costs``: closed-form MAC/FLOP/parameter accounting
- ``gradcheck``: finite-difference verification of the engine
- ``experiments``: training, evaluation, and ablation drivers
- ``tnsr``: the on-disk tensor and bundle format
- ``workers``: the forked worker-process map behind evaluation, gradient
  checks and training cells

Importing the package pins BLAS and OpenMP to one thread unless set; numpy
must load after that, so heavy imports stay out of package import time.
"""

import importlib
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

_SUBMODULES = ("tensor", "optim", "attention", "unet", "losses", "metrics",
               "synth", "costs", "gradcheck", "experiments", "tnsr", "errors",
               "workers", "cli")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
