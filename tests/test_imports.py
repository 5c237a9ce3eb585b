"""Import contract: scoring a case never loads scipy.ndimage.

Each check runs in a fresh interpreter, since what an import loads depends on
what the process has imported before.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_scoring_never_loads_ndimage(tmp_path):
    proc = run_fresh(f"""
        import math, sys
        import numpy as np
        from tamseg.cli import main
        from tamseg import experiments, gradcheck, metrics, workers

        workers.cpu_count = lambda: 1  # score in this process, where sys.modules is seen
        root = {str(tmp_path)!r}
        assert main(["cost", "--configs", "C1"]) == 0
        assert all(c.passed for c in gradcheck.run_suite("ops", seeds=[0]))

        a, b = np.zeros((6, 7), np.int64), np.zeros((6, 7), np.int64)
        a[1, 1] = b[4, 5] = 1
        spacing = (1.0, 2.0)
        masks = metrics.SegmentationMask(a, spacing), metrics.SegmentationMask(b, spacing)
        hd = metrics.hausdorff(*masks, 1)
        assert hd == math.sqrt(3.0 ** 2 + (4 * 2.0) ** 2), hd
        assert metrics.masd(*masks, 1) == hd

        experiments.make_dataset(root + "/ds", seed=0, size=32, frames=2, tier="good",
                                 counts={{"train": 1, "val": 1, "test": 1}},
                                 dropout_target="unannotated")
        experiments.train(experiments.ExperimentConfig(
            dataset=root + "/ds", outdir=root + "/run", levels=2, channels=(4, 8),
            heads=1, steps=2, frames=2, tier="good", eval_every=2))
        experiments.evaluate(root + "/run/checkpoint_best", root + "/ds", root + "/eval")
        experiments.evaluate(None, root + "/ds", root + "/oracle", oracle=True)
        for name in ("scipy.ndimage._nd_image", "scipy.special"):
            assert name not in sys.modules, name + " was loaded"
        print("ok")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_missing_scipy_fails_the_import():
    proc = run_fresh("""
        import sys
        sys.modules["scipy"] = None
        try:
            import tamseg.metrics
        except ImportError:
            print("ImportError")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ImportError"
