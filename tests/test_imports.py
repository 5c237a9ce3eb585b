"""Import contract: scipy.ndimage loads on the first surface metric only.

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


def test_ndimage_loads_on_first_surface_metric():
    proc = run_fresh("""
        import math, sys
        import numpy as np
        from tamseg.cli import main
        from tamseg import gradcheck, metrics

        assert main(["cost", "--configs", "C1"]) == 0
        assert all(c.passed for c in gradcheck.run_suite("ops", seeds=[0]))
        assert "scipy.ndimage._nd_image" not in sys.modules, "loaded before any metric"

        a, b = np.zeros((6, 7), np.int64), np.zeros((6, 7), np.int64)
        a[1, 1] = b[4, 5] = 1
        spacing = (1.0, 2.0)
        hd = metrics.hausdorff(metrics.SegmentationMask(a, spacing),
                               metrics.SegmentationMask(b, spacing), 1)
        assert "scipy.ndimage._nd_image" in sys.modules
        assert hd == math.sqrt(3.0 ** 2 + (4 * 2.0) ** 2), hd
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
