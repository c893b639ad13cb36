"""The library runs on numpy alone: no scipy module is imported at run time."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys
import fhn.bifurcation, fhn.canard, fhn.cli, fhn.dynamics, fhn.singular, fhn.slow_manifold
import numpy as np
from fhn.canard import classify_canard
from fhn.core import SystemParams
from fhn.dynamics import LimitCycle, Stability
from fhn.singular import relaxation_period

relaxation_period(SystemParams(0.2, 0.0, 0.0))
relaxation_period(SystemParams(0.25, 0.0, 0.0))
t = np.linspace(0.0, 1.0, 200)
x = 1.5 * np.cos(2.0 * np.pi * t)
loop = LimitCycle(t, x, 4.0 * x - x**3, 1.0, 1.0, Stability.STABLE, True, 0.0, 0.0)
classify_canard(loop)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_library_imports_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
