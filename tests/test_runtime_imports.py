"""The library runs on numpy alone: no scipy module is imported at run time,
and an import that finds the compiled step loop in its cache starts no
compiler."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


_WARM_IMPORT = """
import sys
import fhn, fhn.bifurcation, fhn.canard, fhn.cli, fhn.dynamics, fhn.singular, fhn.slow_manifold
print(fhn.dynamics.kernel(), sorted(m for m in ("subprocess", "hashlib") if m in sys.modules))
"""


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_library_imports_no_scipy():
    assert _run(_PROBE) == "[]"


def test_warm_import_starts_no_compiler():
    # the first import builds the library if this checkout has none yet;
    # the second finds it: subprocess (9 ms) and hashlib (4 ms) stay out of
    # the set-up time of every process after the first
    kernel = _run(_WARM_IMPORT).split()[0]
    if kernel != "c":
        pytest.skip("the compiled step loop cannot be built on this host")
    assert _run(_WARM_IMPORT) == "c []"
