"""Reference values and independent solvers the benchmark checks fhn against.

Nothing here calls fhn.  Every reference is either a landmark value quoted by
the source paper (arXiv 2411.11209, "fhn-fastslow"; the same anchors pin
tests/test_acceptance.py), a closed form, or an independent scipy solution
computed outside the timed region.

A check yields a ratio: deviation from the reference divided by the stated
tolerance.  A ratio above 1 fails the request it belongs to.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp

FOLD_X = 2.0 / math.sqrt(3.0)
FOLD_Y = 16.0 / (3.0 * math.sqrt(3.0))
LANDING_X = 4.0 / math.sqrt(3.0)

# -- paper anchors (value, tolerance) -----------------------------------------

# canard explosion of the b = 0 family; paper values, acceptance criterion 8
CANARD_C = {0.5: (1.150077, 1e-4), 0.1: (1.153794, 1e-5)}
# homoclinic locus of the c = 0 family at eps = 0.5; paper value, criterion 6
HOMOCLINIC_B = (0.36932, 1e-3)
# singular relaxation period at b = c = 0: 12 - 8 ln 2 in closed form, criterion 1
PERIOD_B0 = (12.0 - 8.0 * math.log(2.0), 1e-6)
# Singular relaxation period at (b, c) = (0.2, 0).  The paper quotes 3.61, which
# is the single-branch slow transit; the period defined by the two-branch
# transit integral (and confirmed by eps > 0 simulation) is 7.2226, quoted to
# four decimals, so the tolerance is one unit of the last quoted digit.  The
# acceptance test that asserts 3.61 is known to fail for this reason.
PERIOD_B02 = (7.2226, 1e-4)
# pitchfork of the c = 0 family, criterion 5
PITCHFORK_B = 0.25
# Hopf pair of the b = 0 family at c = +-2/sqrt(3), criterion 3
HOPF_C = 2.0 / math.sqrt(3.0)
# exact mirror symmetry for c = 0: mismatch bound 10 * tol, as in criterion 10
MIRROR_FACTOR = 10.0
# global endpoint error of a trajectory, relative to 1 + |u|: 10 * tol, the same
# factor the acceptance suite allows for the mirror mismatch
GLOBAL_FACTOR = 10.0


def hopf_b(eps: float) -> float:
    """Hopf of E+- in the c = 0 family: (-4 + sqrt(16 + 3 eps)) / eps."""
    return (-4.0 + math.sqrt(16.0 + 3.0 * eps)) / eps


def ratio(deviation: float, tolerance: float) -> float:
    return abs(deviation) / tolerance


# -- closed forms -------------------------------------------------------------


def f(x, y):
    return -y + 4.0 * x - x * x * x


def g(x, y, b, c):
    return x - b * y - c


def cubic_real_roots(b: float, c: float) -> list[float]:
    """Real roots of b x^3 + (1 - 4b) x - c by numpy's companion-matrix solver."""
    if b == 0.0:
        return [c]
    roots = np.roots([b, 0.0, 1.0 - 4.0 * b, -c])
    scale = 1.0 + float(np.max(np.abs(roots)))
    return sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-7 * scale)


def branch_root(y: float, left: bool) -> float:
    """Root of 4x - x^3 = y on the left (x < -2/sqrt3) or right attracting branch."""
    roots = [float(r.real) for r in np.roots([-1.0, 0.0, 4.0, -y]) if abs(r.imag) < 1e-9]
    picks = [r for r in roots if (r < -FOLD_X if left else r > FOLD_X)]
    x = picks[0]
    for _ in range(3):  # Newton polish on the cubic
        x -= (4.0 * x - x ** 3 - y) / (4.0 - 3.0 * x * x)
    return x


def slow_graph(y: float, left: bool, b: float, c: float, eps: float) -> tuple[float, float, float]:
    """(h0, h1, h0 + eps*h1) from the invariance equation of the graph."""
    x0 = branch_root(y, left)
    x1 = g(x0, y, b, c) / (4.0 - 3.0 * x0 * x0) ** 2
    return x0, x1, x0 + eps * x1


def invariance_defect(y: float, left: bool, b: float, c: float, eps: float) -> float:
    """eps * dh/dy * g - f on the first-order graph, slope by Richardson extrapolation."""
    def h(v):
        return slow_graph(v, left, b, c, eps)[2]

    d = 1e-3 * max(1.0, abs(y))
    d1 = (h(y + d) - h(y - d)) / (2.0 * d)
    d2 = (h(y + d / 2) - h(y - d / 2)) / d
    slope = (4.0 * d2 - d1) / 3.0
    x = h(y)
    return eps * slope * g(x, y, b, c) - f(x, y)


def relaxation_period(b: float, c: float) -> float:
    """Two-branch singular period: the transit integral of (4 - 3x^2) / (b x^3 + (1-4b) x - c)."""
    def integrand(x):
        return (4.0 - 3.0 * x * x) / (b * x ** 3 + (1.0 - 4.0 * b) * x - c)

    right, _ = quad(integrand, LANDING_X, FOLD_X, epsabs=1e-12, epsrel=1e-13, limit=400)
    left, _ = quad(integrand, -LANDING_X, -FOLD_X, epsabs=1e-12, epsrel=1e-13, limit=400)
    return right + left


def transit_clear(b: float, c: float, margin: float = 0.05) -> bool:
    """True when no equilibrium lies within `margin` of either slow transit."""
    for r in cubic_real_roots(b, c):
        if FOLD_X - margin <= abs(r) <= LANDING_X + margin:
            return False
    return True


# -- independent stiff solution -----------------------------------------------


def radau_endpoint(x0, y0, b, c, eps, t_end, fast: bool, direction: int, rtol: float):
    """End state of the scaled field by scipy's Radau IIA with the exact Jacobian."""
    if fast:
        sx, sy = float(direction), direction * eps
    else:
        sx, sy = direction / eps, float(direction)

    def rhs(t, u):
        x, y = u
        return [sx * f(x, y), sy * g(x, y, b, c)]

    def jac(t, u):
        x = u[0]
        return [[sx * (4.0 - 3.0 * x * x), -sx], [sy, -sy * b]]

    sol = solve_ivp(rhs, (0.0, t_end), [x0, y0], method="Radau", rtol=rtol, atol=rtol, jac=jac)
    if sol.status != 0:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return float(sol.y[0, -1]), float(sol.y[1, -1])


# Endpoints of the eps-family anchor trajectories (scripts/recipes/
# trajectories_eps_family.json: b = c = 0, start (-2.8, 1.64), slow time 20),
# solved once by Radau IIA at rtol = atol = 1e-13; regenerate with
# `python3 perfbench/oracle.py`.  Stored because each solve takes seconds.
EPS_FAMILY_START = (-2.8, 1.64)
EPS_FAMILY_T = 20.0
EPS_FAMILY_END = {
    1.0: (-2.276622916512879, 2.500107943476783),
    0.5: (-1.560276703744694, -2.656211239396056),
    0.1: (1.7441032510285437, 1.7047437244921344),
}


if __name__ == "__main__":
    for eps in EPS_FAMILY_END:
        end = radau_endpoint(*EPS_FAMILY_START, 0.0, 0.0, eps, EPS_FAMILY_T, False, 1, 1e-13)
        print(f"    {eps}: ({end[0]!r}, {end[1]!r}),")
