"""FitzHugh-Nagumo vector field, exact derivatives, and cubic root solving.

Everything downstream (singular orbits, slow manifolds, stiff integration,
bifurcation location, canard detection) is built on the functions here, so
all evaluation is exact-formula: these are the oracles for every other
module's tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum


class TimeScale(Enum):
    """Time parametrization: FAST is t, SLOW is tau = eps * t."""

    FAST = "fast"
    SLOW = "slow"


@dataclass(frozen=True)
class SystemParams:
    """Parameter triple (b, c, eps); eps = 0 selects the singular case."""

    b: float
    c: float
    eps: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.b) and math.isfinite(self.c)):
            raise ValueError("b and c must be finite")
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise ValueError("eps must be finite and >= 0")


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, y) in the phase plane; x is the fast variable."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("phase point coordinates must be finite")

    def mirrored(self) -> "PhasePoint":
        return PhasePoint(-self.x, -self.y)


@dataclass(frozen=True)
class Jacobian2x2:
    a11: float
    a12: float
    a21: float
    a22: float

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    @property
    def eigenvalues(self) -> tuple[complex, complex]:
        """Eigenvalue pair from the characteristic polynomial.

        Returned so that lam_plus + lam_minus = trace and
        lam_plus * lam_minus = det to rounding accuracy.
        """
        tr, dt = self.trace, self.det
        disc = cmath.sqrt(complex(tr * tr - 4.0 * dt, 0.0))
        return (0.5 * (tr + disc), 0.5 * (tr - disc))


# -- vector field -------------------------------------------------------------


def eval_fast(p: PhasePoint) -> float:
    """Fast component f(x, y) = -y + 4x - x^3."""
    return f_scalar(p.x, p.y)


def eval_slow(p: PhasePoint, params: SystemParams) -> float:
    """Slow component g(x, y) = x - b*y - c."""
    return g_scalar(p.x, p.y, params.b, params.c)


def f_scalar(x: float, y: float) -> float:
    # x*x*x (not x**3) keeps f exactly odd in floating point
    return -y + 4.0 * x - x * x * x


def g_scalar(x: float, y: float, b: float, c: float) -> float:
    return x - b * y - c


def fx(x: float) -> float:
    """df/dx = 4 - 3x^2."""
    return 4.0 - 3.0 * x * x


F_Y = -1.0  # df/dy
G_X = 1.0  # dg/dx


def phi(x: float) -> float:
    """Cubic parametrizing the critical manifold: phi(x) = 4x - x^3."""
    return 4.0 * x - x * x * x


def jacobian(p: PhasePoint, params: SystemParams, scale: TimeScale = TimeScale.FAST) -> Jacobian2x2:
    """Jacobian of the vector field at p.

    Fast scale: [[4 - 3x^2, -1], [eps, -eps*b]].  Slow scale is the same
    matrix divided by eps and therefore requires eps > 0.
    """
    a11 = fx(p.x)
    a12 = F_Y
    a21 = params.eps * G_X
    a22 = -params.eps * params.b
    if scale is TimeScale.SLOW:
        if params.eps == 0.0:
            raise ValueError("slow-scale jacobian is undefined for eps = 0")
        inv = 1.0 / params.eps
        return Jacobian2x2(a11 * inv, a12 * inv, a21 * inv, a22 * inv)
    return Jacobian2x2(a11, a12, a21, a22)


# -- real cubic solver --------------------------------------------------------

_DISC_TOL = 1e-12


def solve_cubic(a3: float, a2: float, a1: float, a0: float) -> list[tuple[float, int]]:
    """All real roots of a3*x^3 + a2*x^2 + a1*x + a0 = 0 with multiplicities.

    Closed form: trigonometric branch when three real roots, Cardano single
    root otherwise; a near-zero discriminant (relative to the coefficient
    scale) collapses to the exact double/triple root configuration so fold
    geometry stays stable.  Each simple root gets one Newton polish step.

    Returns [(root, multiplicity), ...] sorted ascending.  Raises ValueError
    when a3 = 0: no caller solves a lower-degree equation.
    """
    if a3 == 0.0:
        raise ValueError("solve_cubic requires a nonzero leading coefficient a3")

    b, c, d = a2 / a3, a1 / a3, a0 / a3
    # depressed form t^3 + p t + q with x = t - b/3
    shift = b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b * b * b / 27.0 - b * c / 3.0 + d

    disc = -4.0 * p * p * p - 27.0 * q * q
    # scale by the cubic's own magnitude so near-triple configurations with
    # tiny coefficients are still resolved into distinct roots
    scale = 4.0 * abs(p) ** 3 + 27.0 * q * q

    if scale == 0.0:
        roots = [(-shift, 3)]
    elif abs(disc) <= _DISC_TOL * scale:
        if abs(p) <= _DISC_TOL * (1.0 + abs(q)) ** (2.0 / 3.0):
            roots = [(-shift, 3)]
        else:
            # double root at -3q/(2p)... derived from p,q of the tangent case
            t_double = -1.5 * q / p
            t_single = 3.0 * q / p
            roots = sorted([(t_single - shift, 1), (t_double - shift, 2)])
    elif disc > 0.0:
        # three distinct real roots: trigonometric method
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = max(-1.0, min(1.0, arg))
        theta = math.acos(arg) / 3.0
        ts = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
        roots = sorted((t - shift, 1) for t in ts)
    else:
        # one real root: Cardano with sign-preserving cube roots
        s = math.sqrt(q * q / 4.0 + p * p * p / 27.0)
        u = _cbrt(-q / 2.0 + s)
        v = _cbrt(-q / 2.0 - s)
        roots = [(u + v - shift, 1)]

    return [(_polish(r, a3, a2, a1, a0) if m == 1 else r, m) for r, m in roots]


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _polish(r: float, a3: float, a2: float, a1: float, a0: float) -> float:
    val = ((a3 * r + a2) * r + a1) * r + a0
    der = (3.0 * a3 * r + 2.0 * a2) * r + a1
    if der != 0.0 and math.isfinite(val / der):
        step = val / der
        if abs(step) < 1.0:
            return r - step
    return r


def phi_roots_with_multiplicity(y: float) -> list[tuple[float, int]]:
    """All real solutions of phi(x) = y with multiplicities, ascending."""
    return solve_cubic(-1.0, 0.0, 4.0, -y)
