"""Singular-limit machinery: critical manifold, folds, reduced flow, orbits.

The critical manifold is y = phi(x) = 4x - x^3 with fold abscissae at
x = +-2/sqrt(3).  Orbits of the eps = 0 system are composed combinatorially
from horizontal fast segments and on-manifold slow segments.  Every finite
slow-segment duration, and the relaxation period, is the same closed-form
integral of the reduced flow xdot = psi(x) (_transit_time).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    PhasePoint,
    SystemParams,
    eval_fast,
    fx,
    phi,
    phi_roots_with_multiplicity,
    solve_cubic,
)
from .errors import (
    EquilibriumInPathError,
    FoldSingularityError,
    NotAnEquilibriumError,
    OnManifoldError,
)

FOLD_X = 2.0 / math.sqrt(3.0)
FOLD_Y = 16.0 / (3.0 * math.sqrt(3.0))

# jump landing abscissa on the opposite branch, |x| = 4/sqrt(3)
LANDING_X = 4.0 / math.sqrt(3.0)

_FOLD_DENOM_TOL = 1e-12
_EQ_RESIDUAL_TOL = 1e-10
_ON_MANIFOLD_TOL = 1e-9
_REVISIT_TOL = 1e-9
_MAX_JUMPS = 10


class Branch(Enum):
    LEFT_ATTRACTING = "left"
    MIDDLE_REPELLING = "middle"
    RIGHT_ATTRACTING = "right"


class SegmentKind(Enum):
    FAST = "fast"
    SLOW = "slow"


class Fate(Enum):
    EQUILIBRIUM_REACHED = "EquilibriumReached"
    DIVERGES_PLUS_Y = "DivergesPlusY"
    DIVERGES_MINUS_Y = "DivergesMinusY"
    PERIODIC_CYCLE = "PeriodicCycle"
    DEGENERATE = "Degenerate"


def fold_points() -> tuple[PhasePoint, PhasePoint]:
    """Fold points (P-, P+) = -+(2/sqrt(3), 16/(3 sqrt(3))), closed form."""
    return (PhasePoint(-FOLD_X, -FOLD_Y), PhasePoint(FOLD_X, FOLD_Y))


def slow_flow_numerator(x: float, params: SystemParams) -> float:
    """g restricted to the critical manifold: b*x^3 + (1 - 4b)*x - c.

    Equals eval_slow((x, phi(x))); its roots are the equilibria of the full
    system.
    """
    b = params.b
    return b * x * x * x + (1.0 - 4.0 * b) * x - params.c


def slow_flow(x: float, params: SystemParams) -> float:
    """Reduced flow psi(x) = (b*x^3 + (1-4b)*x - c) / (4 - 3x^2)."""
    denom = fx(x)
    if abs(denom) < _FOLD_DENOM_TOL:
        raise FoldSingularityError(f"reduced flow undefined at fold abscissa x={x!r}")
    return slow_flow_numerator(x, params) / denom


def slow_flow_linearization(x_star: float, params: SystemParams) -> float:
    """d psi/dx at a reduced-flow equilibrium: (1 - b*(4-3x*^2)) / (4-3x*^2)."""
    denom = fx(x_star)
    if abs(denom) < _FOLD_DENOM_TOL:
        raise FoldSingularityError(f"x*={x_star!r} is a fold abscissa")
    if abs(slow_flow_numerator(x_star, params) / denom) > _EQ_RESIDUAL_TOL:
        raise NotAnEquilibriumError(f"psi({x_star!r}) != 0")
    return (1.0 - params.b * denom) / denom


def equilibrium_abscissae(params: SystemParams) -> list[tuple[float, int]]:
    """Real roots (with multiplicity) of the slow-flow numerator, ascending."""
    b = params.b
    if abs(b) < 1e-14:
        # cubic degenerates; avoids cancellation in the cubic path
        return [(params.c, 1)]
    return solve_cubic(b, 0.0, 1.0 - 4.0 * b, -params.c)


@dataclass(frozen=True)
class OrbitSegment:
    kind: SegmentKind
    start: PhasePoint
    end: PhasePoint
    duration: float  # slow-time units; 0 for fast segments

    def sample(self, n: int = 100) -> list[PhasePoint]:
        """n points along the segment: horizontal for fast, on C0 for slow."""
        xs = [self.start.x + (self.end.x - self.start.x) * k / (n - 1) for k in range(n)]
        if self.kind is SegmentKind.FAST:
            return [PhasePoint(x, self.start.y) for x in xs]
        return [PhasePoint(x, phi(x)) for x in xs]


@dataclass
class SingularOrbit:
    segments: list[OrbitSegment]
    fate: Fate
    cycle_start: int | None = None  # index of the first segment of the periodic part
    params: SystemParams | None = None

    def cycle_period(self) -> float:
        if self.fate is not Fate.PERIODIC_CYCLE or self.cycle_start is None:
            raise ValueError("orbit is not periodic")
        return sum(s.duration for s in self.segments[self.cycle_start :])


def classify_singular_fate(start: PhasePoint, params: SystemParams) -> SingularOrbit:
    """Compose the eps = 0 orbit from `start` and determine its fate.

    The fate is decided combinatorially from the branch membership and
    ordering of the slow-flow equilibria relative to the fold band; slow
    segments end at the fold abscissae, where the orbit jumps to x = -2 x_f
    on the other attracting branch.
    """
    if params.eps != 0.0:
        raise ValueError("classify_singular_fate requires eps = 0")
    if abs(eval_fast(start)) <= _ON_MANIFOLD_TOL:
        raise OnManifoldError(f"start {start} lies on the critical manifold")

    roots = equilibrium_abscissae(params)
    segments: list[OrbitSegment] = []
    # each landing on C0, with the index of the slow segment that leaves it
    landings: list[tuple[PhasePoint, int]] = []

    # initial horizontal fast segment to the first root in the flow direction
    target, mult = _fast_target(start)
    land = PhasePoint(target, start.y)
    segments.append(OrbitSegment(SegmentKind.FAST, start, land, 0.0))

    jumps = 0
    while True:
        if mult == 2:
            # on a fold, landed or arrived at: jump
            if jumps >= _MAX_JUMPS:
                raise RuntimeError("no fate after the fold-jump budget; degenerate parameters")
            land, segment = _jump_from_fold(land)
            segments.append(segment)
            jumps += 1
            mult = 1

        hit = _equilibrium_at(land.x, roots)
        if hit is not None:
            fate = (
                Fate.DEGENERATE
                if slow_flow_linearization(hit, params) > 0.0
                else Fate.EQUILIBRIUM_REACHED
            )
            return SingularOrbit(segments, fate, None, params)

        for prev, cycle_start in landings:
            if math.hypot(prev.x - land.x, prev.y - land.y) <= _REVISIT_TOL:
                # revisit: the orbit is periodic from that landing onward
                return SingularOrbit(segments, Fate.PERIODIC_CYCLE, cycle_start, params)
        landings.append((land, len(segments)))

        end_kind, x_end = _slow_segment_end(land.x, params, roots)
        end = PhasePoint(x_end, phi(x_end))
        duration = _transit_time(land.x, x_end, params, roots) if end_kind != "equilibrium" else math.inf
        segments.append(OrbitSegment(SegmentKind.SLOW, land, end, duration))

        if end_kind == "equilibrium":
            return SingularOrbit(segments, Fate.EQUILIBRIUM_REACHED, None, params)
        if end_kind == "diverge":
            fate = Fate.DIVERGES_PLUS_Y if land.x < 0 else Fate.DIVERGES_MINUS_Y
            return SingularOrbit(segments, fate, None, params)

        land, mult = end, 2


def _fast_target(start: PhasePoint) -> tuple[float, int]:
    direction = 1.0 if eval_fast(start) > 0.0 else -1.0
    candidates = [
        (r, m) for r, m in phi_roots_with_multiplicity(start.y) if (r - start.x) * direction > 0.0
    ]
    # f(x) = phi(x) - y has a root in the flow direction for every off-manifold start
    return min(candidates, key=lambda rm: abs(rm[0] - start.x))


def _equilibrium_at(x: float, roots: list[tuple[float, int]]) -> float | None:
    for r, _ in roots:
        if abs(r - x) <= _REVISIT_TOL:
            return r
    return None


def _slow_segment_end(
    x_from: float, params: SystemParams, roots: list[tuple[float, int]]
) -> tuple[str, float]:
    """Where the slow motion from x_from ends: equilibrium, fold, or cap.

    A fold that is itself an equilibrium is a singular fold: it lies outside
    the scenario classification, and the closed-form transit to it would
    take log(0), so it raises FoldSingularityError.
    """
    on_left = x_from < -FOLD_X
    direction = math.copysign(1.0, slow_flow(x_from, params))

    branch_lo, branch_hi = (-math.inf, -FOLD_X) if on_left else (FOLD_X, math.inf)
    ahead = [
        r
        for r, _ in roots
        if branch_lo < r < branch_hi and (r - x_from) * direction > _REVISIT_TOL
    ]
    if ahead:
        return "equilibrium", min(ahead, key=lambda r: abs(r - x_from))

    toward_fold = direction > 0.0 if on_left else direction < 0.0
    if toward_fold:
        x_fold = -FOLD_X if on_left else FOLD_X
        if abs(slow_flow_numerator(x_fold, params)) <= _EQ_RESIDUAL_TOL:
            raise FoldSingularityError(
                f"slow flow reaches the fold x={x_fold!r} where g also vanishes (singular fold)"
            )
        return "fold", x_fold
    # truncate the diverging tail at a bounded window for reporting
    cap = x_from + direction * max(2.0, abs(x_from))
    return "diverge", cap


def _jump_from_fold(fold_pt: PhasePoint) -> tuple[PhasePoint, OrbitSegment]:
    """Horizontal jump to the other root of phi(x) = y_fold, x = -2 x_f:
    phi(x) - phi(x_f) = -(x - x_f)^2 (x + 2 x_f) where 3 x_f^2 = 4, so a
    jump from a fold lands at exactly -+LANDING_X."""
    land = PhasePoint(-2.0 * fold_pt.x, fold_pt.y)
    return land, OrbitSegment(SegmentKind.FAST, fold_pt, land, 0.0)


# -- relaxation-oscillation period --------------------------------------------

_CLUSTER_TOL = 0.1
# below this |b| the cubic term moves the period by far less than rounding,
# and 1/b would overflow in the partial fractions
_NEGLIGIBLE_B = 1e-150
# below this |b| the phi'^2 integral takes its fraction over the far quadratic
# factor by the Gauss-Legendre rule, not in closed form
_FAR_Q_B = 1e-3


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """32-point Gauss-Legendre rule for the transits when the three equilibria
    cluster, and for the far fraction of a small |b|'s phi'^2 integral,
    built on first use: its eigenvalue solve adds about 1 MB to the peak RSS
    of a process that never needs it."""
    return np.polynomial.legendre.leggauss(32)


def _by_rule(f, x1: float, x2: float) -> float:
    """The integral of the vectorised `f` from x1 to x2 by the 32-point
    Gauss-Legendre rule."""
    nodes, weights = _gauss_legendre()
    half, mid = 0.5 * (x2 - x1), 0.5 * (x2 + x1)
    # np.sum, not np.dot: BLAS picks its summation order by CPU
    return half * float(np.sum(weights * f(mid + half * nodes)))


def relaxation_period(params: SystemParams) -> float:
    """Period of the singular relaxation cycle, in closed form.

    Sum of the two slow transits (right branch 4/sqrt(3) -> 2/sqrt(3) and
    left branch -4/sqrt(3) -> -2/sqrt(3)) of xdot = psi(x), each the integral
    of (4 - 3x^2) / (b x^3 + (1-4b) x - c).  The integrand splits in partial
    fractions over one real equilibrium r, the one with the largest
    |P'(r)| / (1 + r^2) for P the denominator; the quadratic factor left over
    integrates to a log and an atan (or a second log).  When the three
    equilibria cluster (|P'(r)| < 0.1 |b|, around b = 1/4, c = 0) the
    fractions cancel, and a 32-point Gauss-Legendre rule, exact to rounding
    that far from the poles, integrates each transit instead.
    Full period: (0.2, 0) gives 35 ln(19/7) - 40 ln 2, whose one-branch half is the quoted 3.61.

    Each transit is decided by the rule that classify_singular_fate uses
    (_slow_segment_end), so the period equals the cycle_period() of every
    periodic composed orbit.  Where the slow flow from a landing point does
    not reach its fold (an equilibrium at or ahead of the landing point, or
    a flow away from the fold), no relaxation cycle exists, and it raises
    EquilibriumInPathError; a fold that is itself an equilibrium raises
    FoldSingularityError.
    """
    if params.eps != 0.0:
        raise ValueError("relaxation_period requires eps = 0")
    roots = equilibrium_abscissae(params)
    transits = []
    for land in (LANDING_X, -LANDING_X):
        hit = _equilibrium_at(land, roots)
        end_kind, x_end = ("equilibrium", hit) if hit is not None else _slow_segment_end(land, params, roots)
        if end_kind != "fold":
            raise EquilibriumInPathError(f"the slow flow from the landing point x={land!r} ends "
                                         f"({end_kind}) at x={x_end!r}, not at its fold")
        transits.append(_transit_time(land, x_end, params, roots))
    return sum(transits)


def _transit_time(
    x1: float, x2: float, params: SystemParams, roots: list[tuple[float, int]], power: int = 1
) -> float:
    """Integral of phi'(x)^power / (b x^3 + p x - c) from x1 to x2, with
    phi' = 4 - 3x^2, p = 1 - 4b and `power` 1 or 2.

    With power 1 it is the slow time from x1 to x2 under xdot = psi(x): it
    times every finite slow segment of classify_singular_fate and both
    transits of relaxation_period.  With power 2 it is eps times the
    integral of phi'/eps, the fast part of div F, over that time: the log of
    the contraction towards the critical manifold (the start of a cycle
    search without a seed, `dynamics.find_limit_cycle`).
    [x1, x2] must hold no root of the denominator.
    """
    b, c = params.b, params.c
    if abs(b) < _NEGLIGIBLE_B:
        d, s, u1 = x2 - x1, x2 + x1, x1 - c
        if power == 1:
            # (4 - 3x^2) / (x - c) = -3x - 3c + (4 - 3c^2) / (x - c)
            return (-1.5 * d * s - 3.0 * c * d
                    + (4.0 - 3.0 * c * c) * math.log1p(d / u1))
        # (4 - 3x^2)^2 / (x - c) = 9x^3 + 9cx^2 + (9c^2 - 24)x + 9c^3 - 24c
        #                          + (3c^2 - 4)^2 / (x - c)
        cubes = x2 * x2 + x2 * x1 + x1 * x1
        return (d * (2.25 * s * (x2 * x2 + x1 * x1) + 3.0 * c * cubes
                     + (4.5 * c * c - 12.0) * s + (9.0 * c * c - 24.0) * c)
                + (3.0 * c * c - 4.0) ** 2 * math.log1p(d / u1))
    p = 1.0 - 4.0 * b
    # weighting by 1 / (1 + r^2) passes over the far roots +-|b|^-1/2 of a
    # small negative b, whose fractions cancel to a few digits
    r = max((r for r, _ in roots), key=lambda r: abs(3.0 * b * r * r + p) / (1.0 + r * r))
    dp = 3.0 * b * r * r + p
    if abs(dp) < _CLUSTER_TOL * abs(b):
        return _by_rule(lambda xs: (4.0 - 3.0 * xs * xs) ** power / ((b * xs * xs + p) * xs - c), x1, x2)
    # one Newton step: the small-|b| shortcut in equilibrium_abscissae is not a root
    r -= ((b * r * r + p) * r - c) / dp
    dp = 3.0 * b * r * r + p
    # P = (x - r) Q with Q = b x^2 + b r x + q0, and phi'^power / P is
    # alpha / (x - r) plus a fraction over Q
    q0 = b * r * r + p
    alpha = (4.0 - 3.0 * r * r) ** power / dp
    near = alpha * math.log1p((x2 - x1) / (x1 - r))
    if power == 2 and abs(b) < _FAR_Q_B:
        # phi'^2 / P = alpha / (x - r) + M / Q, M = 9x^3 + 9r x^2 + m1 x + m0;
        # the roots of Q lie beyond |b|^-1/2, where the fractions of M / Q
        # cancel to about 3e-15/|b|, and the rule is exact to rounding
        m1 = 9.0 * r * r - 24.0 - alpha * b
        m0 = (m1 - alpha * b) * r
        return near + _by_rule(lambda xs: (((9.0 * xs + 9.0 * r) * xs + m1) * xs + m0)
                               / ((b * xs + b * r) * xs + q0), x1, x2)
    # the proper fraction (n2 x^2 + n1 x + n0) / P, phi' / P for power 1 and
    # phi'^2 / P less its whole part 9x/b for power 2, is
    # alpha / (x - r) + (beta x + gamma) / Q
    if power == 1:
        n2, n1, whole = -3.0, 0.0, 0.0
    else:
        n2, n1 = 12.0 - 9.0 / b, 9.0 * c / b
        whole = 4.5 * (x2 - x1) * (x2 + x1) / b
    beta = n2 - alpha * b
    gamma = n1 + beta * r - alpha * b * r
    # Q = b (u^2 + k) with u = x + r/2, and beta x + gamma = beta u + delta
    k = (q0 - 0.25 * b * r * r) / b
    delta = gamma - 0.5 * beta * r
    u1, u2 = x1 + 0.5 * r, x2 + 0.5 * r
    if k > 0.0:
        sk = math.sqrt(k)
        arc = math.atan2(sk * (u2 - u1), k + u1 * u2) / (b * sk)
    elif k < 0.0:
        m = math.sqrt(-k)
        arc = math.log1p(2.0 * m * (u2 - u1) / ((u2 + m) * (u1 - m))) / (2.0 * b * m)
    else:
        arc = (1.0 / u1 - 1.0 / u2) / b
    q1 = (b * x1 + b * r) * x1 + q0
    log_q = math.log1p(b * (x2 - x1) * (x2 + x1 + r) / q1)
    return whole + near + 0.5 * beta / b * log_q + delta * arc
