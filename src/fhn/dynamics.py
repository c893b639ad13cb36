"""Stiff integration of the regular (eps > 0) system and limit-cycle location.

The integrator is a six-stage, stiffly accurate, L-stable linearly implicit
Rosenbrock method of order 4 with an embedded order-3 error estimate
(coefficients from Hairer & Wanner's RODAS), specialized to the
FitzHugh-Nagumo field with its exact 2x2 Jacobian.  Two loops drive the
stepper: `integrate_until` for trajectories and `find_limit_cycle` for cycles.

Cycles are found forward in slow time on the half-lines {x = x_eq, y > y_eq}
above the equilibria, which the flow crosses leftward only.
`find_limit_cycle` follows one orbit until two returns to a half-line agree,
restarting it at the geometric limit of returns that shrink steadily.
`find_unstable_cycle` finds the unstable cycle between a stable focus and a
stable cycle around it as a root of the displacement P(y) - y of the return
map P, one forward shot per value.  Loops and search failures carry step
counts.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import PhasePoint, SystemParams, TimeScale, phi
from .errors import (
    ConvergedToEquilibriumError,
    DegenerateLoopError,
    FHNError,
    IntegrationError,
    NoCycleError,
    NonFiniteError,
    StepSizeCollapseError,
)
from .singular import equilibrium_abscissae

_GAMMA = 0.25
_A = (
    (1.544,),
    (0.9466785280815826, 0.2557011698983284),
    (3.314825187068521, 2.896124015972201, 0.9986419139977817),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895, 1.0),
)
_C = (
    (-5.6688,),
    (-2.430093356833875, -0.2063599157091915),
    (-0.1073529058151375, -9.594562251023355, -20.47028614809616),
    (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.7089089320616),
    (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136, -6.058818238834054),
)
_M = (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895, 1.0, 1.0)
# the straight-line step in _Stepper.advance reads the tableau from these
(
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
) = _A
(
    (_C21,),
    (_C31, _C32),
    (_C41, _C42, _C43),
    (_C51, _C52, _C53, _C54),
    (_C61, _C62, _C63, _C64, _C65),
) = _C

_H_FLOOR = 1e-14
_MAX_REJECTS = 200


class Stability(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"


@dataclass
class Trajectory:
    """Accepted integration nodes with node derivatives for dense output."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    scale: TimeScale
    direction: int
    stats: dict = field(default_factory=dict)

    def sample(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cubic-Hermite dense output at the requested times."""
        ts = np.asarray(ts, dtype=float)
        idx = np.clip(np.searchsorted(self.t, ts, side="right") - 1, 0, len(self.t) - 2)
        h = self.t[idx + 1] - self.t[idx]
        s = np.where(h > 0.0, (ts - self.t[idx]) / np.where(h > 0.0, h, 1.0), 0.0)
        xs = _hermite(s, self.x[idx], self.x[idx + 1], self.dx[idx], self.dx[idx + 1], h)
        ys = _hermite(s, self.y[idx], self.y[idx + 1], self.dy[idx], self.dy[idx + 1], h)
        return xs, ys

    def sample_uniform(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        ts = np.arange(self.t[0], self.t[-1] + 0.5 * dt, dt)
        ts = ts[ts <= self.t[-1]]
        xs, ys = self.sample(ts)
        return ts, xs, ys


def _hermite(s, p0, p1, d0, d1, h):
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * p0
        + (s3 - 2.0 * s2 + s) * h * d0
        + (-2.0 * s3 + 3.0 * s2) * p1
        + (s3 - s2) * h * d1
    )


class _Stepper:
    """One-state adaptive Rosenbrock driver for the FitzHugh-Nagumo field.

    State is advanced in the requested time scale; `direction=-1` integrates
    the time-reversed field so that timestamps always increase.
    """

    def __init__(self, x, y, params: SystemParams, scale: TimeScale, direction: int, tol: float, max_norm: float):
        if params.eps <= 0.0:
            raise ValueError("stiff integration requires eps > 0")
        if not 1e-12 <= tol <= 1e-3:
            raise ValueError("tol must lie in [1e-12, 1e-3]")
        self.b = params.b
        self.c = params.c
        # component scaling: fast scale integrates (f, eps*g), slow scale (f/eps, g)
        if scale is TimeScale.FAST:
            self.sx, self.sy = float(direction), direction * params.eps
        else:
            self.sx, self.sy = direction / params.eps, float(direction)
        self.tol = tol
        self.max_norm = max_norm
        self.t = 0.0
        self.x = float(x)
        self.y = float(y)
        self.dx, self.dy = self._field(self.x, self.y)
        fn = math.hypot(self.dx, self.dy)
        self.h = min(1e-3, 0.01 * tol ** 0.25 / (fn + 1e-6) + 1e-9)
        self.naccept = 0
        self.nreject = 0

    def stats(self) -> dict:
        return {"steps": self.naccept, "rejected": self.nreject, "tol": self.tol}

    def _field(self, x, y):
        return (
            self.sx * (-y + 4.0 * x - x * x * x),
            self.sy * (x - self.b * y - self.c),
        )

    def advance(self, t_cap: float = math.inf) -> None:
        """Take one accepted step, clamped to t_cap.

        One straight-line RODAS step: the stages are scalar locals, the field
        is `_field` inlined with its operation order, and every sum runs in
        tableau order, so the arithmetic is that of the loop over `_A`, `_C`
        and `_M`.  The step control picks with conditional expressions the float
        that `abs`, `max` and `min` would (a zero's sign is lost in tol + tol*m).
        """
        isfinite, sqrt = math.isfinite, math.sqrt
        sx, sy, b, c = self.sx, self.sy, self.b, self.c
        t = self.t
        h = self.h
        x0, y0 = self.x, self.y
        f0x, f0y = self.dx, self.dy
        # exact Jacobian of the scaled field
        j11 = sx * (4.0 - 3.0 * x0 * x0)
        j12 = -sx
        j21 = sy
        j22 = -sy * b
        tol = self.tol
        ux0, uy0 = (-x0 if x0 < 0.0 else x0), (-y0 if y0 < 0.0 else y0)

        for _ in range(_MAX_REJECTS):
            if t + h > t_cap:
                h = t_cap - t
            if h < _H_FLOOR:
                raise StepSizeCollapseError(f"step {h:.3e} below floor at t={t!r}")
            ghinv = 1.0 / (h * _GAMMA)
            w11 = ghinv - j11
            w22 = ghinv - j22
            det = w11 * w22 - j12 * j21
            if det == 0.0 or not isfinite(det):
                h *= 0.5
                continue
            inv = 1.0 / det
            hinv = 1.0 / h

            # each stage solves (I/(h*gamma) - J) k = r in closed form
            k1x = (f0x * w22 + f0y * j12) * inv
            k1y = (w11 * f0y + j21 * f0x) * inv

            ax = x0 + _A21 * k1x
            ay = y0 + _A21 * k1y
            c1 = _C21 * hinv
            rx = sx * (-ay + 4.0 * ax - ax * ax * ax) + c1 * k1x
            ry = sy * (ax - b * ay - c) + c1 * k1y
            k2x = (rx * w22 + ry * j12) * inv
            k2y = (w11 * ry + j21 * rx) * inv

            ax = x0 + _A31 * k1x + _A32 * k2x
            ay = y0 + _A31 * k1y + _A32 * k2y
            c1, c2 = _C31 * hinv, _C32 * hinv
            rx = sx * (-ay + 4.0 * ax - ax * ax * ax) + c1 * k1x + c2 * k2x
            ry = sy * (ax - b * ay - c) + c1 * k1y + c2 * k2y
            k3x = (rx * w22 + ry * j12) * inv
            k3y = (w11 * ry + j21 * rx) * inv

            ax = x0 + _A41 * k1x + _A42 * k2x + _A43 * k3x
            ay = y0 + _A41 * k1y + _A42 * k2y + _A43 * k3y
            c1, c2, c3 = _C41 * hinv, _C42 * hinv, _C43 * hinv
            rx = sx * (-ay + 4.0 * ax - ax * ax * ax) + c1 * k1x + c2 * k2x + c3 * k3x
            ry = sy * (ax - b * ay - c) + c1 * k1y + c2 * k2y + c3 * k3y
            k4x = (rx * w22 + ry * j12) * inv
            k4y = (w11 * ry + j21 * rx) * inv

            ax = x0 + _A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x
            ay = y0 + _A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y
            c1, c2, c3, c4 = _C51 * hinv, _C52 * hinv, _C53 * hinv, _C54 * hinv
            rx = sx * (-ay + 4.0 * ax - ax * ax * ax) + c1 * k1x + c2 * k2x + c3 * k3x + c4 * k4x
            ry = sy * (ax - b * ay - c) + c1 * k1y + c2 * k2y + c3 * k3y + c4 * k4y
            k5x = (rx * w22 + ry * j12) * inv
            k5y = (w11 * ry + j21 * rx) * inv

            ax = x0 + _A61 * k1x + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x
            ay = y0 + _A61 * k1y + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y
            c1, c2, c3, c4, c5 = _C61 * hinv, _C62 * hinv, _C63 * hinv, _C64 * hinv, _C65 * hinv
            rx = (sx * (-ay + 4.0 * ax - ax * ax * ax)
                  + c1 * k1x + c2 * k2x + c3 * k3x + c4 * k4x + c5 * k5x)
            ry = sy * (ax - b * ay - c) + c1 * k1y + c2 * k2y + c3 * k3y + c4 * k4y + c5 * k5y
            k6x = (rx * w22 + ry * j12) * inv
            k6y = (w11 * ry + j21 * rx) * inv

            # RODAS is stiffly accurate (_M is the last row of _A, then 1), so
            # the _M-weighted sum is the last stage's argument plus k6; k6 is
            # also the embedded error estimate
            xn = ax + k6x
            yn = ay + k6y

            if not (isfinite(xn) and isfinite(yn)):
                h *= 0.5
                self.nreject += 1
                continue
            uxn, uyn = (-xn if xn < 0.0 else xn), (-yn if yn < 0.0 else yn)
            sc1 = tol + tol * (uxn if uxn > ux0 else ux0)
            sc2 = tol + tol * (uyn if uyn > uy0 else uy0)
            err = sqrt(0.5 * ((k6x / sc1) ** 2 + (k6y / sc2) ** 2))
            if err <= 1.0:
                self.t = tn = t + h
                self.x, self.y = xn, yn
                self.dx = sx * (-yn + 4.0 * xn - xn * xn * xn)
                self.dy = sy * (xn - b * yn - c)
                self.naccept += 1
                # no lower clamp: err <= 1 gives a factor of at least 0.9
                fac = 0.9 * err ** -0.25 if err > 0.0 else 6.0
                self.h = h * (fac if fac < 6.0 else 6.0)
                if (uyn if uyn > uxn else uxn) > self.max_norm:
                    raise NonFiniteError(
                        f"state left |u| <= {self.max_norm} at t={tn!r}",
                        last_state=PhasePoint(xn, yn) if isfinite(xn + yn) else None,
                    )
                # parked on an equilibrium, err == 0 lets the step grow x6 per
                # step without bound until t overflows
                if not isfinite(tn):
                    raise NonFiniteError(
                        f"time left the finite range after t={t!r}",
                        last_state=PhasePoint(xn, yn),
                    )
                return
            self.nreject += 1
            h *= fac if (fac := 0.9 * err ** -0.25) > 0.1 else 0.1
        raise StepSizeCollapseError("step repeatedly rejected")


def integrate(
    start: PhasePoint,
    params: SystemParams,
    t_end: float,
    scale: TimeScale = TimeScale.SLOW,
    tol: float = 1e-8,
    direction: int = 1,
    max_norm: float = 1e8,
) -> Trajectory:
    """Adaptive stiff integration from `start` for `t_end` time units.

    Local error is kept at or below `tol` per step (mixed absolute/relative
    weighting); the returned trajectory holds the accepted nodes together
    with node derivatives, so dense output at any requested spacing is
    available through Trajectory.sample / sample_uniform.

    Raises StepSizeCollapseError if the step falls below 1e-14 and
    NonFiniteError if the state blows up, which is the legitimate outcome
    for divergent parameter regimes; either carries the partial trajectory.
    """
    return integrate_until(start, params, t_end, None, scale, tol, direction, max_norm)


def integrate_until(
    start: PhasePoint,
    params: SystemParams,
    t_end: float,
    stop: Callable[[float, float, float], bool] | None,
    scale: TimeScale = TimeScale.SLOW,
    tol: float = 1e-8,
    direction: int = 1,
    max_norm: float = 1e8,
) -> Trajectory:
    """`integrate`, ended early at the first accepted node where `stop(t, x, y)` holds.

    This is the one loop that drives the stepper for a trajectory; `stop`
    may be None.  With `t_end = inf` no step is clamped and `stop` alone
    ends the run.
    """
    if params.eps <= 0.0:
        raise ValueError("integrate requires eps > 0; use the singular module for eps = 0")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")

    st = _Stepper(start.x, start.y, params, scale, direction, tol, max_norm)
    ts, xs, ys, dxs, dys = [st.t], [st.x], [st.y], [st.dx], [st.dy]
    advance = st.advance
    add_t, add_x, add_y, add_dx, add_dy = ts.append, xs.append, ys.append, dxs.append, dys.append
    try:
        while True:
            advance(t_end)
            t, x, y = st.t, st.x, st.y
            add_t(t)
            add_x(x)
            add_y(y)
            add_dx(st.dx)
            add_dy(st.dy)
            remainder = t_end - t
            if remainder < _H_FLOOR:
                if remainder > 0.0:
                    # t + (t_end - t) rounded short of t_end by less than
                    # the step floor: that is arrival, not a step to take
                    ts[-1] = t_end
                break
            if stop is not None and stop(t, x, y):
                break
    except IntegrationError as exc:
        exc.trajectory = _make_traj(ts, xs, ys, dxs, dys, scale, direction, st)
        if exc.last_state is None:
            exc.last_state = PhasePoint(xs[-1], ys[-1])
        raise
    return _make_traj(ts, xs, ys, dxs, dys, scale, direction, st)


def _make_traj(ts, xs, ys, dxs, dys, scale, direction, st: _Stepper) -> Trajectory:
    return Trajectory(
        np.array(ts),
        np.array(xs),
        np.array(ys),
        np.array(dxs),
        np.array(dys),
        scale,
        direction,
        stats=st.stats(),
    )


@dataclass
class LimitCycle:
    """One-period sample loop with period (slow time) and arc length."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    period: float
    length: float
    stability: Stability
    converged: bool
    section_x: float
    return_gap: float
    # the search's step counts as in Trajectory.stats, with its restarts or
    # shots (empty for a loop assembled otherwise, such as the homoclinic shadow)
    stats: dict = field(default_factory=dict)

    def min_distance_to(self, px: float, py: float) -> float:
        return float(np.min(np.hypot(self.x - px, self.y - py)))

    @property
    def diameter(self) -> float:
        return float(math.hypot(np.ptp(self.x), np.ptp(self.y)))


def cycle_length(x, y) -> float:
    """Polygonal perimeter of a loop in the phase plane, closing segment included."""
    xs, ys = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(xs) < 3:
        raise DegenerateLoopError("loop needs at least 3 samples")
    total = float(np.sum(np.hypot(np.diff(xs), np.diff(ys))))
    total += float(math.hypot(xs[0] - xs[-1], ys[0] - ys[-1]))
    if total == 0.0:
        raise DegenerateLoopError("loop has zero length")
    return total


# the equilibrium test runs over windows of this many slow-time units
_WINDOW = 10.0
_LOOSE_RETURN_FRACTION = 0.01
# falling returns whose geometric limit lies below this fraction of the last
# one's height above the equilibrium spiral into the equilibrium
_INTO_EQUILIBRIUM = 0.01
_MIN_CYCLE_DIAMETER = 1e-6
# successive returns this close are converged
_RETURN_TOL = 1e-8
# samples of the returned loop
_DENSE_N = 2000
_MAX_NORM = 1e6


def find_limit_cycle(
    params: SystemParams,
    seed: PhasePoint,
    tol: float = 1e-10,
    max_periods: float = 50.0,
) -> LimitCycle:
    """Locate a stable limit cycle by convergence of Poincare returns.

    Integration runs forward in slow time.  The sections are the half-lines
    {x = x_eq, y > y_eq} above the equilibria: x' = (y_eq - y)/eps there, so
    the flow crosses each leftward only, and a cycle crosses the one above
    each equilibrium it encloses once.  Returns count from the first step.
    The first half-line whose last two returns agree to 1e-8 decides; the
    loop is the stretch between them, from its leftward crossing of
    `section_x` = x_eq.

    The returns to a half-line iterate a monotone return map.  The search
    restarts its orbit at (x_eq, y_eq + r), r the geometric limit of
    the heights of the last three returns (Aitken's delta-squared), once the
    last four step one way with step ratios q1, q2 in (0, 1),
    |q2 - q1| < (1 - q2)/2, and the last two are still 1e-8 or more apart.
    The restart point counts as the half-line's first return; the other
    half-lines' returns and the window's extent start afresh, while time,
    step size and budget run on.  A search that settles within three returns
    never restarts.

    If the budget of `max_periods` estimated periods (10 time units each
    until a half-line has two returns) runs out while the last four returns
    to a half-line jitter inside one percent of the amplitude, the largest
    x-range of a loop between returns to it (the regime near a canard
    explosion, where tolerance noise is amplified exponentially along the
    repelling branch), the loop between the last two is returned flagged
    `converged=False` rather than raising, unless the last three step one
    way at a step ratio of 1 or more, which no cycle's returns do.

    The search ends without a cycle at one of these exits:
    - ConvergedToEquilibriumError: a state whose extent, max(x-range,
      y-range), over a window of 10 time units is below 1e-6, tested each
      time a window closes; a loop of that diameter; or three falling
      returns whose geometric limit lies below 1% of the last one's height
      above the equilibrium, from four returns on at ratios steady enough
      to restart (returns to a section of a planar flow are monotone);
    - NoCycleError, when the budget runs out otherwise (also with fewer
      than five returns since a restart);
    - the integrator's NonFiniteError (|x| or |y| above 1e6) or
      StepSizeCollapseError.
    The returned loop and every FHNError raised carry `stats`, the search's
    step counts in the form of Trajectory.stats plus `restarts`.
    """
    if not (math.isfinite(max_periods) and max_periods > 0.0):
        raise ValueError("max_periods must be finite and > 0")
    half_lines = [(x_eq, phi(x_eq)) for x_eq, _ in equilibrium_abscissae(params)]
    # per half-line: its returns (t, y), the nodes since the last of them and
    # the largest x-range of a loop between two of them
    returns: list[list[tuple[float, float]]] = [[] for _ in half_lines]
    stretch: list[list | None] = [None] * len(half_lines)
    amplitude = [0.0] * len(half_lines)
    t_ref = None  # the latest interval between two returns to one half-line
    restarts = 0

    st = _Stepper(seed.x, seed.y, params, TimeScale.SLOW, 1, tol, _MAX_NORM)
    advance = st.advance
    t_budget = max_periods * _WINDOW
    window_end = st.t + _WINDOW
    x_lo = x_hi = st.x
    y_lo = y_hi = st.y
    prev = (st.t, st.x, st.y, st.dx, st.dy)

    try:
        while True:
            advance()
            t, x, y = st.t, st.x, st.y
            if x < x_lo:
                x_lo = x
            elif x > x_hi:
                x_hi = x
            if y < y_lo:
                y_lo = y
            elif y > y_hi:
                y_hi = y
            if t >= window_end:
                if max(x_hi - x_lo, y_hi - y_lo) < _MIN_CYCLE_DIAMETER:
                    raise ConvergedToEquilibriumError(
                        "state stopped moving; trajectory parked at an equilibrium",
                        point=PhasePoint(x, y),
                    )
                # the next window starts from this node
                window_end = t + _WINDOW
                x_lo = x_hi = x
                y_lo = y_hi = y
            if t_ref is None and t > t_budget:
                raise NoCycleError("no two returns to one section within the time budget")
            node = (t, x, y, st.dx, st.dy)
            x_prev = prev[1]
            for k, (x_eq, y_eq) in enumerate(half_lines):
                nodes = stretch[k]
                if nodes is not None:
                    nodes.append(node)
                # the sign test of _half_line_crossing: most steps cross nothing
                if (x > x_eq) == (x_prev > x_eq):
                    continue
                cross = _half_line_crossing(prev, node, x_eq, y_eq)
                if cross is None:
                    continue
                rets = returns[k]
                rets.append(cross)
                if len(rets) >= 2:
                    (t_0, y_0), (t_c, y_c) = rets[-2:]
                    t_ref = max(t_c - t_0, 1e-3)
                    gap = abs(y_c - y_0)
                    converged = gap < _RETURN_TOL
                    xs = [n[1] for n in stretch[k]]
                    amplitude[k] = max(amplitude[k], max(xs) - min(xs))
                    step = None if converged else _geometric_limit(rets[-3:], y_eq)
                    prior = _geometric_limit(rets[-4:-1], y_eq)
                    # from four returns on, two steady ratios: noise near a weak focus sets a lone one
                    if _falls_into_equilibrium(step, y_c - y_eq) and (
                            len(rets) < 4 or _extrapolates(prior, step)):
                        raise ConvergedToEquilibriumError(
                            "returns fall into the equilibrium below them",
                            point=PhasePoint(x_eq, y_eq),
                        )
                    if converged or t > max_periods * t_ref:
                        recent = [y_r for _, y_r in rets[-4:]]
                        # loose: the last four jitter inside 1% of the
                        # amplitude, and the last three do not step one way
                        # at a ratio >= 1, as returns leaving a focus do
                        if not (converged or len(rets) >= 5 and max(recent) - min(recent)
                                < _LOOSE_RETURN_FRACTION * amplitude[k]
                                and (step is None or step[1] is not None)):
                            raise NoCycleError(
                                f"returns did not settle within {max_periods} estimated periods"
                            )
                        nodes = np.array(stretch[k]).T
                        loop = _build_loop(Trajectory(*nodes, TimeScale.SLOW, 1), t_0, t_c,
                                           Stability.STABLE, x_eq, converged, gap)
                        if loop.diameter < _MIN_CYCLE_DIAMETER:
                            raise ConvergedToEquilibriumError(
                                "returns converged onto a point, not a cycle",
                                point=PhasePoint(x, y),
                            )
                        loop.stats = dict(st.stats(), restarts=restarts)
                        return loop
                    if _extrapolates(prior, step):
                        # restart on this half-line at the fixed point of the
                        # return map that the last three returns approach; it
                        # counts as the first return, and every other
                        # half-line and the window start afresh from it
                        y = y_eq + step[1]
                        st.x, st.y = x_eq, y
                        st.dx, st.dy = st._field(x_eq, y)
                        node = (t, x_eq, y, st.dx, st.dy)
                        restarts += 1
                        returns = [[] for _ in half_lines]
                        returns[k].append((t, y))
                        stretch = [None] * len(half_lines)
                        stretch[k] = [node]
                        amplitude = [a if j == k else 0.0 for j, a in enumerate(amplitude)]
                        x_lo = x_hi = x_eq
                        y_lo = y_hi = y
                        break
                    # a half-line not crossed since this one's previous return
                    # lies outside the orbit's last loop: forget its returns
                    for j, nodes in enumerate(stretch):
                        if nodes is not None and len(nodes) > len(stretch[k]):
                            returns[j].clear()
                            stretch[j] = None
                            amplitude[j] = 0.0
                stretch[k] = [prev, node]
            prev = node
    except FHNError as exc:
        exc.stats = dict(st.stats(), restarts=restarts)
        raise


# a shot of find_unstable_cycle runs for at most this many periods of the
# stable loop, and the root-find takes at most this many shots
_SHOT_PERIODS = 3.0
_MAX_SHOTS = 60


def find_unstable_cycle(params: SystemParams, outer: LimitCycle, tol: float = 1e-10) -> LimitCycle:
    """The unstable cycle between a stable equilibrium and a stable loop
    `outer` that starts on the half-line above it, at x_eq = `outer.section_x`
    and y_outer = `outer.y[0]`: a root of d(y) = P(y) - y, P the return map.

    d < 0 beside a stable focus and d > 0 just inside a stable cycle, so an
    unstable cycle lies between them (the Poincare-Bendixson annulus; Perko,
    Differential Equations and Dynamical Systems, section 3.4).  Each value
    of d is one forward shot from (x_eq, y) to its next return, for at most 3
    periods of `outer`.  Illinois iteration runs on [y_eq + 1e-3 s,
    y_outer - 1e-3 s], s = y_outer - y_eq, until |d| < 1e-8; the loop is the
    last shot.  NoCycleError: no sign change from d < 0 to d > 0 there, a
    shot that does not return, or 60 shots.  The loop and every FHNError
    raised carry `stats`: the shots' step counts as in Trajectory.stats, and
    `shots`.
    """
    x_eq, y_eq, y_outer = outer.section_x, phi(outer.section_x), float(outer.y[0])
    t_budget = _SHOT_PERIODS * outer.period
    stats = {"steps": 0, "rejected": 0, "tol": tol, "shots": 0}

    def shot(y):
        x_last = x_eq

        def returned(_t, x, _y):
            # the orbit crosses x = x_eq leftward only above y_eq
            nonlocal x_last
            crossed = x_last > x_eq > x
            x_last = x
            return crossed

        stats["shots"] += 1
        try:
            traj = integrate_until(PhasePoint(x_eq, y), params, t_budget, returned, tol=tol,
                                   max_norm=_MAX_NORM)
        except IntegrationError as exc:
            stats["steps"] += exc.trajectory.stats["steps"]
            stats["rejected"] += exc.trajectory.stats["rejected"]
            raise
        stats["steps"] += traj.stats["steps"]
        stats["rejected"] += traj.stats["rejected"]
        prev, node = zip(*(a[-2:].tolist() for a in (traj.t, traj.x, traj.y, traj.dx, traj.dy)))
        cross = _half_line_crossing(prev, node, x_eq, y_eq)
        if cross is None:
            raise NoCycleError(f"shot from y={y!r} did not return within t={t_budget!r}")
        return cross[1] - y, cross[0], traj

    try:
        s = y_outer - y_eq
        a, b = y_eq + 1e-3 * s, y_outer - 1e-3 * s
        fa, fb = shot(a)[0], shot(b)[0]
        if not fa < 0.0 < fb:
            raise NoCycleError(f"displacement does not change sign from y={a!r} to y={b!r}")
        while stats["shots"] < _MAX_SHOTS:
            y = b - fb * (b - a) / (fb - fa)
            d, t_return, traj = shot(y)
            if abs(d) < _RETURN_TOL:
                loop = _build_loop(traj, 0.0, t_return, Stability.UNSTABLE, x_eq, True, abs(d))
                loop.stats = stats
                return loop
            # Illinois: keep the bracket, and halve the weight of an end kept twice
            if (d < 0.0) != (fb < 0.0):
                a, fa = b, fb
            else:
                fa *= 0.5
            b, fb = y, d
        raise NoCycleError(f"displacement still {fb:.3g} after {_MAX_SHOTS} shots")
    except FHNError as exc:
        exc.stats = dict(stats)
        raise


def _geometric_limit(rets, y_eq: float):
    """(q, limit) of three returns (t, y) whose heights r0, r1, r2 above y_eq
    step one way, else None.  q = (r2 - r1)/(r1 - r0) > 0 is the ratio of
    their steps.  For q < 1, limit = (r2 - q r1)/(1 - q) is the height that
    steps shrinking by q approach, Aitken's delta-squared estimate of the
    fixed point of the (monotone) return map; for q >= 1 it is None."""
    if len(rets) < 3:
        return None
    r0, r1, r2 = (y_r - y_eq for _, y_r in rets)
    if not (r0 > r1 > r2 or r0 < r1 < r2):
        return None
    q = (r2 - r1) / (r1 - r0)
    return q, (r2 - q * r1) / (1.0 - q) if q < 1.0 else None


def _falls_into_equilibrium(step, r2: float) -> bool:
    """Whether returns whose last three give `step` of `_geometric_limit`,
    the last at height r2 > 0, approach a limit below 1% of r2 (rising
    returns approach one above r2)."""
    return step is not None and step[1] is not None and step[1] < _INTO_EQUILIBRIUM * r2


def _extrapolates(prior, step) -> bool:
    """Whether four returns, whose first and last three give `prior` and
    `step` of `_geometric_limit`, shrink steadily enough that `step`'s limit
    may stand in for them: both ratios lie in (0, 1) and differ by less than
    half of 1 - q2 (which bounds q1 below 1 once q2 < 1)."""
    if prior is None or step is None or step[1] is None:
        return False
    return abs(step[0] - prior[0]) < 0.5 * (1.0 - step[0])


def _half_line_crossing(prev, node, x_eq: float, y_eq: float):
    """(t, y) where the step from `prev` to `node` crosses the half-line
    {x = x_eq, y > y_eq} above an equilibrium leftward, or None; the
    crossing is the cubic-Hermite root of x = x_eq in the step."""
    t0, x0, y0, dx0, dy0 = prev
    t1, x1, y1, dx1, dy1 = node
    s0, s1 = x0 - x_eq, x1 - x_eq
    if not s0 > 0.0 > s1:
        return None
    h = t1 - t0
    lo, hi = 0.0, 1.0
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        val = _hermite(mid, x0, x1, dx0, dx1, h) - x_eq
        if not val > 0.0:
            hi = mid
        else:
            lo = mid
    s = 0.5 * (lo + hi)
    y = float(_hermite(s, y0, y1, dy0, dy1, h))
    return (t0 + s * h, y) if y > y_eq else None


def _build_loop(traj, t_start, t_end, stability, section_x, strict, gap):
    period = t_end - t_start
    ts = np.linspace(t_start, t_end, _DENSE_N + 1)
    xs, ys = traj.sample(ts)
    length = cycle_length(xs, ys)
    return LimitCycle(
        ts - t_start,
        xs,
        ys,
        period,
        length,
        stability,
        bool(strict),
        section_x,
        gap,
    )
