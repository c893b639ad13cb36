"""Stiff integration of the regular (eps > 0) system and limit-cycle location.

The integrator is a six-stage, stiffly accurate, L-stable linearly implicit
Rosenbrock method of order 4 with an embedded order-3 error estimate
(coefficients from Hairer & Wanner's RODAS), specialized to the
FitzHugh-Nagumo field with its exact 2x2 Jacobian.  One function both takes
the steps and drives them, `integrate`, with the step written inline and its
state in locals; every run, the cycle searches' included, is a call of it.

A cycle is a fixed point of the return map P to a half-line {x = x_eq,
y > y_eq} above an equilibrium, which the flow crosses leftward only.  One
routine finds it by Newton's method on the displacement P(y) - y, one forward
run per value, with the slope P' from Liouville's divergence integral along
the run: `find_limit_cycle` the cycle that the orbit from a seed approaches,
`find_unstable_cycle` the unstable cycle between a stable focus and a stable
cycle around it.  Loops carry their multiplier P'; loops and search failures
carry step counts.
"""

from __future__ import annotations

import math
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
_A5 = (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895)
_A = (
    (1.544,),
    (0.9466785280815826, 0.2557011698983284),
    (3.314825187068521, 2.896124015972201, 0.9986419139977817),
    _A5,
    (*_A5, 1.0),
)
_C = (
    (-5.6688,),
    (-2.430093356833875, -0.2063599157091915),
    (-0.1073529058151375, -9.594562251023355, -20.47028614809616),
    (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.7089089320616),
    (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136, -6.058818238834054),
)
_M = (*_A[4], 1.0)

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
    direction: int
    stats: dict = field(default_factory=dict)
    # (section, node of its first crossing, of its second): see `integrate`
    closing: tuple[int, int, int] | None = None

    def sample(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cubic-Hermite dense output at the requested times, each in the step
        holding it (the end steps extrapolate; a 1-node run gives its node)."""
        ts = np.asarray(ts, dtype=float)
        i0 = np.searchsorted(self.t[1:-1], ts, side="right")
        i1 = i0 + 1 if len(self.t) > 1 else i0
        t0 = self.t[i0]
        h = self.t[i1] - t0
        step = h > 0.0
        s = np.where(step, (ts - t0) / np.where(step, h, 1.0), 0.0)
        # the basis of `_hermite`, once for x and y, in its order
        s2 = s * s
        s3 = s2 * s
        b0 = 2.0 * s3 - 3.0 * s2 + 1.0
        b1 = (s3 - 2.0 * s2 + s) * h
        b2 = -2.0 * s3 + 3.0 * s2
        b3 = (s3 - s2) * h
        del t0, h, step, s, s2, s3  # peak memory: a table may take 1e6 samples
        xs = b0 * self.x[i0] + b1 * self.dx[i0] + b2 * self.x[i1] + b3 * self.dx[i1]
        ys = b0 * self.y[i0] + b1 * self.dy[i0] + b2 * self.y[i1] + b3 * self.dy[i1]
        return xs, ys

    def sample_uniform(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not 0.0 < dt < math.inf:
            raise ValueError("dt must be positive and finite")
        ts = np.arange(self.t[0], self.t[-1] + 0.5 * dt, dt)
        ts = ts[ts <= self.t[-1]]
        xs, ys = self.sample(ts)
        return ts, xs, ys

    def crossing(self, i: int, x_s: float, y_s: float) -> tuple[float, float] | None:
        """(t, y) where the step from node i - 1 to node i (i = -1: the last
        step) crosses the half-line {x = x_s, y > y_s} above an equilibrium
        in the sense of the run's flow: leftward (`direction` 1) or rightward
        (`direction` -1, a time-reversed run), or None; the crossing is the
        cubic-Hermite root of x = x_s in the step."""
        if i == 0:
            raise IndexError("no step ends at node 0, the start of the run")
        t0, x0, y0, dx0, dy0 = (float(a[i - 1]) for a in (self.t, self.x, self.y, self.dx, self.dy))
        t1, x1, y1, dx1, dy1 = (float(a[i]) for a in (self.t, self.x, self.y, self.dx, self.dy))
        sign = self.direction
        s0, s1 = sign * (x0 - x_s), sign * (x1 - x_s)
        if not s0 > 0.0 > s1:
            return None
        h = t1 - t0
        lo, hi = 0.0, 1.0
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            val = sign * (_hermite(mid, x0, x1, dx0, dx1, h) - x_s)
            if not val > 0.0:
                hi = mid
            else:
                lo = mid
        s = 0.5 * (lo + hi)
        y = float(_hermite(s, y0, y1, dy0, dy1, h))
        return (t0 + s * h, y) if y > y_s else None


def _hermite(s, p0, p1, d0, d1, h):
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * p0
        + (s3 - 2.0 * s2 + s) * h * d0
        + (-2.0 * s3 + 3.0 * s2) * p1
        + (s3 - s2) * h * d1
    )


def integrate(
    start: PhasePoint,
    params: SystemParams,
    t_end: float,
    scale: TimeScale = TimeScale.SLOW,
    tol: float = 1e-8,
    direction: int = 1,
    max_norm: float = 1e8,
    sections: tuple[float, ...] = (),
    start_on: int | None = None,
) -> Trajectory:
    """Adaptive stiff integration from `start` for a finite `t_end` time
    units, ended early when it closes on `sections`: the abscissae of the
    vertical lines it watches in its sense, leftward for `direction` 1 and
    rightward for -1.  It closes at the first accepted step that crosses a
    section in that sense a second time, with no crossing in between of one
    that the sense meets first (one to its right, for a leftward run);
    `start_on=j` counts the start as a crossing of section j.  Its `closing`
    is then (j, node of the first crossing, node of the second), node 0 for
    the start.  A run without sections pays one comparison a step for them.

    Local error is kept at or below `tol` per step (mixed absolute/relative
    weighting); the returned trajectory holds the accepted nodes together
    with node derivatives, so dense output at any requested spacing is
    available through Trajectory.sample / sample_uniform.  Every step is
    clamped to end at or before `t_end`, so time stays finite.  State is
    advanced in the requested time scale; `direction=-1` integrates the
    time-reversed field so that timestamps always increase.

    Raises StepSizeCollapseError if the step falls below 1e-14 and
    NonFiniteError if the state blows up, which is the legitimate outcome
    for divergent parameter regimes; either carries the partial trajectory.

    This is the one loop that steps and drives a trajectory.  Each step is
    the straight-line RODAS step: the stages are scalar locals, the field is
    inlined as 4x - y - x^3 (the loop's -y + 4x - x^3 to the bit, as b - a
    is b + (-a)), the reject budget is a count, and every sum runs in tableau
    order (stage 6's argument is stage 5's plus k5, the same sum term by
    term), so the arithmetic is that of the loop over `_A`, `_C` and `_M`.
    The step control picks with conditional expressions the float that
    `abs`, `max` and `min` would (a zero's sign is lost in tol + tol*m).
    """
    if params.eps <= 0.0:
        raise ValueError("integrate requires eps > 0; use the singular module for eps = 0")
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    if not 1e-12 <= tol <= 1e-3:
        raise ValueError("tol must lie in [1e-12, 1e-3]")
    if start_on is not None and not 0 <= start_on < len(sections):
        raise ValueError("start_on must index a section")

    isfinite, sqrt = math.isfinite, math.sqrt
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), _ = _A
    (c21,), (c31, c32), (c41, c42, c43), (c51, c52, c53, c54), (c61, c62, c63, c64, c65) = _C
    b, c = params.b, params.c
    # component scaling: fast scale integrates (f, eps*g), slow scale (f/eps, g)
    if scale is TimeScale.FAST:
        sx, sy = float(direction), direction * params.eps
    else:
        sx, sy = direction / params.eps, float(direction)
    # the constant entries of the exact Jacobian of the scaled field
    j12, j21, j22 = -sx, sy, -sy * b
    t = 0.0
    x, y = float(start.x), float(start.y)
    fx = sx * (4.0 * x - y - x * x * x)
    fy = sy * (x - b * y - c)
    h = min(1e-3, 0.01 * tol ** 0.25 / (math.hypot(fx, fy) + 1e-6) + 1e-9)
    ux, uy = (-x if x < 0.0 else x), (-y if y < 0.0 else y)
    naccept = nreject = 0
    # (j, abscissa) in the order the run's sense meets them; their counted crossings' nodes
    watch = sorted(enumerate(sections), key=lambda js: -direction * js[1])
    marks = [0 if j == start_on else None for j, _ in watch]
    closing = None
    # a step that crosses one ends past the first and starts short of the
    # last: lo_x < x < hi_x and lo_x0 < x0 < hi_x0 (lo_x = inf: no sections)
    inf = math.inf
    if not watch:
        lo_x = hi_x = lo_x0 = hi_x0 = inf
    elif direction == 1:
        lo_x, hi_x, lo_x0, hi_x0 = -inf, watch[0][1], watch[-1][1], inf
    else:
        lo_x, hi_x, lo_x0, hi_x0 = watch[0][1], inf, -inf, watch[-1][1]
    ts, xs, ys, dxs, dys = [t], [x], [y], [fx], [fy]
    add_t, add_x, add_y, add_dx, add_dy = ts.append, xs.append, ys.append, dxs.append, dys.append
    try:
        while True:
            j11 = sx * (4.0 - 3.0 * x * x)
            budget = nreject + _MAX_REJECTS
            while nreject < budget:
                if t + h > t_end:
                    h = t_end - t
                if h < _H_FLOOR:
                    raise StepSizeCollapseError(f"step {h:.3e} below floor at t={t!r}")
                ghinv = 1.0 / (h * _GAMMA)
                w11 = ghinv - j11
                w22 = ghinv - j22
                det = w11 * w22 - j12 * j21
                if det == 0.0 or not isfinite(det):
                    h *= 0.5
                    nreject += 1
                    continue
                inv = 1.0 / det
                hinv = 1.0 / h

                # each stage solves (I/(h*gamma) - J) k = r in closed form
                k1x = (fx * w22 + fy * j12) * inv
                k1y = (w11 * fy + j21 * fx) * inv

                ax = x + a21 * k1x
                ay = y + a21 * k1y
                c1 = c21 * hinv
                rx = sx * (4.0 * ax - ay - ax * ax * ax) + c1 * k1x
                ry = sy * (ax - b * ay - c) + c1 * k1y
                k2x = (rx * w22 + ry * j12) * inv
                k2y = (w11 * ry + j21 * rx) * inv

                ax = x + a31 * k1x + a32 * k2x
                ay = y + a31 * k1y + a32 * k2y
                c1, c2 = c31 * hinv, c32 * hinv
                rx = sx * (4.0 * ax - ay - ax * ax * ax) + c1 * k1x + c2 * k2x
                ry = sy * (ax - b * ay - c) + c1 * k1y + c2 * k2y
                k3x = (rx * w22 + ry * j12) * inv
                k3y = (w11 * ry + j21 * rx) * inv

                ax = x + a41 * k1x + a42 * k2x + a43 * k3x
                ay = y + a41 * k1y + a42 * k2y + a43 * k3y
                c1, c2, c3 = c41 * hinv, c42 * hinv, c43 * hinv
                rx = sx * (4.0 * ax - ay - ax * ax * ax) + c1 * k1x + c2 * k2x + c3 * k3x
                ry = sy * (ax - b * ay - c) + c1 * k1y + c2 * k2y + c3 * k3y
                k4x = (rx * w22 + ry * j12) * inv
                k4y = (w11 * ry + j21 * rx) * inv

                ax = x + a51 * k1x + a52 * k2x + a53 * k3x + a54 * k4x
                ay = y + a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y
                c1, c2 = c51 * hinv, c52 * hinv
                c3, c4 = c53 * hinv, c54 * hinv
                rx = sx * (4.0 * ax - ay - ax * ax * ax) + c1 * k1x + c2 * k2x + c3 * k3x + c4 * k4x
                ry = sy * (ax - b * ay - c) + c1 * k1y + c2 * k2y + c3 * k3y + c4 * k4y
                k5x = (rx * w22 + ry * j12) * inv
                k5y = (w11 * ry + j21 * rx) * inv

                # RODAS is stiffly accurate (_A's last row is stage 5's, then 1;
                # _M is that row, then 1): stage 6's argument is stage 5's plus
                # k5, and the solution stage 6's plus k6, the error estimate
                ax += k5x
                ay += k5y
                c1, c2 = c61 * hinv, c62 * hinv
                c3, c4, c5 = c63 * hinv, c64 * hinv, c65 * hinv
                rx = (sx * (4.0 * ax - ay - ax * ax * ax)
                      + c1 * k1x + c2 * k2x + c3 * k3x + c4 * k4x + c5 * k5x)
                ry = sy * (ax - b * ay - c) + c1 * k1y + c2 * k2y + c3 * k3y + c4 * k4y + c5 * k5y
                k6x = (rx * w22 + ry * j12) * inv
                k6y = (w11 * ry + j21 * rx) * inv

                xn = ax + k6x
                yn = ay + k6y

                if not (isfinite(xn) and isfinite(yn)):
                    h *= 0.5
                    nreject += 1
                    continue
                uxn, uyn = (-xn if xn < 0.0 else xn), (-yn if yn < 0.0 else yn)
                sc1 = tol + tol * (uxn if uxn > ux else ux)
                sc2 = tol + tol * (uyn if uyn > uy else uy)
                err = sqrt(0.5 * ((k6x / sc1) ** 2 + (k6y / sc2) ** 2))
                if err <= 1.0:
                    break
                nreject += 1
                h *= fac if (fac := 0.9 * err ** -0.25) > 0.1 else 0.1
            else:
                raise StepSizeCollapseError("step repeatedly rejected")

            t += h
            x0, x = x, xn
            y, ux, uy = yn, uxn, uyn
            fx = sx * (4.0 * xn - yn - xn * xn * xn)
            fy = sy * (xn - b * yn - c)
            naccept += 1
            # no lower clamp: err <= 1 gives a factor of at least 0.9
            fac = 0.9 * err ** -0.25 if err > 0.0 else 6.0
            h *= fac if fac < 6.0 else 6.0
            if (uyn if uyn > uxn else uxn) > max_norm:
                raise NonFiniteError(
                    f"state left |u| <= {max_norm} at t={t!r}",
                    last_state=PhasePoint(xn, yn) if isfinite(xn + yn) else None,
                )
            add_t(t)
            add_x(x)
            add_y(y)
            add_dx(fx)
            add_dy(fy)
            remainder = t_end - t
            if remainder < _H_FLOOR:
                if remainder > 0.0:
                    # t + (t_end - t) rounded short of t_end by less than
                    # the step floor: that is arrival, not a step to take
                    ts[-1] = t_end
                break
            if lo_x < x < hi_x and lo_x0 < x0 < hi_x0:
                for p, (j, s) in enumerate(watch):
                    if direction * (x0 - s) > 0.0 > direction * (x - s):
                        if marks[p] is not None:
                            closing = (j, marks[p], naccept)
                            break
                        # the sections that the sense meets after it lose their count
                        marks[p:] = [naccept] + [None] * (len(marks) - p - 1)
                if closing is not None:
                    break
    except IntegrationError as exc:
        exc.trajectory = _make_traj(ts, xs, ys, dxs, dys, direction, naccept, nreject, tol)
        if exc.last_state is None:
            exc.last_state = PhasePoint(xs[-1], ys[-1])
        raise
    return _make_traj(ts, xs, ys, dxs, dys, direction, naccept, nreject, tol, closing)


def _make_traj(ts, xs, ys, dxs, dys, direction, naccept, nreject, tol, closing=None) -> Trajectory:
    return Trajectory(
        np.array(ts),
        np.array(xs),
        np.array(ys),
        np.array(dxs),
        np.array(dys),
        direction,
        {"steps": naccept, "rejected": nreject, "tol": tol},
        closing,
    )


def _shoot(start, params, t_end, lines, stats, start_on=None, **kwargs):
    """`integrate` from `start` to its closing on the half-lines `lines`,
    [(x_eq, y_eq), ...], adding its step counts to `stats`, also when it
    raises: the run, the index j of the half-line it closed on and the (t, y)
    of its two crossings there (the start at t = 0; None below y_eq), or the
    run, None, None if it closed none.  `kwargs` go to `integrate`."""
    traj = None
    try:
        traj = integrate(start, params, t_end, sections=tuple(x_eq for x_eq, _ in lines),
                         start_on=start_on, **kwargs)
    except IntegrationError as exc:
        traj = exc.trajectory
        raise
    finally:
        if traj is not None:
            stats["steps"] += traj.stats["steps"]
            stats["rejected"] += traj.stats["rejected"]
    if traj.closing is None:
        return traj, None, None
    j, *nodes = traj.closing
    return traj, j, [(0.0, start.y) if i == 0 else traj.crossing(i, *lines[j]) for i in nodes]


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
    # the search's step counts as in Trajectory.stats, with its shots; for
    # the homoclinic loop, those of every run of its locate, with shots the
    # values of the splitting function (empty for a loop assembled otherwise)
    stats: dict = field(default_factory=dict)
    # P'(y*) of the return map to the section at the loop's start (nan for a
    # loop assembled otherwise)
    multiplier: float = math.nan

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


# slow-time units at the end of a run that closes no loop over which it is
# tested for an equilibrium; also the period estimate before the first return
_WINDOW = 10.0
_MIN_CYCLE_DIAMETER = 1e-6
# Newton on the return map stops once its step is below this many times the
# integration tol: d(y) is noisy at up to 0.1 tol, the difference in the
# integration error of two runs (measured at tol 1e-12 to 1e-8), and a canard
# loop moves by 0.0185 in T when its start moves by 2.6e-8
_NEWTON_EXIT = 1.0
# with no sign change known, a step goes at most to twice the return's height
# above the equilibrium (d > 0), or down to this fraction of it (d < 0)
_FALL = 0.01
# at the end of the budget, a last Newton step below this fraction of its
# loop's x-range returns that loop unconverged
_LOOSE_FRACTION = 0.01
# three-point Gauss-Legendre nodes on [0, 1] and their weights
_GAUSS = ((0.5 - 0.5 * math.sqrt(0.6), 5.0 / 18.0), (0.5, 8.0 / 18.0),
          (0.5 + 0.5 * math.sqrt(0.6), 5.0 / 18.0))
# samples of the returned loop
_DENSE_N = 2000
_MAX_NORM = 1e6


def find_limit_cycle(
    params: SystemParams,
    seed: PhasePoint,
    tol: float = 1e-10,
    max_periods: float = 50.0,
) -> LimitCycle:
    """Locate the limit cycle that the forward orbit from `seed` approaches,
    as a fixed point of the return map P to a half-line.

    The sections are the half-lines {x = x_eq, y > y_eq} above the
    equilibria: x' = (y_eq - y)/eps there, so the flow crosses each leftward
    only, and a cycle crosses the one above each equilibrium it encloses
    once.  The orbit runs from the seed until it returns to a half-line;
    Newton's method on d(y) = P(y) - y then runs on that half-line from the
    first of the two crossings (see `_return_map_root`), kept on the side
    from which the orbit approaches the root.  Converged when the Newton
    step is below `tol`; the loop starts on the half-line at `section_x` =
    x_eq and carries the multiplier P'(y*), and it is labelled stable when
    that is below 1.

    The budget is `max_periods` estimated periods of slow time (10 time
    units each until the first return).  The one loose exit: when the budget
    runs out, the last loop is returned flagged `converged=False` if its
    Newton step is below 1% of its x-range.  That is the regime beside a
    Hopf point, where the noise of d, about 0.1 tol, is divided by a small
    1 - P'.

    The search ends without a cycle at one of these exits:
    - ConvergedToEquilibriumError, the one equilibrium certificate, read
      from each finished run: an extent, max(x-range, y-range), below 1e-6,
      of its loop between two crossings, or, for a run that closed none, of
      its last 10 time units.  A run whose returns fall sends Newton down to
      at least 1% of its height above the equilibrium, so a search that
      falls into an equilibrium meets the certificate within a few runs, and
      a run parked on one ends at the budget of the search.  It is raised
      only where the trace (4 - 3 x_eq^2)/eps - b of that equilibrium is
      <= 0; beside a repelling one the extent falls because the cycle
      around it is below what `tol` resolves, and NoCycleError is raised;
    - NoCycleError, when the budget runs out otherwise;
    - the integrator's NonFiniteError (|x| or |y| above 1e6) or
      StepSizeCollapseError.
    The returned loop and every FHNError raised carry `stats`, the search's
    step counts in the form of Trajectory.stats plus `shots`.
    """
    if not (math.isfinite(max_periods) and max_periods > 0.0):
        raise ValueError("max_periods must be finite and > 0")
    lines = [(x_eq, phi(x_eq)) for x_eq, _ in equilibrium_abscissae(params)]
    return _return_map_root(params, lines, tol, max_periods, seed=seed)


def find_unstable_cycle(params: SystemParams, outer: LimitCycle, tol: float = 1e-10) -> LimitCycle:
    """The unstable cycle between a stable equilibrium and a stable loop
    `outer` that starts on the half-line above it, at x_eq = `outer.section_x`
    and y_outer = `outer.y[0]`: a root of d(y) = P(y) - y, P the return map.

    d < 0 beside a stable focus and d > 0 just inside a stable cycle, so an
    unstable cycle lies between them (the Poincare-Bendixson annulus; Perko,
    Differential Equations and Dynamical Systems, section 3.4).  The search
    is that of `find_limit_cycle`, started on the bracket [y_eq + 1e-3 s,
    y_outer - 1e-3 s], s = y_outer - y_eq, with a budget of 50 periods of
    `outer`, and it keeps Newton inside the bracket.  NoCycleError: no sign
    change from d < 0 to d > 0 there, or the budget runs out as in
    `find_limit_cycle`.  The loop and every FHNError raised carry `stats`.
    """
    x_eq = outer.section_x
    y_eq, y_outer = phi(x_eq), float(outer.y[0])
    s = y_outer - y_eq
    return _return_map_root(params, [(x_eq, y_eq)], tol, 50.0, t_ref=outer.period,
                            bracket=(y_eq + 1e-3 * s, y_outer - 1e-3 * s))


def _return_map_root(params, lines, tol, max_periods, seed=None, t_ref=_WINDOW, bracket=None):
    """Newton's method on the displacement d(y) = P(y) - y of the return map
    to one of the half-lines `lines`.

    Each run integrates forward until some half-line is crossed twice; its
    stretch between the two crossings, from y to P(y), gives one value of d
    on that half-line, the search's half-line from then on.  With a `seed`,
    the first run is the transient from the seed, and the search takes a
    root that the orbit approaches: d > 0 below it and d < 0 above it.
    With a `bracket` (lo, hi) on the one half-line, both ends are shot
    first, and the root taken has d(lo) < 0 < d(hi): a repelling cycle.
    Every later run is a shot from (x_eq, y), the start counting as a
    crossing.

    A stretch also gives P'(y) = (y - y_eq)/(P(y) - y_eq) exp(integral of
    div F dt), by Liouville's formula with div F = (4 - 3x^2)/eps - b,
    integrated by a three-point Gauss rule on each step's Hermite x(t).  P
    is increasing, so d keeps its sign from y to P(y): each value moves a
    bracket end to the farther of the two.  The next y is the Newton step
    y - d/(P' - 1) when it stays in the bracket, else the bracket's
    midpoint.  While only one end is known, y is kept between the return
    and twice its height above y_eq (d > 0), or 1% of that height (d < 0).

    Converged when the Newton step |d/(P' - 1)| is below `tol`; the loop is
    that stretch.  The slow time of all runs together is bounded by
    `max_periods` times the last return time (`t_ref` before any).  When it
    runs out, or the bracket closes below `tol` without a root, the last
    stretch is returned unconverged if its Newton step is below 1% of its
    x-range; otherwise NoCycleError.
    """
    stats = {"steps": 0, "rejected": 0, "tol": tol, "shots": 0}
    spent = 0.0

    def run(k, y):
        """`_shoot` from (x_eq, y) on half-line k, or from the seed (k None),
        tested for an equilibrium (see `find_limit_cycle`): its loop, or its
        last `_WINDOW` time units if it closed none."""
        nonlocal spent
        start = seed if k is None else PhasePoint(lines[k][0], y)
        traj, j, ends = _shoot(start, params, max_periods * t_ref - spent, lines, stats, start_on=k,
                               tol=tol, max_norm=_MAX_NORM)
        spent += traj.t[-1]
        if j is None:
            # no loop: the last window, from the node at or before its start
            first = max(int(np.searchsorted(traj.t, traj.t[-1] - _WINDOW, side="right")) - 1, 0)
            x_end = traj.x[-1]
            line = min(lines, key=lambda ln: abs(ln[0] - x_end))
            message = "state stopped moving; trajectory parked at an equilibrium"
        elif None in ends:
            raise _fell_onto(params, lines[j], "orbit crossed the section at the equilibrium")
        else:
            # the loop: the nodes from its first crossing on
            first = int(np.searchsorted(traj.t, ends[0][0]))
            line, message = lines[j], "shots converged onto a point, not a cycle"
        if max(np.ptp(traj.x[first:]), np.ptp(traj.y[first:])) < _MIN_CYCLE_DIAMETER:
            raise _fell_onto(params, line, message)
        return traj, j, ends

    try:
        lo = hi = last = None
        if seed is None:
            k, y, pending = 0, bracket[0], [bracket[1]]
        else:
            k, y, pending = None, None, []
        while max_periods * t_ref > spent:
            if k is not None:
                stats["shots"] += 1
            traj, j, ends = run(k, y)
            if j is None:
                break
            (t_0, y), (t_c, y_c) = ends
            if j != k:
                k, lo, hi = j, None, None
            x_eq, y_eq = lines[k]
            t_ref = t_c - t_0
            d = y_c - y
            slope = (y - y_eq) / (y_c - y_eq) * math.exp(min(_divergence(traj, t_0, t_c, params), 700.0))
            step = d / (slope - 1.0) if slope != 1.0 else math.inf
            last = (traj, t_0, t_c, d, slope, step)
            # d keeps its sign from y to y_c; lo is the end from which the
            # root lies in the direction of d (seeded) or against it
            if (d > 0.0) == (seed is not None):
                lo = max(y, y_c) if lo is None else max(lo, y, y_c)
            else:
                hi = min(y, y_c) if hi is None else min(hi, y, y_c)
            if pending:
                y = pending.pop()
                continue
            if seed is None and (lo is None or hi is None):
                raise NoCycleError(
                    f"displacement does not change sign from y={bracket[0]!r} to y={bracket[1]!r}")
            if abs(step) < _NEWTON_EXIT * tol:
                return _build_loop(last, x_eq, True, stats)
            y_new = y - step
            if hi is None:
                cap = y_eq + 2.0 * (lo - y_eq)
                y = y_new if lo <= y_new <= cap else cap
            elif lo is None:
                floor = y_eq + _FALL * (hi - y_eq)
                y = y_new if floor <= y_new <= hi else floor
            elif hi - lo < _NEWTON_EXIT * tol:
                # a sign change narrower than the exit where Newton does not
                # settle: a jump of d, not a root
                break
            else:
                y = y_new if lo <= y_new <= hi else 0.5 * (lo + hi)
        if last is not None:
            loop = _build_loop(last, lines[k][0], False, stats)
            if abs(last[-1]) < _LOOSE_FRACTION * np.ptp(loop.x):
                return loop
        raise NoCycleError(f"returns did not settle within {max_periods} estimated periods")
    except FHNError as exc:
        exc.stats = dict(stats)
        raise


def _fell_onto(params, line, message):
    """The error for a search whose extent fell below 1e-6 at the equilibrium
    (x_eq, y_eq) = `line`: ConvergedToEquilibriumError when the trace of the
    Jacobian there, (4 - 3 x_eq^2)/eps - b, is <= 0, else NoCycleError.

    Beside a repelling focus the extent falls only because the cycle around
    it is too small for `tol` to resolve: d(y) inside it is below the
    integration noise, so Newton steps fall through it onto the focus."""
    x_eq, _ = line
    trace = (4.0 - 3.0 * x_eq * x_eq) / params.eps - params.b
    if trace <= 0.0:
        return ConvergedToEquilibriumError(message)
    return NoCycleError(f"{message}; the equilibrium at x={x_eq!r} repels (trace {trace:.3e}), "
                        "so any cycle around it is too small for this tol")


def _divergence(traj, t_0, t_c, params):
    """Integral of div F = (4 - 3x^2)/eps - b over [t_0, t_c] of `traj`,
    where t_c lies in its last step: a three-point Gauss rule on each
    step's cubic-Hermite x(t)."""
    i = int(np.searchsorted(traj.t, t_0, side="right")) - 1
    t, x, dx = traj.t[i:], traj.x[i:], traj.dx[i:]
    h = np.diff(t)
    a, b = t[:-1].copy(), t[1:].copy()
    a[0], b[-1] = t_0, t_c
    span = b - a
    total = 0.0
    for node, weight in _GAUSS:
        xs = _hermite((a - t[:-1] + node * span) / h, x[:-1], x[1:], dx[:-1], dx[1:], h)
        # np.sum, not np.dot: BLAS picks its summation order by CPU
        total += weight * float(np.sum(span * (4.0 - 3.0 * xs * xs)))
    return total / params.eps - params.b * (t_c - t_0)


def _build_loop(stretch, section_x, converged, stats):
    """The loop of `stretch` = (trajectory, t_0, t_c, d, P', Newton step),
    labelled by its multiplier P'."""
    traj, t_0, t_c, d, slope, _ = stretch
    ts = np.linspace(t_0, t_c, _DENSE_N + 1)
    xs, ys = traj.sample(ts)
    return LimitCycle(
        ts - t_0,
        xs,
        ys,
        t_c - t_0,
        cycle_length(xs, ys),
        Stability.STABLE if slope < 1.0 else Stability.UNSTABLE,
        converged,
        section_x,
        abs(d),
        dict(stats),
        slope,
    )
