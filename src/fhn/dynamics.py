"""Stiff integration of the regular (eps > 0) system and limit-cycle location.

The integrator is a six-stage, stiffly accurate, L-stable linearly implicit
Rosenbrock method of order 4 with an embedded order-3 error estimate
(coefficients from Hairer & Wanner's RODAS), specialized to the
FitzHugh-Nagumo field with its exact 2x2 Jacobian.  One function drives
every run, `integrate`, the cycle searches' included; its step loop is the
compiled one of `_rodas.c` where that can be built (see `_kernel`), else the
same loop in Python, with the same bits.  So are the passes over a run:
the crossing bisection, the divergence integral of the Newton slope
(`_divergence`) and the dense output (`Trajectory.sample`) run in C where
the library is loaded, else in their Python and numpy forms, bit for bit.
A run's nodes are one C-contiguous (5, n) float64 block, the rows t, x, y,
dx, dy, which every compiled pass reads at one address (see `Trajectory`).

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

import ctypes
import errno
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np

from . import _kernel
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
from .singular import FOLD_X, _transit_time, equilibrium_abscissae, slow_flow_numerator

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

# the compiled step loop and passes, or None where they could not be built
# or loaded: then `integrate` steps in Python and the passes run in numpy,
# with the same results (see `_kernel`); `canard` reads it at each call
_LIB = _kernel.load()
# gamma, then _A's rows 1-4 and _C's rows 1-5, as `rodas_run` reads them
_TABLEAU = (ctypes.c_double * 26)(_GAMMA, *chain(*_A[:4]), *chain(*_C))
# how `rodas_run` ended (`_rodas.c`)
_AT_END, _CLOSED, _FULL, _BELOW_FLOOR, _REJECTED, _BLEW_UP, _OVERFLOW = range(7)
# nodes of a compiled run's first buffer
_FIRST_CAPACITY = 1024


def kernel() -> str:
    """Which loop takes the steps of `integrate` and makes the passes over
    its runs: "c", the compiled one of `_rodas.c`, or "python", where that
    could not be built."""
    return "python" if _LIB is None else "c"


class Stability(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"


@dataclass
class Trajectory:
    """Accepted integration nodes with node derivatives for dense output.

    The five node arrays of a run of `integrate` are the rows t, x, y, dx,
    dy of one C-contiguous (5, n) float64 block, whose address the run keeps
    for the compiled passes over it.  They read the block only while every
    field is still the row that `integrate` set and that row's base is the
    block: a rebound field fails the first test, a deep copy or an unpickled
    run (whose rows own their memory) the second.  Such a run, and any
    Trajectory built otherwise, has its fields stacked into a fresh block at
    each call, never kept, so an edit in place is always seen.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    direction: int
    stats: dict = field(default_factory=dict)
    # (section, node of its first crossing, of its second): see `integrate`
    closing: tuple[int, int, int] | None = None
    # (block, its address, its five rows) as `integrate` set them, or ()
    _nodes: tuple = field(default=(), init=False, repr=False, compare=False)

    def sample(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cubic-Hermite dense output at the requested times, each in the step
        holding it (the end steps extrapolate; a 1-node run gives its node)."""
        ts = np.asarray(ts, dtype=float)
        nodes = _node_block(self)
        if nodes is not None:
            # the evaluation below, in `_rodas.c`, into one (2, m) block
            # whose rows are the outputs
            block, address = nodes
            flat = ts.ravel()
            out = np.empty((2, flat.size))
            _LIB.rodas_sample(address, block.shape[1], flat.ctypes.data, flat.size, out.ctypes.data)
            xs, ys = out
            # numpy's shape and type: a 0-d `ts` gives scalars
            return xs.reshape(ts.shape)[()], ys.reshape(ts.shape)[()]
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
        # arange with dt > 0 does not decrease: the times up to t[-1] are a prefix
        ts = ts[: np.searchsorted(ts, self.t[-1], side="right")]
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
        sign = self.direction
        nodes = _node_block(self)
        n = 0 if nodes is None else nodes[0].shape[1]
        # an index out of range is left to the reads below, which raise
        if -n < i < n:
            # the bisection below, in `_rodas.c`, on nodes i - 1 and i of the block
            out = (ctypes.c_double * 2)()
            found = _LIB.rodas_crossing(nodes[1], n, i, x_s, y_s, sign, out)
            return (out[0], out[1]) if found else None
        t0, x0, y0, dx0, dy0 = (float(a[i - 1]) for a in (self.t, self.x, self.y, self.dx, self.dy))
        t1, x1, y1, dx1, dy1 = (float(a[i]) for a in (self.t, self.x, self.y, self.dx, self.dy))
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


def _node_block(traj):
    """The node block of `traj` and its address, as the passes of `_rodas.c`
    read them, or None where the library is not loaded or the fields are no
    block of nodes: the run's own block while `integrate`'s rows are its
    fields (see `Trajectory`), else its fields stacked by `_block`."""
    if traj._nodes and _LIB is not None:
        block, address, t, x, y, dx, dy = traj._nodes
        if (traj.t is t and traj.x is x and traj.y is y and traj.dx is dx and traj.dy is dy
                and t.base is block and x.base is block and y.base is block
                and dx.base is block and dy.base is block):
            return block, address
    block = _block(traj.t, traj.x, traj.y, traj.dx, traj.dy)
    return None if block is None or not block.shape[1] else (block, block.ctypes.data)


def _block(*rows):
    """`rows` as the rows of a fresh C-contiguous float64 block, the form in
    which `_rodas.c` reads arrays, or None where the library is not loaded,
    or unless each is 1-D and all have one length.  Lists, strided or
    integer arrays of a hand-built Trajectory or LimitCycle are converted;
    other shapes are left to the numpy forms."""
    if _LIB is None or any(np.ndim(a) != 1 for a in rows) or len({len(a) for a in rows}) != 1:
        return None
    return np.array(rows, dtype=float)


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
    A blow-up in finite time can end in StepSizeCollapseError before |u|
    reaches `max_norm`: the step of the time-reversed cubic reaches the
    floor first (in a fuzz of `direction=-1` runs, 447 of 743 ended so, at
    |x| from 1e4 to 2.3e6 and t from 1e-5 to 0.3).

    The steps are taken by the compiled loop of `_rodas.c` where it could be
    built (`kernel()` is "c"), else by `_python_loop` ("python"): the same
    arithmetic, so the same bits.  This function checks the arguments, takes
    the first step size, orders the sections and assembles the trajectory or
    the error; every run is a call of it.  Either loop returns the nodes
    as one (5, n) block, whose rows are the trajectory's fields.
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

    b, c = params.b, params.c
    # component scaling: fast scale integrates (f, eps*g), slow scale (f/eps, g)
    if scale is TimeScale.FAST:
        sx, sy = float(direction), direction * params.eps
    else:
        sx, sy = direction / params.eps, float(direction)
    x, y = float(start.x), float(start.y)
    fx = sx * (4.0 * x - y - x * x * x)
    fy = sy * (x - b * y - c)
    h = min(1e-3, 0.01 * tol ** 0.25 / (math.hypot(fx, fy) + 1e-6) + 1e-9)
    # (j, abscissa) in the order the run's sense meets them; their counted crossings' nodes
    watch = sorted(enumerate(sections), key=lambda js: -direction * js[1])
    marks = [0 if j == start_on else None for j, _ in watch]
    loop = _python_loop if _LIB is None else _compiled_loop
    nodes, naccept, nreject, closing, error = loop(
        x, y, fx, fy, h, b, c, sx, sy, tol, t_end, direction, max_norm, watch, marks)
    traj = Trajectory(*nodes, direction, {"steps": naccept, "rejected": nreject, "tol": tol}, closing)
    if _LIB is not None:
        # the block's address, taken once for every pass over the run
        traj._nodes = (nodes, nodes.ctypes.data, traj.t, traj.x, traj.y, traj.dx, traj.dy)
    if error is None:
        return traj
    error.trajectory = traj
    if error.last_state is None:
        error.last_state = PhasePoint(float(traj.x[-1]), float(traj.y[-1]))
    raise error


def _compiled_loop(x, y, fx, fy, h, b, c, sx, sy, tol, t_end, direction, max_norm, watch, marks):
    """`_python_loop`, run by `rodas_run` of `_rodas.c` into a (5, capacity)
    node buffer that doubles whenever it fills; the run's block is a copy of
    its first n columns."""
    nsec = len(watch)
    io = (ctypes.c_double * 17)(b, c, sx, sy, tol, t_end, max_norm, _H_FLOOR, direction,
                                0.0, x, y, fx, fy, h, -x if x < 0.0 else x, -y if y < 0.0 else y)
    counts = (ctypes.c_long * (6 + nsec))(_MAX_REJECTS, 0, 0, 0, -1, -1,
                                          *[-1 if m is None else m for m in marks])
    sec = (ctypes.c_double * nsec)(*[s for _, s in watch]) if watch else None
    buf = np.empty((5, _FIRST_CAPACITY))
    while (status := _LIB.rodas_run(_TABLEAU, io, counts, buf.ctypes.data, buf.shape[1],
                                    sec, nsec)) == _FULL:
        grown = np.empty((5, 2 * buf.shape[1]))
        grown[:, : buf.shape[1]] = buf
        buf = grown
    _, n, naccept, nreject, p, first = counts[:6]
    t, x, y, h = io[9], io[10], io[11], io[14]
    nodes = buf[:, :n].copy()
    closing = error = None
    if status == _CLOSED:
        closing = (watch[p][0], first, naccept)
    elif status == _BELOW_FLOOR:
        error = StepSizeCollapseError(f"step {h:.3e} below floor at t={t!r}")
    elif status == _REJECTED:
        error = StepSizeCollapseError("step repeatedly rejected")
    elif status == _BLEW_UP:
        error = NonFiniteError(f"state left |u| <= {max_norm} at t={t!r}",
                               last_state=PhasePoint(x, y) if math.isfinite(x + y) else None)
    elif status == _OVERFLOW:
        # what Python's float ** raises where libm's pow overflows
        raise OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))
    return nodes, naccept, nreject, closing, error


def _python_loop(x, y, fx, fy, h, b, c, sx, sy, tol, t_end, direction, max_norm, watch, marks):
    """The step loop of `integrate` from node 0 = (x, y, fx, fy) with first
    step `h` in the scaled field (sx f, sy g), where the compiled one could
    not be built: the node arrays (t, x, y, dx, dy), the accepted and the
    rejected steps, the closing and the IntegrationError that ended the run,
    or None; the node arrays are the rows of one (5, n) block, as the
    compiled loop returns them.

    Each step is the straight-line RODAS step: the stages are scalar locals,
    the field is inlined as 4x - y - x^3 (the loop's -y + 4x - x^3 to the
    bit, as b - a is b + (-a)), the reject budget is a count, and every sum
    runs in tableau order (stage 6's argument is stage 5's plus k5, the same
    sum term by term), so the arithmetic is that of the loop over `_A`, `_C`
    and `_M`.  The step control picks with conditional expressions the float
    that `abs`, `max` and `min` would (a zero's sign is lost in tol + tol*m).
    """
    isfinite, sqrt = math.isfinite, math.sqrt
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), _ = _A
    (c21,), (c31, c32), (c41, c42, c43), (c51, c52, c53, c54), (c61, c62, c63, c64, c65) = _C
    # the constant entries of the exact Jacobian of the scaled field
    j12, j21, j22 = -sx, sy, -sy * b
    t = 0.0
    ux, uy = (-x if x < 0.0 else x), (-y if y < 0.0 else y)
    naccept = nreject = 0
    closing = error = None
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
        error = exc
    return np.array((ts, xs, ys, dxs, dys)), naccept, nreject, closing, error


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
# the slow-time budget of every search, in estimated periods
_PERIODS = 50.0
# the cold start keeps this much of its climb to the fold, as the integral of
# div F (see `_cold_seed`)
_COLD_CONTRACTION = -27.0
# the cold start's abscissa where no climb places it, and its largest: from
# farther out the climb takes longer than a search's first-return window at
# eps 1000 (b = 0, c = 0.5: from x = 8 on), where 4 still finds the cycle
_COLD_X = 1.8
_COLD_X_MAX = 4.0
# a bound on the Newton steps that place it
_COLD_ITERATIONS = 60
# with no sign change known, a step goes at most to twice the return's height
# above the equilibrium (d > 0), or down to this fraction of it (d < 0)
_FALL = 0.01
# at the end of the budget, a last Newton step below this fraction of its
# loop's x-range returns that loop unconverged
_LOOSE_FRACTION = 0.01
# three-point Gauss-Legendre nodes on [0, 1] and their weights
_GAUSS = ((0.5 - 0.5 * math.sqrt(0.6), 5.0 / 18.0), (0.5, 8.0 / 18.0),
          (0.5 + 0.5 * math.sqrt(0.6), 5.0 / 18.0))
# as `rodas_divergence` reads them
_GAUSS_TABLE = (ctypes.c_double * 6)(*chain(*_GAUSS))
# samples of the returned loop
_DENSE_N = 2000
_MAX_NORM = 1e6


def find_limit_cycle(
    params: SystemParams,
    seed: PhasePoint | None = None,
    tol: float = 1e-10,
) -> LimitCycle:
    """Locate the limit cycle that the forward orbit from `seed` approaches,
    as a fixed point of the return map P to a half-line.

    Without a seed the orbit starts on the attracting right branch of the
    critical manifold, where the climb to the fold contracts by e^27 (see
    `_cold_seed`): for eps up to 1 its first return lies within `tol` of
    the relaxation cycle, when there is one.

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

    The budget, that of every search, is 50 estimated periods of slow time
    (10 time units each until the first return).  The one loose exit: when
    the budget runs out, the last loop is returned flagged `converged=False`
    if its Newton step is below 1% of its x-range.  That is the regime
    beside a Hopf point, where the noise of d, about 0.1 tol, is divided by
    a small 1 - P'.

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
    if params.eps <= 0.0:
        raise ValueError("find_limit_cycle requires eps > 0")
    lines = [(x_eq, phi(x_eq)) for x_eq, _ in equilibrium_abscissae(params)]
    return _return_map_root(params, lines, tol, seed=_cold_seed(params) if seed is None else seed)


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
    return _return_map_root(params, [(x_eq, y_eq)], tol, t_ref=outer.period,
                            bracket=(y_eq + 1e-3 * s, y_outer - 1e-3 * s))


def _return_map_root(params, lines, tol, seed=None, t_ref=_WINDOW, bracket=None):
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
    `_PERIODS` times the last return time (`t_ref` before any).  When it
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
        traj, j, ends = _shoot(start, params, _PERIODS * t_ref - spent, lines, stats, start_on=k,
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
        while _PERIODS * t_ref > spent:
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
        raise NoCycleError(f"returns did not settle within {_PERIODS} estimated periods")
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
    nodes = _node_block(traj)
    if nodes is not None and nodes[0][0, 0] <= t_0 < nodes[0][0, -1]:
        # the rule below, in `_rodas.c`, each term made as it is summed
        block, address = nodes
        return _LIB.rodas_divergence(address, block.shape[1], t_0, t_c, params.eps, params.b,
                                     _GAUSS_TABLE)
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


def _cold_seed(params: SystemParams) -> PhasePoint:
    """The cold start of a cycle search: the point (x_s, phi(x_s)) on the
    attracting right branch of the critical manifold from which the climb
    to the fold contracts by exactly e^27, up to x = 4.

    The attracting slow manifold contracts nearby orbits at the rate of
    div F = phi'(x)/eps - b (Fenichel; Krupa & Szmolyan, J. Differential
    Equations 174, 2001), so on the climb the start's O(eps) offset from it
    shrinks by the exponential of the integral of div F over the reduced
    flow from x_s to FOLD_X: (1/eps) int phi'^2/g dx - b int phi'/g dx,
    g = x - b phi(x) - c, both in closed form (`singular._transit_time`).
    x_s is the root of that integral at _COLD_CONTRACTION, by Newton's
    method kept in a bracket: right of the fold, for b >= 0, the integral
    falls as x_s grows.  At eps 0.5, c = 1.14 (x_s = 1.80) the first return
    lies within 5e-14 of the relaxation cycle, and the search ends after one
    period with no Newton shot at tol 1e-11.  At eps 2 in the c = 0 family
    (b = 0.24, tol 1e-9) a search still takes one shot from x_s.

    With an equilibrium at or right of the fold, which stops the climb, or
    with b < 0, where div F is positive beside the fold and an equilibrium
    lies far right on the branch, the start is (1.8, phi(1.8)).  It lies at
    x = 4 at most, whatever the climb from there: from eps 6 at b = 0.3,
    c = 0 and from eps 15 at b = c = 0.
    """
    b, eps = params.b, params.eps
    roots = equilibrium_abscissae(params)
    if b < 0.0 or any(r >= FOLD_X for r, _ in roots):
        return PhasePoint(_COLD_X, phi(_COLD_X))

    def excess(x):
        contraction = (_transit_time(x, FOLD_X, params, roots, 2) / eps
                       - b * _transit_time(x, FOLD_X, params, roots))
        return contraction - _COLD_CONTRACTION

    lo, x = FOLD_X, _COLD_X
    while (e := excess(x)) > 0.0:
        if x == _COLD_X_MAX:
            return PhasePoint(x, phi(x))
        lo, x = x, min(2.0 * x, _COLD_X_MAX)
    hi = x
    for _ in range(_COLD_ITERATIONS):
        lo, hi = (x, hi) if e > 0.0 else (lo, x)
        # d excess / dx_s = -(phi'/eps - b) phi'/g at x_s
        d = 4.0 - 3.0 * x * x
        step = -e * slow_flow_numerator(x, params) / ((d / eps - b) * d)
        if abs(step) <= 1e-14 * x:
            break
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
        e = excess(x)
    return PhasePoint(x, phi(x))
