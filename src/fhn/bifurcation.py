"""Equilibria, codimension-one bifurcation loci, and parameter-sweep diagrams.

Analytic loci are returned in closed form (Hopf in c at +-2/sqrt(3), the
pitchfork at b = 1/4, Hopf in b at (-4 + sqrt(16 + 3 eps))/eps); the
homoclinic locus is found by bisection on the fate of the saddle's unstable
manifold W^u, which escapes outward below it and is captured by E+ above it.
A shot ends as soon as its fate is certain: on escape past x = -0.5, or on
capture, once two successive leftward crossings of the half-line
{x = x_E+, y > y_E+} step down by more than the integration error (the flow
crosses that half-line leftward only, so the orbit is then confined inside its
last loop around E+).  A sweep row also finds the unstable cycle inside a
stable loop around E+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import PhasePoint, SystemParams, TimeScale, f_scalar, g_scalar, jacobian, phi
from .dynamics import (
    LimitCycle,
    Stability,
    _half_line_crossing,
    cycle_length,
    find_limit_cycle,
    find_unstable_cycle,
    integrate,
    integrate_until,
)
from .errors import BracketFailureError, FHNError, IntegrationError
from .singular import equilibrium_abscissae

_HYPERBOLICITY_TOL = 1e-9


class EquilibriumClass(Enum):
    STABLE_NODE = "StableNode"
    STABLE_FOCUS = "StableFocus"
    UNSTABLE_NODE = "UnstableNode"
    UNSTABLE_FOCUS = "UnstableFocus"
    SADDLE = "Saddle"
    NON_HYPERBOLIC = "NonHyperbolic"


@dataclass(frozen=True)
class Equilibrium:
    point: PhasePoint
    eigenvalues: tuple[complex, complex]
    classification: EquilibriumClass


def classify_eigenvalues(lam: tuple[complex, complex]) -> EquilibriumClass:
    re1, re2 = lam[0].real, lam[1].real
    if min(abs(re1), abs(re2)) < _HYPERBOLICITY_TOL:
        return EquilibriumClass.NON_HYPERBOLIC
    if abs(lam[0].imag) > 0.0:
        return EquilibriumClass.STABLE_FOCUS if re1 < 0.0 else EquilibriumClass.UNSTABLE_FOCUS
    if re1 * re2 < 0.0:
        return EquilibriumClass.SADDLE
    return EquilibriumClass.STABLE_NODE if re1 < 0.0 else EquilibriumClass.UNSTABLE_NODE


def equilibria(params: SystemParams) -> list[Equilibrium]:
    """All equilibria (roots of b*x^3 + (1-4b)*x - c paired with y = phi(x))."""
    out = []
    for x, _mult in equilibrium_abscissae(params):
        p = PhasePoint(x, phi(x))
        lam = jacobian(p, params, TimeScale.FAST).eigenvalues
        out.append(Equilibrium(p, lam, classify_eigenvalues(lam)))
    return out


class BifKind(Enum):
    HOPF_SUB = "HopfSub"
    HOPF_SUPER = "HopfSuper"
    PITCHFORK = "Pitchfork"
    HOMOCLINIC = "Homoclinic"


@dataclass(frozen=True)
class BifurcationPoint:
    kind: BifKind
    param_name: str
    param_value: float
    eps: float
    equilibrium: Equilibrium | None = None
    orbit: LimitCycle | None = None  # near-bifurcation cycle, when the search produces one


def hopf_in_c(eps: float) -> tuple[BifurcationPoint, BifurcationPoint]:
    """Hopf pair of the b = 0 family at c = +-2/sqrt(3), analytic.

    Eigenvalues there are +-i*sqrt(eps).  The cycles born at c = 2/sqrt(3)
    live on c below it, around an unstable focus, and they are stable: their
    multiplier (`LimitCycle.multiplier`) is below 1.  `kind` keeps its
    recorded value until the first Lyapunov coefficient settles it.
    """
    if eps <= 0.0:
        raise ValueError("hopf_in_c requires eps > 0")
    c_h = 2.0 / math.sqrt(3.0)
    pts = []
    for c in (c_h, -c_h):
        params = SystemParams(0.0, c, eps)
        eq = equilibria(params)[0]
        pts.append(BifurcationPoint(BifKind.HOPF_SUB, "c", c, eps, eq))
    return pts[0], pts[1]


def pitchfork_in_b() -> BifurcationPoint:
    """Pitchfork of the c = 0 family at b = 1/4 where E+- branch off the origin."""
    params = SystemParams(0.25, 0.0, 0.0)
    eq = equilibria(params)[0]
    return BifurcationPoint(BifKind.PITCHFORK, "b", 0.25, 0.0, eq)


def hopf_in_b(eps: float) -> BifurcationPoint:
    """Hopf of E+- in the c = 0 family: b = (-4 + sqrt(16 + 3 eps))/eps.

    Closed-form root of Tr(J_{E+}) = -eps*b + 3/b - 8 = 0; tends to 3/8 as
    eps -> 0.  The cycles born here are unstable: at b above b_h they
    surround the stable focus E+ inside the relaxation cycle, up to the
    homoclinic value.  Raises ValueError for eps <= 0,
    and for eps >= 16, where b_h <= 1/4 and E+- do not exist.
    """
    if eps <= 0.0:
        raise ValueError("hopf_in_b requires eps > 0")
    b_h = _hopf_b_value(eps)
    if b_h <= 0.25:
        raise ValueError(
            f"hopf_in_b requires eps < 16: b_h={b_h} <= 1/4 at eps={eps}, where E+- do not exist"
        )
    params = SystemParams(b_h, 0.0, eps)
    eq_plus = max(equilibria(params), key=lambda e: e.point.x)
    return BifurcationPoint(BifKind.HOPF_SUPER, "b", b_h, eps, eq_plus)


def _hopf_b_value(eps: float) -> float:
    return (-4.0 + math.sqrt(16.0 + 3.0 * eps)) / eps


# the search interval above the Hopf value, the tolerance and slow-time budget
# of every shot, and the drop between successive returns to the half-line
# above E+ that proves capture (well above the integration error of a shot)
_HOMOCLINIC_BRACKET = 0.02
_HOMOCLINIC_TOL = 1e-10
_HOMOCLINIC_T_BUDGET = 400.0
_CAPTURE_MARGIN = 1e-6


def homoclinic_in_b(eps: float) -> BifurcationPoint:
    """Homoclinic locus of the c = 0 family by shooting along the saddle's W^u.

    Above the Hopf value b_h the unstable manifold of the saddle at the
    origin, after its excursion around E+, escapes outward to the left
    branch; above the homoclinic value it is captured by E+.  The locus is
    found by bisection on that fate over [b_h + 1e-3, b_h + 0.02] down to an
    interval of 1e-12; the lower end drops to b_h itself when W^u is already
    captured at b_h + 1e-3 (small eps, where the loop is born close to the
    Hopf value).  Each shot runs for at most 400 slow-time units and ends as
    soon as its fate is certain: at x < -0.5 on escape, and on capture once
    a leftward crossing of the half-line {x = x_E+, y > y_E+} lies more than
    1e-6 below the previous one.  The flow crosses that half-line only
    leftward, so its returns are monotone and the orbit stays inside its last
    loop, which lies in x >= -0.5.  The returned point carries a shadow of the
    homoclinic loop traced from both invariant manifolds of the saddle.

    Raises BracketFailureError when the fate does not change over the bracket,
    and when b_h <= 1/4 (eps >= 16), where the origin is not a saddle at the
    Hopf value.
    """
    if eps <= 0.0:
        raise ValueError("homoclinic_in_b requires eps > 0")
    tol = _HOMOCLINIC_TOL
    b_h = _hopf_b_value(eps)
    if b_h <= 0.25:
        raise BracketFailureError(
            f"Hopf value b_h={b_h} <= 1/4 at eps={eps}: the origin is not a saddle there"
        )
    lo, hi = b_h + 1e-3, b_h + _HOMOCLINIC_BRACKET
    if not _wu_escapes_outward(lo, eps, tol):
        lo = b_h
        if not _wu_escapes_outward(lo, eps, tol):
            raise BracketFailureError(
                f"unstable manifold already captured at the Hopf value b={b_h} at eps={eps}"
            )
    if _wu_escapes_outward(hi, eps, tol):
        raise BracketFailureError(
            f"unstable manifold still escapes at the upper bracket end b={hi} at eps={eps}"
        )
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _wu_escapes_outward(mid, eps, tol):
            lo = mid
        else:
            hi = mid
    b_hom = 0.5 * (lo + hi)
    params = SystemParams(b_hom, 0.0, eps)
    saddle = min(equilibria(params), key=lambda e: abs(e.point.x))
    return BifurcationPoint(
        BifKind.HOMOCLINIC, "b", b_hom, eps, saddle, orbit=_homoclinic_shadow(b_hom, eps, tol)
    )


def _saddle_seed(b: float, eps: float, side: float) -> tuple[PhasePoint, float]:
    """A point 1e-6 along the eigenvector of the saddle at the origin, and its
    eigenvalue: the unstable one for side = 1, the stable one for side = -1."""
    tr = 4.0 - eps * b
    det = eps * (1.0 - 4.0 * b)
    lam = 0.5 * (tr + side * math.sqrt(tr * tr - 4.0 * det))
    v = (1.0, 4.0 - lam)
    norm = math.hypot(*v)
    return PhasePoint(1e-6 * v[0] / norm, 1e-6 * v[1] / norm), lam


def _wu_escapes_outward(b: float, eps: float, tol: float) -> bool:
    """Fate of the unstable manifold of the origin: outward jump vs capture by E+.

    The shot stops at x < -0.5, or once capture is proven: a return to the
    half-line {x = x_E+, y > y_E+} that lies more than _CAPTURE_MARGIN below
    the previous one.  Crossings are cubic-Hermite roots between accepted
    nodes, whose slow-time derivatives are the field's, as the stepper
    computes them.
    """
    x_eq = math.sqrt(4.0 - 1.0 / b)
    y_eq = phi(x_eq)
    sx = 1.0 / eps

    def node(t, x, y):
        return t, x, y, sx * f_scalar(x, y), g_scalar(x, y, b, 0.0)

    last = None  # (t, x, y) of the previous accepted node
    y_return = None  # ordinate of the previous return to the half-line

    def fate_known(t, x, y):
        nonlocal last, y_return
        if x < -0.5:
            return True
        if last is not None and last[1] > x_eq >= x:
            cross = _half_line_crossing(node(*last), node(t, x, y), x_eq, y_eq)
            if cross is not None:
                if y_return is not None and cross[1] < y_return - _CAPTURE_MARGIN:
                    return True
                y_return = cross[1]
        last = (t, x, y)
        return False

    arc = integrate_until(
        _saddle_seed(b, eps, 1.0)[0], SystemParams(b, 0.0, eps), _HOMOCLINIC_T_BUDGET,
        fate_known, tol=tol, max_norm=1e3,
    )
    return bool(arc.x[-1] < -0.5)


def _homoclinic_shadow(b: float, eps: float, tol: float = 1e-10) -> LimitCycle:
    """Trace the homoclinic loop as two invariant-manifold arcs joined on it.

    The saddle index here is extreme (the expansion rate exceeds the
    contraction rate by a factor around sixty), so no single initial-value
    orbit can follow the loop into the saddle: any transversal error blows
    up along the stable-manifold descent.  Instead the loop is the forward
    arc of the unstable manifold (origin, excursion around E+, descent
    until it derails) concatenated with the reversed backward trace of the
    stable manifold (origin upward), each started 1e-6 from the saddle
    along the exact eigendirections.  Both representations overlap in the
    middle of the descent, and both ends of the result lie at the saddle.
    """
    params = SystemParams(b, 0.0, eps)

    # unstable-manifold arc, forward time, stopped once it ejects leftward or
    # at the first node past t = 30 (a budget, so no step is clamped onto it)
    seed_u, _ = _saddle_seed(b, eps, 1.0)
    arc = integrate_until(
        seed_u, params, math.inf, lambda t, x, y: t >= 30.0 or x <= -0.5, tol=tol, max_norm=1e3
    )
    d_u = np.hypot(arc.x, arc.y)
    ia = int(np.argmax(d_u))
    # first turn-back after the apex bounds the usable part of the descent
    iend_u = len(arc.t) - 1
    for i in range(ia + 1, len(arc.t) - 1):
        if d_u[i] < 0.9 * d_u[ia] and d_u[i + 1] > d_u[i]:
            iend_u = i
            break

    # stable-manifold arc, backward time from the saddle, partial on blow-up
    seed_s, lam_s = _saddle_seed(b, eps, -1.0)
    crawl = abs(lam_s) / eps
    t_s = 40.0 + math.log(1e7) / max(crawl, 1e-3)
    try:
        traj_s = integrate(seed_s, params, t_s, tol=tol, direction=-1, max_norm=1e3)
    except IntegrationError as exc:
        traj_s = exc.trajectory
    d_s = np.hypot(traj_s.x, traj_s.y)
    bad = np.nonzero((d_s > 3.45) | (traj_s.x < -0.5))[0]
    s_stop = int(bad[0]) if len(bad) else len(d_s)

    # join the arcs where they agree best: both trace the descent of the
    # stable manifold, the unstable arc from above, the stable arc exactly.
    # One unstable node at a time, keeping the first node with the least
    # gap, which is the pair argmin picks over the whole gap matrix
    sx, sy = traj_s.x[:s_stop], traj_s.y[:s_stop]
    best, icut_u, icut_s = math.inf, ia, 0
    for i in range(ia, iend_u + 1):
        gap = np.hypot(arc.x[i] - sx, arc.y[i] - sy)
        j = int(np.argmin(gap))
        if gap[j] < best:
            best, icut_u, icut_s = gap[j], i, j
    icut_s = max(icut_s, 1)

    # forward-loop orientation: unstable arc first, then the stable descent,
    # at adaptive node resolution (uniform-time sampling starves the jumps)
    xs = np.concatenate([arc.x[: icut_u + 1], traj_s.x[icut_s::-1]])
    ys = np.concatenate([arc.y[: icut_u + 1], traj_s.y[icut_s::-1]])
    t_u_end = arc.t[icut_u]
    t_loop = np.concatenate(
        [arc.t[: icut_u + 1], t_u_end + (traj_s.t[icut_s] - traj_s.t[icut_s::-1])]
    )
    return LimitCycle(
        t_loop,
        xs,
        ys,
        float(t_loop[-1]),
        cycle_length(xs, ys),
        Stability.UNSTABLE,
        False,
        seed_u.x,
        float(np.hypot(xs[-1], ys[-1])),
    )


# cycle-search budget of a sweep row, in estimated periods
_SWEEP_MAX_PERIODS = 30.0


@dataclass(frozen=True)
class CycleRecord:
    period: float
    length: float
    stability: Stability
    converged: bool
    # the loop's rightmost sample, where the next row's stable search starts
    seed: PhasePoint


_SEARCH_COUNTS = ("steps", "rejected", "shots")


@dataclass
class DiagramRow:
    param_value: float
    equilibria: list[Equilibrium]
    cycles: list[CycleRecord] = field(default_factory=list)
    error: str | None = None
    # the summed steps, rejected steps and Newton shots of the row's cycle
    # searches, failed ones included
    stats: dict = field(default_factory=lambda: dict.fromkeys(_SEARCH_COUNTS, 0))


def sweep(
    param_name: str,
    lo: float,
    hi: float,
    steps: int,
    params0: SystemParams,
    cycles: bool = True,
    tol: float = 1e-9,
) -> list[DiagramRow]:
    """One-parameter diagram over a uniform grid; see sweep_values.

    The grid is built ascending and flipped for descending ranges, so a
    reversed range produces exactly the reversed grid.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    a, b = min(lo, hi), max(lo, hi)
    values = [a + (b - a) * k / (steps - 1) for k in range(steps)]
    if lo > hi:
        values.reverse()
    return sweep_values(param_name, values, params0, cycles=cycles, tol=tol)


def sweep_values(
    param_name: str,
    values: list[float],
    params0: SystemParams,
    cycles: bool = True,
    tol: float = 1e-9,
) -> list[DiagramRow]:
    """One-parameter diagram: equilibria per value, plus cycle records.

    The stable cycle is searched from the rightmost sample of the last
    stable loop the sweep found (from (-2.8, 1.64) until there is one).  On
    a relaxation loop that sample is where the orbit lands on the attracting
    right branch, so the climb to the section contracts the offset between
    neighbouring rows' cycles (Fenichel); on a small loop it lies about a
    quarter turn before the section.  Either way the search's first return
    is close to the new cycle, where a start on the section would pay a
    whole period to reach it.  When the loop starts on the half-line above
    the stable equilibrium with x > 0 (E+ of the c = 0 family),
    `find_unstable_cycle` searches for the unstable cycle between them.
    Per-row failures are recorded in the row and never abort the sweep;
    `DiagramRow.stats` sums the step counts of the row's searches.
    """
    if param_name not in ("b", "c"):
        raise ValueError("param_name must be 'b' or 'c'")
    rows: list[DiagramRow] = []
    seed_stable = PhasePoint(-2.8, 1.64)
    for v in values:
        v = float(v)
        params = SystemParams(
            b=v if param_name == "b" else params0.b,
            c=v if param_name == "c" else params0.c,
            eps=params0.eps,
        )
        row = DiagramRow(v, equilibria(params))
        if cycles and params.eps > 0.0:
            _sweep_cycles(row, params, seed_stable, tol)
            for rec in row.cycles:
                if rec.stability is Stability.STABLE:
                    seed_stable = rec.seed
        rows.append(row)
    return rows


def _sweep_cycles(row: DiagramRow, params: SystemParams, seed_stable: PhasePoint, tol):
    label, loops, failed = "stable", [], []
    try:
        loops.append(find_limit_cycle(params, seed_stable, tol=tol, max_periods=_SWEEP_MAX_PERIODS))
        stable_x = [e.point.x for e in row.equilibria if e.point.x > 0 and e.classification
                    in (EquilibriumClass.STABLE_FOCUS, EquilibriumClass.STABLE_NODE)]
        if stable_x and loops[0].section_x == stable_x[0]:
            label = "unstable"
            loops.append(find_unstable_cycle(params, loops[0], tol))
    except FHNError as exc:
        row.error = f"{label}: {type(exc).__name__}"
        failed.append(exc.stats)
    searches = [lc.stats for lc in loops] + failed
    row.stats = {key: sum(st[key] for st in searches) for key in _SEARCH_COUNTS}
    row.cycles = [CycleRecord(lc.period, lc.length, lc.stability, lc.converged, _rightmost(lc))
                  for lc in loops]


def _rightmost(lc: LimitCycle) -> PhasePoint:
    i = int(np.argmax(lc.x))
    return PhasePoint(float(lc.x[i]), float(lc.y[i]))
