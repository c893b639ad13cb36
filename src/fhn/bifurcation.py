"""Equilibria, codimension-one bifurcation loci, and parameter-sweep diagrams.

Analytic loci are returned in closed form (Hopf in c at +-2/sqrt(3), the
pitchfork at b = 1/4, Hopf in b at (-4 + sqrt(16 + 3 eps))/eps); the
homoclinic locus is the root of the splitting function Delta(b) = y_u - y_s,
where the saddle's unstable manifold W^u, run forward, and its stable
manifold W^s, run backward, first cross the half-line {x = x_E+, y > y_E+}
(the flow crosses it leftward only).  Delta > 0 below the locus, where W^u
escapes outward, and Delta < 0 above it, where E+ captures W^u; the last two
runs, joined on the half-line, trace the homoclinic loop.  A sweep row also
finds the unstable cycle inside a stable loop around E+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import PhasePoint, SystemParams, TimeScale, jacobian, phi
from .dynamics import LimitCycle, Stability, _shoot, cycle_length, find_limit_cycle, find_unstable_cycle
from .dynamics import integrate  # noqa: F401  not called here; perfbench's tracer test reads it
from .errors import BracketFailureError, FHNError, IntegrationError
from .singular import FOLD_X, equilibrium_abscissae

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
    pts = []
    for c in (FOLD_X, -FOLD_X):
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


# offsets above the Hopf value: the lower end of the bracket, the first upper
# end (doubled while W^u still lies outside W^s), each at most 0.1 and 20
# times the eps -> 0 offset, and the largest; the tolerance and slow-time
# budget of every run; the bracket width, or secant step, at which the root
# is taken; the most values of the splitting function
_HOMOCLINIC_LOW = 1e-6
_HOMOCLINIC_FIRST = 2e-3
# (b_hom - b_h)/eps as eps -> 0, a measured constant: 0.0058585, 0.0058593
# and 0.0058642 at eps 1e-3, 1e-4 and 1e-5
_HOMOCLINIC_SLOPE = 3.0 / 512.0
_HOMOCLINIC_BRACKET = 0.02
_HOMOCLINIC_TOL = 1e-10
_HOMOCLINIC_T_BUDGET = 400.0
_HOMOCLINIC_B_TOL = 1e-12
_HOMOCLINIC_MAX_SPLITS = 60


def homoclinic_in_b(eps: float) -> BifurcationPoint:
    """Homoclinic locus of the c = 0 family: the root of the splitting
    function Delta(b) = y_u - y_s of the saddle's manifolds.

    W^u is run forward, and W^s backward, from 1e-6 along the saddle's
    eigenvectors to their first crossings y_u and y_s of the half-line
    {x = x_E+, y > y_E+} above E+, which the flow crosses leftward only.  On
    it W^u lies outside W^s (Delta > 0, W^u escapes outward) below the
    homoclinic value and inside it (Delta < 0, captured by E+) above; Delta
    is smooth in b, the planar split function of Kuznetsov (Elements of
    Applied Bifurcation Theory, section 6.2).  The bracket's lower end is
    b_h + min(1e-6, 0.1 s eps); its upper end starts at b_h + min(2e-3,
    20 s eps), s = 3/512 the measured limit of (b_hom - b_h)/eps (so both
    offsets are constant for eps >= 0.0171), and while Delta > 0 there it
    becomes the lower end and its offset doubles, up to b_h + 0.02.  The
    root is then found by the Illinois variant of the secant method, down to
    a bracket or a secant step of 1e-12.  Each run ends at its crossing,
    within 400 slow-time units.

    The returned point carries the homoclinic loop: the last W^u run up to
    its crossing joined to the last W^s run reversed from its own, so both
    ends lie 1e-6 from the saddle.  Its `stats` sum the steps and rejected
    steps of every run, with `shots` the number of values of Delta.

    Raises BracketFailureError, carrying those `stats`, when Delta does not
    change sign over the bracket or a run ends without its crossing, and
    when b_h <= 1/4 (eps >= 16), where the origin is not a saddle at the
    Hopf value.
    """
    if eps <= 0.0:
        raise ValueError("homoclinic_in_b requires eps > 0")
    b_h = _hopf_b_value(eps)
    if b_h <= 0.25:
        raise BracketFailureError(
            f"Hopf value b_h={b_h} <= 1/4 at eps={eps}: the origin is not a saddle there"
        )
    stats = {"steps": 0, "rejected": 0, "tol": _HOMOCLINIC_TOL, "shots": 0}
    try:
        lo = b_h + min(_HOMOCLINIC_LOW, 0.1 * _HOMOCLINIC_SLOPE * eps)
        d_lo, _, _ = _split(lo, eps, stats)
        if not d_lo > 0.0:
            raise BracketFailureError(
                f"unstable manifold already inside the stable one at b={lo} at eps={eps}")
        hi = b_h + min(_HOMOCLINIC_FIRST, 20.0 * _HOMOCLINIC_SLOPE * eps)
        while True:
            d_hi, arc_u, arc_s = _split(hi, eps, stats)
            if d_hi <= 0.0:
                break
            if hi - b_h >= _HOMOCLINIC_BRACKET:
                raise BracketFailureError(
                    f"unstable manifold still outside the stable one at b={hi} at eps={eps}")
            lo, d_lo = hi, d_hi
            hi = b_h + min(2.0 * (hi - b_h), _HOMOCLINIC_BRACKET)
        b, d, side = hi, d_hi, 0
        while d != 0.0 and hi - lo > _HOMOCLINIC_B_TOL:
            b_new = hi - d_hi * (hi - lo) / (d_hi - d_lo)
            if abs(b_new - b) < _HOMOCLINIC_B_TOL:
                break
            if stats["shots"] >= _HOMOCLINIC_MAX_SPLITS:
                raise BracketFailureError(
                    f"splitting function did not settle in [{lo!r}, {hi!r}] at eps={eps}")
            b = b_new
            d, arc_u, arc_s = _split(b, eps, stats)
            # Illinois: an end kept twice in a row has its value halved
            if d > 0.0:
                lo, d_lo = b, d
                if side > 0:
                    d_hi *= 0.5
                side = 1
            elif d < 0.0:
                hi, d_hi = b, d
                if side < 0:
                    d_lo *= 0.5
                side = -1
    except FHNError as exc:
        exc.stats = dict(stats)
        raise
    params = SystemParams(b, 0.0, eps)
    saddle = min(equilibria(params), key=lambda e: abs(e.point.x))
    return BifurcationPoint(
        BifKind.HOMOCLINIC, "b", b, eps, saddle, orbit=_homoclinic_loop(b, arc_u, arc_s, stats)
    )


def _saddle_seed(b: float, eps: float, side: int) -> PhasePoint:
    """A point 1e-6 along the eigenvector of the saddle at the origin: the
    unstable one for side = 1, the stable one for side = -1."""
    tr = 4.0 - eps * b
    det = eps * (1.0 - 4.0 * b)
    lam = 0.5 * (tr + side * math.sqrt(tr * tr - 4.0 * det))
    v = (1.0, 4.0 - lam)
    norm = math.hypot(*v)
    return PhasePoint(1e-6 * v[0] / norm, 1e-6 * v[1] / norm)


def _split(b: float, eps: float, stats: dict):
    """Delta(b) = y_u - y_s, with the W^u and W^s arcs: the run forward (side
    1) or backward (side -1, crossing rightward) from `_saddle_seed`, its start
    counted as a crossing so that it closes on the first node past the half-
    line {x = x_E+, y > y_E+}, and the (t, y) of its crossing there;
    BracketFailureError when a run ends without that crossing."""
    stats["shots"] += 1
    x_eq = math.sqrt(4.0 - 1.0 / b)
    line, params, arcs = [(x_eq, phi(x_eq))], SystemParams(b, 0.0, eps), []
    for side, name in ((1, "unstable"), (-1, "stable")):
        try:
            traj, j, ends = _shoot(_saddle_seed(b, eps, side), params, _HOMOCLINIC_T_BUDGET, line, stats,
                                   start_on=0, tol=_HOMOCLINIC_TOL, direction=side, max_norm=1e3)
        except IntegrationError as exc:
            raise BracketFailureError(f"{name} manifold at b={b!r}, eps={eps} ended before the "
                                      f"half-line above E+: {exc}") from exc
        if j is None or ends[1] is None:
            raise BracketFailureError(f"{name} manifold at b={b!r}, eps={eps} did not cross the "
                                      f"half-line above E+ within {_HOMOCLINIC_T_BUDGET} time units")
        arcs.append((traj, ends[1]))
    return arcs[0][1][1] - arcs[1][1][1], *arcs


def _homoclinic_loop(b: float, arc_u, arc_s, stats: dict) -> LimitCycle:
    """The homoclinic loop from the last runs of the locate: the W^u run up
    to its crossing, then the W^s run reversed from its own.

    The saddle index here is extreme (the expansion rate exceeds the
    contraction rate by a factor around sixty), so no single forward orbit
    can follow the loop into the saddle: any transversal error blows up
    along the descent, which W^s, run backward, follows exactly.  The two
    crossings lie |Delta| (about 1e-11) apart on the half-line; the loop
    passes through that of W^u.
    """
    (traj_u, (t_u, y_u)), (traj_s, (t_s, _)) = arc_u, arc_s
    x_eq = math.sqrt(4.0 - 1.0 / b)
    xs = np.concatenate([traj_u.x[:-1], [x_eq], traj_s.x[-2::-1]])
    ys = np.concatenate([traj_u.y[:-1], [y_u], traj_s.y[-2::-1]])
    t_loop = np.concatenate([traj_u.t[:-1], [t_u], t_u + (t_s - traj_s.t[-2::-1])])
    return LimitCycle(
        t_loop,
        xs,
        ys,
        float(t_loop[-1]),
        cycle_length(xs, ys),
        Stability.UNSTABLE,
        False,
        float(traj_u.x[0]),
        float(np.hypot(xs[-1], ys[-1])),
        dict(stats),
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
