"""Fold normal-form data, canard classification, and canard location.

The normal-form coefficients at the folds of the b = 0 and c = 0 families
are recorded in closed form.  The fold normal form gives the asymptotic
Hopf and canard parameter offsets lambda_H = -B*eps and
lambda_c = -(B + A)*eps.  Those are asymptotic in sqrt(eps) and carry a
sign-orientation subtlety for the c-family, so the numerical explosion
locator (bisection on the cycle length) is the authoritative source of
canard parameter values here; the formula values are reported alongside.

The locator bisects a caller's bracket, or by default the range
(c_H - 0.05, c_H - min(1e-5, eps/(128 sqrt(3)))) below the Hopf value
c_H = 2/sqrt(3), the fold abscissa FOLD_X, which straddles the explosion
for eps from 1e-4 to 3.  Each bisection step is decided by a cycle searched
at tol 1e-9, searched again at tol 1e-11 only when that cycle leaves its
side of the threshold in doubt (the comment above `_DECIDE_TOL` gives the
rule).
`classify_canard` names each located cycle Hopf-small, headless, headed or
relaxation from its arc along the repelling middle branch.

Every cycle search starts where `find_limit_cycle` starts without a seed,
on the attracting right branch of the critical manifold below its fold.  The
attracting slow manifold contracts nearby orbits at the rate (3x^2 - 4)/eps,
so by the time the orbit has climbed to the fold and jumped it lies on a
relaxation cycle to within the search tol for eps up to 1: the search ends
after one period, with no transient down the left branch and no Newton shot.
"""

from __future__ import annotations

import contextlib
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import dynamics
from .core import SystemParams, phi
from .dynamics import LimitCycle, find_limit_cycle
from .errors import BracketFailureError, FHNError
from .singular import FOLD_X

# classifier constants, fixed and recorded in CLI output metadata
MIDDLE_BAND = 0.05
MIN_MIDDLE_ARC = 0.5
SMALL_CYCLE_DIAMETER = 0.5
MIDDLE_SAMPLES = 2000

# explosion-window thresholds: lengths below/above bracket the near-vertical
# growth of the cycle length, and the bisection discriminant is the midpoint
SMALL_LENGTH = 5.0
LARGE_LENGTH = 15.0
EXPLOSION_LENGTH = 10.0


@dataclass(frozen=True)
class NormalFormCoeffs:
    """Fold normal-form data: the l_i at the origin and x-derivatives, from
    which A and B follow."""

    l1: float
    l2: float
    l3: float
    l4: float
    l5: float
    l6: float
    dl1_dx: float
    dl2_dx: float
    dl3_dx: float
    dl4_dx: float
    x_plus: float | None = None

    @property
    def a_coeff(self) -> float:
        return (-self.dl1_dx + 3.0 * self.dl2_dx - 2.0 * self.dl4_dx + 2.0 * self.l6) / 8.0

    @property
    def b_coeff(self) -> float:
        return (self.dl3_dx + self.l6) / 2.0


def normal_form_case_i() -> NormalFormCoeffs:
    """Coefficients at the fold of the b = 0 family (parameter offset in c).

    Translating the fold and the parameter to the origin gives
    xdot = -y + x^2(-2*sqrt(3) - x), ydot = eps*(x + cbar), so A = -3/8 and
    B = 0: the bifurcation in the translated parameter is supercritical,
    and subcritical in c because the orientations are opposite.
    """
    return NormalFormCoeffs(
        l1=1.0,
        l2=-2.0 * math.sqrt(3.0),
        l3=0.0,
        l4=1.0,
        l5=-1.0,
        l6=0.0,
        dl1_dx=0.0,
        dl2_dx=-1.0,
        dl3_dx=0.0,
        dl4_dx=0.0,
    )


def normal_form_case_ii() -> NormalFormCoeffs:
    """Coefficients at the E+ fold of the c = 0 family (parameter offset in b).

    The coefficient record keeps x_plus = 4/3, which is the square of the
    geometric fold abscissa sqrt(4/3); A and B depend only on the
    x-derivatives and l6, so they are unaffected either way:
    A = -15/32 < 0 and B = -3/16.  The cycles born at the Hopf point of E+
    lie at b above it, around the stable focus, and are unstable.
    """
    x_plus = 4.0 / 3.0
    return NormalFormCoeffs(
        l1=-1.0,
        l2=-3.0 * x_plus,
        l3=0.0,
        l4=1.0,
        l5=1.0,
        l6=-3.0 / 8.0,
        dl1_dx=0.0,
        dl2_dx=-1.0,
        dl3_dx=0.0,
        dl4_dx=0.0,
        x_plus=x_plus,
    )


@dataclass(frozen=True)
class AsymptoticLoci:
    """First-order Hopf and canard offsets of the fold normal form."""

    lambda_h: float
    lambda_c: float
    gap: float  # lambda_h - lambda_c = A*eps
    lambda_c_flipped: float
    note: str


def asymptotic_loci(coeffs: NormalFormCoeffs, eps: float) -> AsymptoticLoci:
    """lambda_H = -B*eps and lambda_c = -(B+A)*eps, reported verbatim.

    The translated parameter of the c-family runs opposite to c, and the
    worked c-family value in circulation carries the opposite sign of the
    formula; both signs are reported and the numerical locator is the
    authority for actual parameter values.
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError("asymptotic loci are reported for eps in (0, 0.5]")
    lam_h = -coeffs.b_coeff * eps
    lam_c = -(coeffs.b_coeff + coeffs.a_coeff) * eps
    return AsymptoticLoci(
        lambda_h=lam_h,
        lambda_c=lam_c,
        gap=coeffs.a_coeff * eps,
        lambda_c_flipped=-lam_c,
        note=(
            "first-order fold-normal-form offsets; sign orientation of the "
            "translated parameter is opposite to c in the c-family, and the "
            "numerically located explosion is authoritative"
        ),
    )


class CanardClass(Enum):
    HOPF_SMALL = "HopfSmall"
    HEADLESS = "Headless"
    HEADED = "Headed"
    RELAXATION = "Relaxation"


@dataclass(frozen=True)
class CanardRecord:
    c: float
    period: float
    length: float
    klass: CanardClass
    converged: bool


# samples of the repelling middle branch, the rows x and y of one block
# whose address `rodas_band` reads; both coordinates increase along it
_MIDDLE = np.empty((2, MIDDLE_SAMPLES))
_MIDDLE_XS, _MIDDLE_YS = _MIDDLE
_MIDDLE_XS[:] = np.linspace(-FOLD_X, FOLD_X, MIDDLE_SAMPLES)
_MIDDLE_YS[:] = phi(_MIDDLE_XS)
_MIDDLE_ADDRESS = _MIDDLE.ctypes.data
# the largest distance between neighbouring samples
_MIDDLE_GAP = float(np.max(np.hypot(np.diff(_MIDDLE_XS), np.diff(_MIDDLE_YS))))


def _within_middle_band(x: np.ndarray, y: np.ndarray, band: float) -> np.ndarray:
    """Whether each point (x, y) lies within `band` of a middle-branch sample.

    The samples within `band` of a point in x and in y form one index
    range, since both coordinates increase along the branch; the point is
    in the band when a sample of its range is within `band` in Euclidean
    distance.  The ranges are walked one offset at a time, so temporaries
    hold one value per point still undecided.

    Where `dynamics` holds the compiled library when this is called,
    `rodas_band` of `_rodas.c` gives the same booleans, point by point.
    """
    points = dynamics._block(x, y)
    if points is not None:
        n = points.shape[1]
        inside = np.empty(n, dtype=bool)
        dynamics._LIB.rodas_band(_MIDDLE_ADDRESS, MIDDLE_SAMPLES, _MIDDLE_GAP, points.ctypes.data, n,
                                 band, inside.ctypes.data)
        return inside
    xs, ys = _MIDDLE_XS, _MIDDLE_YS
    lo = np.maximum(np.searchsorted(xs, x - band), np.searchsorted(ys, y - band))
    hi = np.minimum(np.searchsorted(xs, x + band, "right"), np.searchsorted(ys, y + band, "right"))
    inside = np.zeros(len(x), dtype=bool)
    pending = np.flatnonzero(lo < hi)
    j = lo[pending]
    while pending.size:
        dx = xs[j] - x[pending]
        dy = ys[j] - y[pending]
        hit = np.sqrt(dx * dx + dy * dy) <= band
        inside[pending[hit]] = True
        j += 1
        more = ~hit & (j < hi[pending])
        pending, j = pending[more], j[more]
    return inside


def classify_canard(cycle: LimitCycle) -> CanardClass:
    """Headless/headed/relaxation/small classification of a closed orbit.

    Headless: a slow arc of length >= 0.5 within 0.05 of the repelling
    middle branch and no excursion past the left fold.  Headed: such an arc
    plus the excursion (x < -2/sqrt(3)).  Relaxation: no middle-branch arc.
    Small: diameter below 0.5 (Hopf-born cycles).  Thresholds are the fixed
    module constants so classifications are reproducible.
    """
    if len(cycle.x) < 3:
        raise ValueError("cycle has too few samples to classify")
    if cycle.diameter < SMALL_CYCLE_DIAMETER:
        return CanardClass.HOPF_SMALL
    inside = _in_band_segments(cycle, MIDDLE_BAND)
    # segment k from sample k to k + 1, then the closing one back to sample 0
    x, y = cycle.x, cycle.y
    seg = np.append(np.hypot(x[1:] - x[:-1], y[1:] - y[:-1]), np.hypot(x[0] - x[-1], y[0] - y[-1]))
    if _longest_run(inside, seg) < MIN_MIDDLE_ARC:
        return CanardClass.RELAXATION
    if np.any(cycle.x < -FOLD_X):
        return CanardClass.HEADED
    return CanardClass.HEADLESS


def _longest_run(inside: np.ndarray, seg: np.ndarray) -> float:
    """Longest summed run of `seg` over consecutive `inside` segments of a
    closed loop, a run through the last segment going on at the first.

    Each run is summed in loop order, one addition at a time, so the value is
    that of a walk twice round the loop; a loop inside the band all round is
    summed twice round, but it is at least twice its diameter long, so past
    MIN_MIDDLE_ARC either way.
    """
    if inside.all():
        return float(np.add.accumulate(np.concatenate([seg, seg]))[-1])
    # start at a segment outside the band, so that no run wraps round
    first_out = int(np.argmin(inside))
    inside = np.concatenate((inside[first_out:], inside[:first_out]))
    seg = np.concatenate((seg[first_out:], seg[:first_out]))
    edges = np.flatnonzero(np.diff(inside.astype(np.int8), append=np.int8(0)))
    # a run starts after a rise at edges[2i] and ends at the fall edges[2i + 1]
    return max((float(np.add.accumulate(seg[a + 1:b + 1])[-1])
                for a, b in zip(edges[::2], edges[1::2])), default=0.0)


def _in_band_segments(cycle: LimitCycle, band: float) -> np.ndarray:
    """Whether each segment of the closed loop, from sample k to sample k + 1
    and from the last sample back to the first, has both ends within `band`
    of the repelling branch."""
    in_band = _within_middle_band(cycle.x, cycle.y, band)
    return np.append(in_band[:-1] & in_band[1:], in_band[-1] & in_band[0])


# (c_H - c*)/eps as eps -> 0, in closed form: Krupa and Szmolyan's
# first-order canard offset A eps/8 in their canonical form (J. Differential
# Equations 174, 2001), with A = -1/4 at b = 0, gives eps/(64 sqrt(3)) =
# 0.0090211 eps in c; measured
# 0.0090163 at eps 1e-3 and 0.0090107 at 1e-4.  It scales the default
# bracket's upper offset and c_tol
_CANARD_SLOPE = 1.0 / (64.0 * math.sqrt(3.0))


# Decide-then-confirm: a locate step needs only the side of EXPLOSION_LENGTH
# a cycle lies on.  Cycles searched at _DECIDE_TOL differ in length from the
# 1e-11 ones by far less than _DECIDE_MARGIN (at most 0.032 over the recipe
# scans' bisection points), so a converged _DECIDE_TOL cycle farther than
# that from the threshold decides the step.  An unconverged loop (its last
# Newton step above tol but below 1% of its x-range) decides only outside the
# explosion window [SMALL_LENGTH, LARGE_LENGTH], where no canard lies: the
# unconverged cycles met there are small ones beside the Hopf point, whose
# 1e-11 search is unconverged too, gives the same length to 3% and costs
# three times as much.  Any other c, and any c whose _DECIDE_TOL search
# raised, is searched again at _CONFIRM_TOL, the tol of every cycle the scan
# measures outside the locate.  The explosion is exponentially narrow, so
# nearly every step lies far from the threshold and the cheap search decides.
_DECIDE_TOL = 1e-9
_DECIDE_MARGIN = 1.0
_CONFIRM_TOL = 1e-11


def _search(c: float, eps: float, tol: float) -> LimitCycle:
    return find_limit_cycle(SystemParams(0.0, c, eps), tol=tol)


def _measure(c: float, eps: float, cache: dict, decide: bool = False) -> LimitCycle:
    """Cached cycle at c, searched at _CONFIRM_TOL; with `decide`, the
    _DECIDE_TOL cycle when it settles its side of EXPLOSION_LENGTH (see the
    comment above _DECIDE_TOL)."""
    if c in cache:
        return cache[c]
    if decide:
        try:
            lc = _search(c, eps, _DECIDE_TOL)
        except FHNError:
            pass
        else:
            # a test for keeping, so that a converged NaN length is confirmed
            if (abs(lc.length - EXPLOSION_LENGTH) >= _DECIDE_MARGIN if lc.converged
                    else not SMALL_LENGTH <= lc.length <= LARGE_LENGTH):
                cache[c] = lc
                return lc
    cache[c] = lc = _search(c, eps, _CONFIRM_TOL)
    return lc


def locate_canard_explosion(
    eps: float,
    bracket: tuple[float, float] | None = None,
    c_tol: float | None = None,
    cache: dict | None = None,
) -> float:
    """Parameter value of the canard explosion of the b = 0 family.

    Bisection on the discriminant length >= 10 (midpoint of the explosion
    window); the bracket must hold values on both sides of the near-vertical
    transition, with length > 15 at the low end and < 5 at the high end (its
    ends finite with lo < hi, else ValueError before any search).
    When no bracket is given, the bisection starts from
    (c_H - 0.05, c_H - min(1e-5, d/2)) below the Hopf value c_H, where
    d = eps/(64 sqrt(3)) is the eps -> 0 limit of c_H - c*, Krupa and
    Szmolyan's first-order canard offset A eps/8 with A = -1/4; its
    ends straddle the explosion window for eps from 1e-4 to 3.  Converges
    when the c bracket is narrower than `c_tol` (which must be > 0; by
    default min(1e-7, d/100)), or when its ends are adjacent floats, and
    returns the midpoint.  Both offsets are constant for eps >= 0.00222.

    Each bracket end and midpoint is measured by `_measure` with `decide`:
    at tol 1e-9, confirmed at tol 1e-11 when in doubt.  `cache` holds one
    cycle per c, the one that decided.
    """
    if eps <= 0.0:
        raise ValueError("locate_canard_explosion requires eps > 0")
    d = _CANARD_SLOPE * eps
    c_tol = min(1e-7, d / 100.0) if c_tol is None else c_tol
    if not c_tol > 0.0:
        raise ValueError("locate_canard_explosion requires c_tol > 0")
    cache = cache if cache is not None else {}
    lo, hi = bracket if bracket is not None else (FOLD_X - 0.05, FOLD_X - min(1e-5, 0.5 * d))
    if not -math.inf < lo < hi < math.inf:
        raise ValueError("locate_canard_explosion requires a finite bracket with lo < hi")
    a_lo = _measure(lo, eps, cache, decide=True).length
    a_hi = _measure(hi, eps, cache, decide=True).length
    if not (a_lo > LARGE_LENGTH and a_hi < SMALL_LENGTH):
        raise BracketFailureError(
            f"bracket lengths A({lo})={a_lo:.3f}, A({hi})={a_hi:.3f} do not straddle "
            f"the explosion window ({SMALL_LENGTH}, {LARGE_LENGTH})"
        )
    while hi - lo > c_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
        if _measure(mid, eps, cache, decide=True).length >= EXPLOSION_LENGTH:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def explosion_scan(
    eps: float,
    bracket: tuple[float, float] | None = None,
    n_points: int = 40,
) -> tuple[float, list[CanardRecord]]:
    """Locate the explosion and assemble an n-point scan across it.

    The scan concentrates points logarithmically around the located value
    (the window is exponentially narrow), adding small-cycle points on the
    Hopf side and relaxation points below, and targets intermediate cycle
    lengths inside the window so both canard classes appear.  Records come
    back sorted by decreasing c, which is the small-to-large direction.

    Thinning keeps at least two records of each class, so `n_points` must be
    at least 8; a smaller value raises ValueError before any cycle search.
    """
    if n_points < 2 * len(CanardClass):
        raise ValueError(f"n_points must be at least {2 * len(CanardClass)}, got {n_points}")
    cache: dict[float, LimitCycle] = {}
    c_star = locate_canard_explosion(eps, bracket, c_tol=1e-9, cache=cache)

    # deepen: target intermediate lengths inside the window
    for target in (3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0):
        _bisect_to_length(target, eps, cache)

    # flanks: small cycles toward the Hopf value, relaxation below
    for off in np.geomspace(3e-4, max(2.0 * (FOLD_X - c_star), 1e-3), 10):
        c = c_star + off
        if c < FOLD_X - 5e-5:
            with contextlib.suppress(FHNError):
                _measure(float(c), eps, cache)
    for off in np.geomspace(1e-5, 1e-2, 8):
        with contextlib.suppress(FHNError):
            _measure(float(c_star - off), eps, cache)

    # mid-size cycles on the Hopf flank sit between the small-diameter and
    # middle-arc thresholds and belong to no class cleanly; the scan skips
    # them: flank points are kept only with their flank's class
    records = []
    for c, lc in sorted(cache.items(), key=lambda kv: -kv[0]):
        klass = classify_canard(lc)
        if klass is CanardClass.RELAXATION and c > c_star:
            continue
        if klass is CanardClass.HOPF_SMALL and c < c_star:
            continue
        records.append(CanardRecord(c, lc.period, lc.length, klass, lc.converged))
    if len(records) > n_points:
        records = _thin_preserving_classes(records, n_points)
    return c_star, records


def _bisect_to_length(target: float, eps: float, cache: dict) -> None:
    """Refine the cache with a c whose cycle length is near `target`."""
    # lengths decrease with c: find the tightest pair straddling the target
    lo = max((c for c, lc in cache.items() if lc.length >= target), default=None)
    hi = min((c for c, lc in cache.items() if lc.length < target), default=None)
    if lo is None or hi is None:
        return
    for _ in range(50):
        if hi - lo <= max(1e-12, 4.0 * np.spacing(hi)):
            return
        a_lo, a_hi = cache[lo].length, cache[hi].length
        if abs(a_lo - target) < 0.8 or abs(a_hi - target) < 0.8:
            return
        mid = 0.5 * (lo + hi)
        try:
            a = _measure(mid, eps, cache).length
        except FHNError:
            return
        if a >= target:
            lo = mid
        else:
            hi = mid


def _thin_preserving_classes(records: list[CanardRecord], n_points: int) -> list[CanardRecord]:
    """Drop surplus points from the largest class groups, keeping order."""
    out = list(records)
    while len(out) > n_points:
        [(biggest, count)] = Counter(r.klass for r in out).most_common(1)
        if count <= 2:
            break
        members = [i for i, r in enumerate(out) if r.klass is biggest]
        out.pop(members[len(members) // 2])
    return out

