"""The four seeded workloads: request sets built from a seed, and their checks.

A workload is a list of requests plus a checker.  Each request is a closure
that calls the public fhn API and returns its output; fhn sees only the
generated inputs.  The checker compares the outputs with `oracle` after the
timed passes and returns, per request, the ratios deviation / tolerance
(0.0 for a consistency check that holds, inf for one that does not).

Inputs come from fixed low-discrepancy designs or stratified grids that the
seed jitters, rather than from independent draws, so that the amount of work
in a request set, and with it every timing, changes little from seed to seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import qmc

from fhn import bifurcation, canard, cli, dynamics, singular, slow_manifold
from fhn.core import PhasePoint, SystemParams, TimeScale

import oracle

INF = math.inf


@dataclass
class Request:
    kind: str
    call: Callable[[], object]


@dataclass
class Workload:
    name: str
    requests: list[Request]
    # outputs (an exception object where a request raised) -> {request index: [ratios]}
    check: Callable[[list], dict[int, list[float]]]
    notes: dict = field(default_factory=dict)


def _strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n values, one uniform draw inside each of n equal cells of [lo, hi], shuffled."""
    u = (np.arange(n) + rng.uniform(0.1, 0.9, n)) / n
    return lo + (hi - lo) * rng.permutation(u)


# largest move of a design point per unit-cube coordinate
JITTER = 0.03


def _jittered_design(rng, n: int, salt: int, dims: int = 5, valid=None) -> np.ndarray:
    """n points of a fixed Sobol design in the unit cube, each moved by the seed.

    Every point moves by up to JITTER per coordinate (reflected at the faces),
    redrawn until `valid(u)` holds.  The design covers the input ranges
    evenly, and the small moves keep the work in a request set, and the shape
    of its latency distribution, nearly the same from seed to seed.
    """
    base = qmc.Sobol(d=dims, scramble=True, seed=salt).random(n)
    out = np.empty_like(base)
    for i, point in enumerate(base):
        for _ in range(1000):
            u = np.abs(point + JITTER * rng.uniform(-1.0, 1.0, dims))
            u = np.where(u > 1.0, 2.0 - u, u)
            if valid is None or valid(u):
                break
        else:
            raise ValueError(f"no valid input near design point {point}")
        out[i] = u
    return out


def _pow2(n: float) -> int:
    """Smallest power of two >= n (at least 2): Sobol sets balance at those sizes."""
    return max(2, 1 << math.ceil(math.log2(max(n, 1.0))))


def _ok(cond: bool) -> float:
    return 0.0 if cond else INF


def _phi(x: float) -> float:
    return 4.0 * x - x * x * x


# -- trajectories ---------------------------------------------------------------

TRAJ_TOLS = (1e-6, 1e-8, 1e-10)
# per (tol, scale) cell; powers of two keep the scrambled Sobol sets balanced
TRAJ_FORWARD = 128
TRAJ_BACKWARD = 64
TRAJ_MIRROR_PAIRS = 16
TRAJ_SLOW_T_FORWARD = 1.0
# backward runs start beside the middle branch, which is attracting in reversed
# time; 0.15 slow units is too short to reach a fold from |x0| <= 0.6, past which
# the reversed field blows up
TRAJ_SLOW_T_BACKWARD = 0.15
TRAJ_SAMPLES = 500


@dataclass(frozen=True)
class TrajSpec:
    x0: float
    y0: float
    b: float
    c: float
    eps: float
    fast: bool
    direction: int
    tol: float
    t_end: float


def _traj_spec(u, fast: bool, direction: int, tol: float, c: float | None = None) -> TrajSpec:
    """Map a point u of the unit 5-cube to a request; `c` overrides the drawn c."""
    eps = 10.0 ** (-2.0 + 2.0 * u[0])
    b = 0.4 * u[1]
    if c is None:
        c = -1.5 + 3.0 * u[2]
    if direction == 1:
        x0, y0, t_slow = -2.5 + 5.0 * u[3], -4.0 + 8.0 * u[4], TRAJ_SLOW_T_FORWARD
    else:
        x0 = -0.6 + 1.2 * u[3]
        y0, t_slow = _phi(x0) - 0.05 + 0.1 * u[4], TRAJ_SLOW_T_BACKWARD
    return TrajSpec(float(x0), float(y0), float(b), float(c), float(eps), fast, direction, tol,
                    t_slow / eps if fast else t_slow)


def trajectory_specs(seed: int, scale: float = 1.0):
    """(specs, radau-checked indices, mirror-pair first indices, anchor indices)."""
    rng = np.random.default_rng(seed)
    specs: list[TrajSpec] = []
    radau: list[int] = []
    salt = 0
    for tol in TRAJ_TOLS:
        for fast in (False, True):
            for direction, n in ((1, TRAJ_FORWARD), (-1, TRAJ_BACKWARD)):
                n = _pow2(n * scale)
                radau.append(len(specs))
                salt += 1
                for u in _jittered_design(rng, n, salt):
                    specs.append(_traj_spec(u, fast, direction, tol))
    mirrors: list[int] = []
    for k, u in enumerate(_jittered_design(rng, _pow2(TRAJ_MIRROR_PAIRS * scale), salt + 1)):
        spec = _traj_spec(u, bool(k % 2), 1 if k % 4 < 2 else -1, TRAJ_TOLS[k % 3], c=0.0)
        mirrors.append(len(specs))
        specs += [spec, replace(spec, x0=-spec.x0, y0=-spec.y0)]
    anchors: list[int] = []
    for eps in oracle.EPS_FAMILY_END:
        anchors.append(len(specs))
        x0, y0 = oracle.EPS_FAMILY_START
        specs.append(TrajSpec(x0, y0, 0.0, 0.0, eps, False, 1, 1e-8, oracle.EPS_FAMILY_T))
    return specs, radau, mirrors, anchors


def _traj_call(spec: TrajSpec):
    start = PhasePoint(spec.x0, spec.y0)
    params = SystemParams(spec.b, spec.c, spec.eps)
    scale = TimeScale.FAST if spec.fast else TimeScale.SLOW

    def call():
        traj = dynamics.integrate(start, params, spec.t_end, scale, tol=spec.tol,
                                  direction=spec.direction)
        return traj, traj.sample_uniform(spec.t_end / TRAJ_SAMPLES)

    return call


def build_trajectories(seed: int, scale: float = 1.0) -> Workload:
    specs, radau, mirrors, anchors = trajectory_specs(seed, scale)
    requests = [Request("integrate+sample", _traj_call(s)) for s in specs]

    def end_ratio(spec: TrajSpec, traj, ref) -> float:
        dev = max(abs(traj.x[-1] - ref[0]), abs(traj.y[-1] - ref[1]))
        return dev / (1.0 + max(abs(ref[0]), abs(ref[1]))) / (oracle.GLOBAL_FACTOR * spec.tol)

    def check(outputs):
        out: dict[int, list[float]] = {}
        for i, (spec, res) in enumerate(zip(specs, outputs)):
            if isinstance(res, BaseException):
                continue
            traj, (ts, xs, ys) = res
            n = len(traj.t)
            dt = spec.t_end / TRAJ_SAMPLES
            out[i] = [
                _ok(bool(np.all(np.diff(traj.t) > 0.0))),
                _ok(abs(traj.t[-1] - spec.t_end) <= 1e-12 * spec.t_end),
                _ok(traj.stats["steps"] == n - 1 and traj.direction == spec.direction),
                _ok(len(ts) == len(xs) == len(ys) >= TRAJ_SAMPLES
                    and abs(ts[1] - ts[0] - dt) <= 1e-9 * dt
                    and xs[0] == traj.x[0] and ys[0] == traj.y[0]
                    and bool(np.all(np.isfinite(xs))) and bool(np.all(np.isfinite(ys)))),
            ]
        for i in radau:
            if i in out:
                s = specs[i]
                ref = oracle.radau_endpoint(s.x0, s.y0, s.b, s.c, s.eps, s.t_end, s.fast,
                                            s.direction, max(s.tol / 100.0, 1e-12))
                out[i].append(end_ratio(s, outputs[i][0], ref))
        for i in anchors:
            if i in out:
                out[i].append(end_ratio(specs[i], outputs[i][0], oracle.EPS_FAMILY_END[specs[i].eps]))
        for i in mirrors:
            if i in out and i + 1 in out:
                a, m = outputs[i][0], outputs[i + 1][0]
                if len(a.x) != len(m.x):
                    out[i].append(INF)
                    continue
                mismatch = max(np.max(np.abs(a.x + m.x)), np.max(np.abs(a.y + m.y)))
                out[i].append(mismatch / (oracle.MIRROR_FACTOR * specs[i].tol))
        return out

    return Workload("trajectories", requests, check,
                    notes={"requests": len(specs), "radau_checked": len(radau),
                           "mirror_pairs": len(mirrors), "anchors": len(anchors)})


# -- diagram --------------------------------------------------------------------

DIAGRAM_EPS = 0.5
# The repository's diagram recipes (scripts/recipes/bif_b_sweep.json and
# bif_c_sweep.json): the b-family (c = 0) across the pitchfork (0.25), Hopf
# (0.3666) and homoclinic (0.3693) points, and the c-family (b = 0) across the
# canard (1.1501) and Hopf (1.1547) points, 60 values each.  One request is one
# whole sweep, as `fhn bifurcate --jobs 1` runs it, so continuation carries the
# cycle seed from row to row through the sweep.
DIAGRAM_SWEEPS = (("b", 0.24, 0.40), ("c", 1.10, 1.20))
DIAGRAM_STEPS = 60


def _grid(rng, n: int, lo: float, hi: float) -> list[float]:
    """The recipe's n evenly spaced values from lo to hi, each moved by the seed
    up to a tenth of the spacing: a row's cost jumps where a search starts to
    fail, so wider moves would change which rows are slow."""
    step = (hi - lo) / (n - 1)
    return [lo + (k + 0.1 * float(rng.uniform(-1.0, 1.0))) * step for k in range(n)]


def _equilibria_ratios(eqs, b: float, c: float, eps: float) -> list[float]:
    ref = oracle.cubic_real_roots(b, c)
    xs = sorted(e.point.x for e in eqs)
    if len(xs) != len(ref):
        return [INF]
    ratios = [abs(x - r) / (1e-8 * (1.0 + abs(r))) for x, r in zip(xs, ref)]
    for e in eqs:
        x, y = e.point.x, e.point.y
        scale = 1.0 + abs(x) + abs(y)
        ratios.append(abs(oracle.g(x, y, b, c)) / (1e-10 * scale))
        ratios.append(abs(oracle.f(x, y)) / (1e-10 * scale))
        tr = (4.0 - 3.0 * x * x) - eps * b
        det = -eps * b * (4.0 - 3.0 * x * x) + eps
        l1, l2 = e.eigenvalues
        ratios.append(abs((l1 + l2) - tr) / (1e-9 * (1.0 + abs(tr))))
        ratios.append(abs(l1 * l2 - det) / (1e-9 * (1.0 + abs(det))))
    return ratios


_STABLE_CLASSES = ("StableFocus", "StableNode")


def _row_ratios(row, b: float, c: float, eps: float) -> list[float]:
    ratios = _equilibria_ratios(row.equilibria, b, c, eps)
    has_stable_eq = any(e.classification.value in _STABLE_CLASSES for e in row.equilibria)
    for rec in row.cycles:
        ratios.append(_ok(math.isfinite(rec.period) and rec.period > 0.0
                          and math.isfinite(rec.length) and rec.length > 0.0))
    # a failed forward search is an outcome the inputs call for only when an
    # equilibrium is stable; with every equilibrium unstable the bounded planar
    # flow has an attracting cycle, and missing it is a failure
    if row.error and row.error.startswith("stable: "):
        ratios.append(_ok(has_stable_eq))
    return ratios


def build_diagram(seed: int) -> Workload:
    """Full size only: on coarser grids the continuation seed can carry a large
    cycle's point across the Hopf value, where fhn's cycle search does not
    return (seen at c = 1.1599 after c = 1.1412)."""
    rng = np.random.default_rng(seed)
    n_rows = DIAGRAM_STEPS
    params0 = SystemParams(0.0, 0.0, DIAGRAM_EPS)
    sweeps = [(name, _grid(rng, n_rows, lo, hi)) for name, lo, hi in DIAGRAM_SWEEPS]
    requests = [Request(f"sweep_{name}",
                        lambda name=name, values=values: bifurcation.sweep_values(name, values, params0))
                for name, values in sweeps]
    n_sweeps = len(requests)
    # the closed-form landmarks take microseconds; the requests workload has them
    requests.append(Request("homoclinic_in_b", lambda: bifurcation.homoclinic_in_b(DIAGRAM_EPS)))

    def check(outputs):
        out: dict[int, list[float]] = {}
        for i, (name, values) in enumerate(sweeps):
            rows = outputs[i]
            if isinstance(rows, BaseException):
                continue
            ratios = [_ok(len(rows) == len(values))]
            for row, v in zip(rows, values):
                ratios.append(_ok(row.param_value == v))
                b, c = (v, 0.0) if name == "b" else (0.0, v)
                ratios += _row_ratios(row, b, c, DIAGRAM_EPS)
            out[i] = ratios
        hom = outputs[n_sweeps]
        if not isinstance(hom, BaseException):
            ref, tol = oracle.HOMOCLINIC_B
            out[n_sweeps] = [oracle.ratio(hom.param_value - ref, tol),
                             _ok(hom.orbit.min_distance_to(0.0, 0.0) <= 1e-2)]
        return out

    return Workload("diagram", requests, check,
                    notes={"requests": len(requests), "rows": n_sweeps * n_rows, "sweeps": n_sweeps})


# -- canard ---------------------------------------------------------------------

# The repository's canard recipes (scripts/recipes/canard_scan_eps05.json and
# canard_scan_eps01.json) bracket the explosion by [1.14, 1.154] (eps 0.5) and
# [1.15, 1.1547] (eps 0.1): 0.014 and 0.0047 wide, with the explosion at 0.72
# and 0.81 of the width from the lower end.  The workload's brackets perturb
# those: 2**k lattice steps wide, with the explosion at a seeded share of the
# width drawn from a range around the recipe's, and the upper end below the
# Hopf value.  Bisection to the default c_tol then measures k + 2 cycles, 20
# and 18, as the recipe brackets do.
#
# Bracket endpoints lie on the lattice of step 2**-24 (below the default c_tol
# of 1e-7).  Bisection midpoints then stay on the lattice, and every seed ends
# in the same final lattice cell after exactly k halvings, so the located
# value is the same for every seed.
CANARD_LATTICE = 2.0 ** -24
# Lattice cell that holds the explosion (floor(c* / 2**-24)), as located by
# this toolkit; the paper values are 1.150077 and 1.153794.
CANARD_CELL = {0.5: 19295102, 0.1: 19357453}
# eps: (halvings k, range of the explosion's share of the bracket width)
CANARD_BRACKETS = {0.5: (18, (0.72, 0.78)), 0.1: (16, (0.79, 0.85))}


def _canard_bracket(rng, eps: float) -> tuple[float, float]:
    """Seeded bracket whose bisection has the same cost mix for every seed.

    The k binary digits of the offset d (in lattice steps) from the lower end
    to the explosion cell are the bisection path: a 1 puts the midpoint below
    the explosion, where the cycle is a long relaxation orbit.  Drawing d only
    among offsets with k // 2 one-digits keeps the mix of long and short
    cycle searches fixed while the seed moves every search.
    """
    k, (share_lo, share_hi) = CANARD_BRACKETS[eps]
    while True:
        d = int(rng.integers(round(share_lo * 2 ** k), round(share_hi * 2 ** k)))
        if bin(d).count("1") == k // 2:
            break
    lo = (CANARD_CELL[eps] - d) * CANARD_LATTICE
    return lo, lo + 2 ** k * CANARD_LATTICE


def _locate_call(eps: float, bracket: tuple[float, float]):
    def call():
        cache: dict = {}
        c_star = canard.locate_canard_explosion(eps, bracket=bracket, cache=cache)
        classes = {c: canard.classify_canard(lc) for c, lc in cache.items()}
        return c_star, cache, classes

    return call


def build_canard(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    specs = [(eps, _canard_bracket(rng, eps)) for eps in CANARD_BRACKETS]
    requests = [Request(f"locate_eps{eps}", _locate_call(eps, br)) for eps, br in specs]

    def check(outputs):
        out: dict[int, list[float]] = {}
        for i, ((eps, bracket), res) in enumerate(zip(specs, outputs)):
            if isinstance(res, BaseException):
                continue
            c_star, cache, classes = res
            ref, tol = oracle.CANARD_C[eps]
            k = CANARD_BRACKETS[eps][0]
            ratios = [oracle.ratio(c_star - ref, tol),
                      _ok(len(cache) == k + 2 and bracket[0] < c_star < bracket[1])]
            for c, lc in cache.items():
                klass = classes[c].value
                # the bisection premise: long cycles below c*, short ones above
                ratios.append(_ok((lc.length >= canard.EXPLOSION_LENGTH) == (c < c_star)))
                ratios.append(_ok((klass == "HopfSmall") == (lc.diameter < canard.SMALL_CYCLE_DIAMETER)))
                if lc.length > canard.LARGE_LENGTH:
                    ratios.append(_ok(klass in ("Relaxation", "Headed")))
            out[i] = ratios
        return out

    return Workload("canard", requests, check,
                    notes={"requests": len(specs),
                           "brackets": {str(e): list(br) for e, br in specs}})


# -- requests -------------------------------------------------------------------

# small calls per request set, by kind (Sobol-designed kinds use powers of two)
REQ_COUNTS = {
    "classify_singular_fate": 256,
    "relaxation_period": 64,
    "h0": 100,
    "h1": 100,
    "h_eps": 200,
    "invariance_defect": 200,
    "equilibria": 150,
    "hopf_in_c": 20,
    "hopf_in_b": 20,
    "pitchfork_in_b": 10,
    "cli_singular": 8,
    "cli_period": 8,
    "cli_slow_manifold": 8,
    "cli_simulate": 8,
}
REQ_SIM_T = 1.0
REQ_SIM_TOL = 1e-7


def _manifold_point(rng, left: bool) -> float:
    y = float(rng.uniform(-oracle.FOLD_Y + 0.3, 8.0))
    return y if left else -y


def _fate_args(u) -> tuple:
    """((x0, y0), b, c) for an orbit start off the critical manifold."""
    u = [float(v) for v in u]
    return (-3.0 + 6.0 * u[2], -5.0 + 10.0 * u[3]), 0.4 * u[0], -1.5 + 3.0 * u[1]


def _fate_valid(u) -> bool:
    """Off the manifold, and no equilibrium at a fold or landing abscissa
    (the singular-fold degeneracies the fate classification rejects)."""
    (x0, y0), b, c = _fate_args(u)
    return abs(oracle.f(x0, y0)) > 0.05 and all(
        abs(abs(r) - oracle.FOLD_X) > 0.02 and abs(abs(r) - oracle.LANDING_X) > 0.02
        for r in oracle.cubic_real_roots(b, c))


def _period_args(u) -> tuple:
    return 0.2 * float(u[0]), -0.3 + 0.6 * float(u[1])


def _simulate_args(u) -> tuple:
    u = [float(v) for v in u]
    return (-2.5 + 5.0 * u[3], -4.0 + 8.0 * u[4]), 0.4 * u[1], -1.5 + 3.0 * u[2], 0.05 + 0.45 * u[0]


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _fate_ratios(orbit, b: float, c: float) -> list[float]:
    ratios = []
    for s0, s1 in zip(orbit.segments, orbit.segments[1:]):
        ratios.append(_ok(s0.end == s1.start))
    for seg in orbit.segments:
        if seg.kind.value == "slow":
            for p in (seg.start, seg.end):
                ratios.append(abs(oracle.f(p.x, p.y)) / 1e-9)
    if orbit.fate.value == "PeriodicCycle":
        ref = oracle.relaxation_period(b, c)
        ratios.append(abs(orbit.cycle_period() - ref) / (1e-6 * ref))
    return ratios


def build_requests(seed: int, scale: float = 1.0, workdir: Path | None = None) -> Workload:
    if workdir is None:
        raise ValueError("the requests workload writes CLI output and needs a workdir")
    rng = np.random.default_rng(seed)
    items: list[tuple[str, tuple]] = []
    for salt, (kind, count) in enumerate(REQ_COUNTS.items(), start=100):
        n, n2 = max(1, round(count * scale)), _pow2(count * scale)
        if kind in ("classify_singular_fate", "cli_singular"):
            items += [(kind, _fate_args(u))
                      for u in _jittered_design(rng, n2, salt, 4, _fate_valid)]
        elif kind in ("relaxation_period", "cli_period"):
            items += [(kind, _period_args(u)) for u in _jittered_design(
                rng, n2, salt, 2, lambda u: oracle.transit_clear(*_period_args(u)))]
        elif kind == "cli_simulate":
            items += [(kind, _simulate_args(u)) for u in _jittered_design(rng, n2, salt)]
        elif kind in ("h0", "h1", "h_eps", "invariance_defect", "cli_slow_manifold"):
            for eps, b, c in zip(_strata(rng, n, 0.01, 0.5), _strata(rng, n, 0.0, 0.4),
                                 _strata(rng, n, -1.5, 1.5)):
                left = bool(rng.integers(2))
                items.append((kind, (_manifold_point(rng, left), left, float(b), float(c), float(eps))))
        elif kind == "equilibria":
            for eps, b, c in zip(_strata(rng, n, 0.01, 1.0), _strata(rng, n, 0.0, 1.0),
                                 _strata(rng, n, -1.5, 1.5)):
                items.append((kind, (float(b), float(c), float(eps))))
        elif kind in ("hopf_in_c", "hopf_in_b"):
            for eps in _strata(rng, n, 0.01, 1.0):
                items.append((kind, (float(eps),)))
        elif kind == "pitchfork_in_b":
            items += [(kind, ())] * n
    order = rng.permutation(len(items))
    items = [items[i] for i in order]
    # the paper's period anchors close every request set
    items.append(("relaxation_period", (0.0, 0.0)))
    items.append(("relaxation_period", (0.2, 0.0)))

    graphs = {True: slow_manifold.BranchGraph.for_branch(slow_manifold.Branch.LEFT_ATTRACTING),
              False: slow_manifold.BranchGraph.for_branch(slow_manifold.Branch.RIGHT_ATTRACTING)}
    requests = []
    for rid, (kind, a) in enumerate(items):
        requests.append(Request(kind, _small_call(kind, a, graphs, workdir / f"r{rid}")))

    def check(outputs):
        out: dict[int, list[float]] = {}
        for i, ((kind, a), res) in enumerate(zip(items, outputs)):
            if isinstance(res, BaseException):
                continue
            out[i] = _small_ratios(kind, a, res, workdir / f"r{i}")
        return out

    counts: dict[str, int] = {}
    for kind, _ in items:
        counts[kind] = counts.get(kind, 0) + 1
    return Workload("requests", requests, check,
                    notes={"requests": len(items), "by_kind": counts})


def _small_call(kind: str, a: tuple, graphs, out: Path):
    if kind == "classify_singular_fate":
        (x0, y0), b, c = a
        start, params = PhasePoint(x0, y0), SystemParams(b, c, 0.0)
        return lambda: singular.classify_singular_fate(start, params)
    if kind == "relaxation_period":
        params = SystemParams(a[0], a[1], 0.0)
        return lambda: singular.relaxation_period(params)
    if kind in ("h0", "h1", "h_eps", "invariance_defect"):
        y, left, b, c, eps = a
        graph, params = graphs[left], SystemParams(b, c, eps)
        if kind == "h0":
            return lambda: slow_manifold.h0(y, graph)
        fn_name = kind
        return lambda: getattr(slow_manifold, fn_name)(y, graph, params)
    if kind == "equilibria":
        params = SystemParams(a[0], a[1], a[2])
        return lambda: bifurcation.equilibria(params)
    if kind == "hopf_in_c":
        return lambda: bifurcation.hopf_in_c(a[0])
    if kind == "hopf_in_b":
        return lambda: bifurcation.hopf_in_b(a[0])
    if kind == "pitchfork_in_b":
        return lambda: bifurcation.pitchfork_in_b()
    argv = ["--out", str(out)]
    if kind == "cli_singular":
        (x0, y0), b, c = a
        argv = ["singular", "--b", repr(b), "--c", repr(c), "--x0", repr(x0), "--y0", repr(y0)] + argv
    elif kind == "cli_period":
        argv = ["singular", "--b", repr(a[0]), "--c", repr(a[1]), "--period-only"] + argv
    elif kind == "cli_slow_manifold":
        y, left, b, c, eps = a
        # the table stays 0.3 away from the fold ordinate, where h1 diverges
        y_lo, y_hi = (-oracle.FOLD_Y + 0.3, 8.0) if left else (-8.0, oracle.FOLD_Y - 0.3)
        argv = ["slow-manifold", "--branch", "left" if left else "right", "--eps", repr(eps),
                "--b", repr(b), "--c", repr(c), "--y-from", repr(y_lo), "--y-to", repr(y_hi),
                "--samples", "100"] + argv
    elif kind == "cli_simulate":
        (x0, y0), b, c, eps = a
        argv = ["simulate", "--b", repr(b), "--c", repr(c), "--eps", repr(eps), "--x0", repr(x0),
                "--y0", repr(y0), "--tmax", repr(REQ_SIM_T), "--tol", repr(REQ_SIM_TOL)] + argv
    else:
        raise ValueError(kind)
    return lambda: cli.main(argv)


def _small_ratios(kind: str, a: tuple, res, out: Path) -> list[float]:
    if kind == "classify_singular_fate":
        _, b, c = a
        return _fate_ratios(res, b, c)
    if kind == "relaxation_period":
        b, c = a
        if (b, c) == (0.0, 0.0):
            ref, tol = oracle.PERIOD_B0
        elif (b, c) == (0.2, 0.0):
            ref, tol = oracle.PERIOD_B02
        else:
            ref = oracle.relaxation_period(b, c)
            tol = 1e-7 * ref
        return [oracle.ratio(res - ref, tol)]
    if kind in ("h0", "h1", "h_eps", "invariance_defect"):
        y, left, b, c, eps = a
        if kind == "invariance_defect":
            ref = oracle.invariance_defect(y, left, b, c, eps)
            return [abs(res - ref) / (1e-7 + 1e-6 * abs(ref))]
        ref = oracle.slow_graph(y, left, b, c, eps)[("h0", "h1", "h_eps").index(kind)]
        return [abs(res - ref) / (1e-10 * (1.0 + abs(ref)))]
    if kind == "equilibria":
        return _equilibria_ratios(res, *a)
    if kind == "hopf_in_c":
        return [oracle.ratio(res[0].param_value - oracle.HOPF_C, 1e-12),
                oracle.ratio(res[1].param_value + oracle.HOPF_C, 1e-12)]
    if kind == "hopf_in_b":
        ref = oracle.hopf_b(a[0])
        return [oracle.ratio(res.param_value - ref, 1e-12 * ref)]
    if kind == "pitchfork_in_b":
        return [_ok(res.param_value == oracle.PITCHFORK_B)]
    # CLI slices: exit code, manifest, CSV content
    manifest = json.loads((out / "manifest.json").read_text())
    ratios = [_ok(res == 0 and manifest["status"] == "success")]
    if kind == "cli_singular":
        (x0, y0), b, c = a
        rows = _read_csv(out / "singular_orbit.csv")
        ratios.append(_ok(rows[0][0] == "segment_kind" and len(rows) >= 2))
        if manifest["outputs"]["fate"] == "PeriodicCycle":
            ref = oracle.relaxation_period(b, c)
            ratios.append(abs(manifest["outputs"]["period"] - ref) / (1e-6 * ref))
    elif kind == "cli_period":
        rows = _read_csv(out / "period.csv")
        ref = oracle.relaxation_period(*a)
        ratios.append(abs(float(rows[1][2]) - ref) / (1e-7 * ref))
    elif kind == "cli_slow_manifold":
        _, left, b, c, eps = a
        rows = _read_csv(out / "slow_manifold.csv")[1:]
        ratios.append(_ok(len(rows) == 100))
        for row in (rows[0], rows[len(rows) // 2], rows[-1]):
            ref = oracle.slow_graph(float(row[0]), left, b, c, eps)[2]
            ratios.append(abs(float(row[3]) - ref) / (1e-10 * (1.0 + abs(ref))))
    elif kind == "cli_simulate":
        (x0, y0), b, c, eps = a
        rows = _read_csv(out / "trajectory.csv")[1:]
        t_last, x_last, y_last = (float(v) for v in rows[-1])
        ratios.append(_ok(len(rows) >= 2000 and abs(t_last - REQ_SIM_T) <= 1e-3))
        ref = oracle.radau_endpoint(x0, y0, b, c, eps, t_last, False, 1, REQ_SIM_TOL / 100.0)
        dev = max(abs(x_last - ref[0]), abs(y_last - ref[1]))
        ratios.append(dev / (1.0 + max(abs(ref[0]), abs(ref[1]))) / (oracle.GLOBAL_FACTOR * REQ_SIM_TOL))
    return ratios


BY_NAME = {
    "trajectories": build_trajectories,
    "diagram": build_diagram,
    "canard": build_canard,
    "requests": build_requests,
}
