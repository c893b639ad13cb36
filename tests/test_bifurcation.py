import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from fhn import bifurcation, dynamics
from fhn.core import PhasePoint, SystemParams, TimeScale, jacobian, phi
from fhn.canard import LARGE_LENGTH, locate_canard_explosion
from fhn.dynamics import Stability, find_limit_cycle, find_unstable_cycle, integrate
from fhn.errors import BracketFailureError, FHNError
from fhn.bifurcation import (
    BifKind,
    EquilibriumClass,
    equilibria,
    homoclinic_in_b,
    hopf_in_b,
    hopf_in_c,
    pitchfork_in_b,
    sweep,
)

from conftest import bisect_root

FOLD_X = 2.0 / math.sqrt(3.0)


class TestEquilibria:
    def test_single_unstable_for_b0(self):
        eqs = equilibria(SystemParams(0.0, 0.5, 0.5))
        assert len(eqs) == 1
        eq = eqs[0]
        assert (eq.point.x, eq.point.y) == (0.5, 1.875)
        assert eq.classification in (EquilibriumClass.UNSTABLE_NODE, EquilibriumClass.UNSTABLE_FOCUS)

    def test_three_symmetric_for_b03(self):
        eqs = equilibria(SystemParams(0.3, 0.0, 0.5))
        xs = sorted(e.point.x for e in eqs)
        want = math.sqrt(4.0 - 1.0 / 0.3)
        assert xs == pytest.approx([-want, 0.0, want], abs=1e-12)

    def test_single_origin_for_b02(self):
        eqs = equilibria(SystemParams(0.2, 0.0, 0.5))
        assert len(eqs) == 1
        assert eqs[0].point.x == 0.0

    def test_residuals_and_on_manifold(self):
        for b, c in ((0.3, 0.0), (0.7, 0.2), (-0.5, 1.0), (0.0, -2.5)):
            for eq in equilibria(SystemParams(b, c, 0.4)):
                x, y = eq.point.x, eq.point.y
                assert abs(b * x**3 + (1 - 4 * b) * x - c) <= 1e-10
                assert y == phi(x)

    def test_classification_consistent_with_eigenvalues(self):
        for eq in equilibria(SystemParams(0.4, 0.0, 0.5)):
            res = [lam.real for lam in eq.eigenvalues]
            if eq.classification is EquilibriumClass.SADDLE:
                assert res[0] * res[1] < 0
            elif eq.classification in (EquilibriumClass.STABLE_FOCUS, EquilibriumClass.STABLE_NODE):
                assert max(res) < 0


class TestHopfInC:
    def test_pair_values(self):
        plus, minus = hopf_in_c(0.5)
        assert plus.param_value == FOLD_X and minus.param_value == -FOLD_X
        assert plus.kind is BifKind.HOPF_SUB

    @pytest.mark.parametrize("eps", [0.1, 0.5])
    def test_pure_imaginary_pair(self, eps):
        plus, _ = hopf_in_c(eps)
        lam = plus.equilibrium.eigenvalues
        for sign, l in zip((1, -1), lam):
            assert abs(l.real) < 1e-10
            assert abs(l.imag - sign * math.sqrt(eps)) < 1e-10

    def test_transversality(self):
        # d(Re lambda)/dc = -3c at the crossing: nonzero by direct formula
        eps, h = 0.5, 1e-6

        def re_lam(c):
            eq = equilibria(SystemParams(0.0, c, eps))[0]
            return eq.eigenvalues[0].real

        slope = (re_lam(FOLD_X + h) - re_lam(FOLD_X - h)) / (2 * h)
        assert slope == pytest.approx(-3.0 * FOLD_X, rel=1e-4)
        assert slope != 0.0


class TestHopfCycleMultipliers:
    """The side of the c-Hopf point where its cycles live, read from their
    multipliers: stable cycles below c_H (b = 0), around an unstable focus.
    TestUnstableCycle checks the unstable ones above b_h (c = 0)."""

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_cycles_below_c_hopf_attract(self, eps):
        c_h = hopf_in_c(eps)[0].param_value
        for offset in (1e-3, 1e-4):
            lc = find_limit_cycle(SystemParams(0.0, c_h - offset, eps), PhasePoint(-2.8, 1.64),
                                  tol=1e-9)
            assert lc.converged and lc.stability is Stability.STABLE
            assert lc.multiplier < 1.0
        # the Hopf-born cycle itself, small (at eps 0.1, c_H - 1e-3 lies past
        # the canard explosion, on a relaxation cycle)
        assert lc.length < 0.2 and lc.multiplier > 0.9


class TestPitchfork:
    def test_locus(self):
        assert pitchfork_in_b().param_value == 0.25
        assert pitchfork_in_b().kind is BifKind.PITCHFORK

    def test_count_transition(self):
        below = equilibria(SystemParams(0.25 - 1e-6, 0.0, 0.5))
        above = equilibria(SystemParams(0.25 + 1e-6, 0.0, 0.5))
        assert len(below) == 1 and len(above) == 3

    @pytest.mark.parametrize("b", [0.05, 0.15, 0.24])
    def test_single_equilibrium_inside_unit_interval(self, b):
        assert len(equilibria(SystemParams(b, 0.0, 0.5))) == 1

    @pytest.mark.parametrize("b", [0.26, 0.3, 0.5, 0.9])
    def test_three_equilibria_above(self, b):
        assert len(equilibria(SystemParams(b, 0.0, 0.5))) == 3

    def test_branches_near_onset(self):
        xs = sorted(e.point.x for e in equilibria(SystemParams(0.2501, 0.0, 0.5)))
        assert xs[2] == pytest.approx(math.sqrt(4.0 - 1.0 / 0.2501), rel=1e-10)
        assert 0.0 < xs[2] < 0.05

    def test_fold_abscissae_at_three_eighths(self):
        xs = sorted(e.point.x for e in equilibria(SystemParams(0.375, 0.0, 0.5)))
        assert abs(xs[2] - FOLD_X) < 1e-12
        assert abs(xs[0] + FOLD_X) < 1e-12


class TestHopfInB:
    def test_closed_form_values(self):
        assert hopf_in_b(0.5).param_value == pytest.approx(0.36660, abs=1e-4)
        assert hopf_in_b(1.0).param_value == pytest.approx((-4.0 + math.sqrt(19.0)), rel=1e-12)
        assert hopf_in_b(1e-6).param_value == pytest.approx(0.375, abs=1e-5)

    def test_kind_supercritical(self):
        assert hopf_in_b(0.5).kind is BifKind.HOPF_SUPER

    def test_trace_residual(self):
        for eps in (0.1, 0.5, 1.0):
            b = hopf_in_b(eps).param_value
            assert abs(-eps * b + 3.0 / b - 8.0) < 1e-12

    def test_matches_numerical_trace_root(self):
        eps = 0.5

        def trace(b):
            return -eps * b + 3.0 / b - 8.0

        oracle = bisect_root(trace, 0.3, 0.45)
        assert hopf_in_b(eps).param_value == pytest.approx(oracle, abs=1e-10)

    def test_eigenvalue_crossing_direction(self):
        eps, h = 0.5, 1e-7
        b_h = hopf_in_b(eps).param_value

        def re_lam(b):
            eqs = equilibria(SystemParams(b, 0.0, eps))
            e_plus = max(eqs, key=lambda e: e.point.x)
            return e_plus.eigenvalues[0].real

        slope = (re_lam(b_h + h) - re_lam(b_h - h)) / (2 * h)
        assert slope < 0.0

    def test_just_below_eps_16_carries_e_plus(self):
        # b_h tends to 1/4 as eps rises to 16, where E+- are born off the origin
        hopf = hopf_in_b(15.9)
        assert hopf.param_value > 0.25
        assert hopf.equilibrium.point.x > 0.0
        assert hopf.equilibrium.point.x == pytest.approx(math.sqrt(4.0 - 1.0 / hopf.param_value))


# b_hom pinned bitwise, as the root of the splitting function; each lies
# within 9e-12 of the bisection on the fate of W^u that located it before
B_HOM_HEX = {
    0.02: "0x1.7fc2a2fdc1000p-2",
    0.05: "0x1.7f66e0cdbd43bp-2",
    0.1: "0x1.7eceb483d52f9p-2",
    0.2: "0x1.7da1297d33bc3p-2",
    0.5: "0x1.7a2e340fed7b5p-2",
    1.0: "0x1.74b228f22e3cap-2",
}


def _wu_escapes(b, eps):
    """Fate of W^u over the full 400-unit budget: escape past x = -0.5
    (True), or capture by E+."""
    arc = integrate(
        bifurcation._saddle_seed(b, eps, 1), SystemParams(b, 0.0, eps),
        bifurcation._HOMOCLINIC_T_BUDGET, tol=bifurcation._HOMOCLINIC_TOL, max_norm=1e3,
        sections=(-0.5,), start_on=0,
    )
    return bool(arc.x[-1] < -0.5)


@pytest.mark.parametrize("locate", [hopf_in_c, hopf_in_b, homoclinic_in_b, locate_canard_explosion])
@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_locator_names_a_non_finite_eps(locate, eps):
    # the error names eps, not the b that hopf_in_b and homoclinic_in_b
    # derive from it
    with pytest.raises(ValueError, match="eps"):
        locate(eps)


class TestHomoclinicInB:
    @pytest.mark.slow
    @pytest.mark.parametrize("eps", [0.02, 0.05, 0.1, 0.2, 1.0])
    def test_manifold_fate_flips_at_located_value(self, eps, monkeypatch):
        # the locus comes from the invariant manifolds alone, never from a cycle search
        def no_cycle_search(*_args, **_kwargs):
            raise AssertionError("homoclinic_in_b ran a cycle search")

        monkeypatch.setattr(bifurcation, "find_limit_cycle", no_cycle_search)
        hom = homoclinic_in_b(eps)
        b_hom = hom.param_value
        assert b_hom.hex() == B_HOM_HEX[eps]
        assert hom.kind is BifKind.HOMOCLINIC
        assert b_hom > hopf_in_b(eps).param_value
        assert _wu_escapes(b_hom - 1e-9, eps)
        assert not _wu_escapes(b_hom + 1e-9, eps)
        assert hom.orbit.min_distance_to(0.0, 0.0) <= 1e-2

    @pytest.mark.slow
    @pytest.mark.parametrize("eps", sorted(B_HOM_HEX))
    def test_every_run_ends_at_its_crossing(self, eps, monkeypatch):
        # at eps 0.02 and b_h + 0.02, W^u enters E+ without a leftward
        # crossing; the bracket keeps away from there, and no run goes on
        # to the end of its budget
        runs = []

        def recording(*args, **kwargs):
            runs.append((args[1].b, integrate(*args, **kwargs)))
            return runs[-1][1]

        monkeypatch.setattr(dynamics, "integrate", recording)
        hom = homoclinic_in_b(eps)
        st = hom.orbit.stats
        assert len(runs) == 2 * st["shots"]
        assert st["steps"] == sum(run.stats["steps"] for _, run in runs)
        assert st["rejected"] == sum(run.stats["rejected"] for _, run in runs)
        for b, run in runs:
            x_eq = math.sqrt(4.0 - 1.0 / b)
            assert run.crossing(-1, x_eq, phi(x_eq)) is not None
            assert run.t[-1] < 0.5 * bifurcation._HOMOCLINIC_T_BUDGET

    @pytest.mark.parametrize("eps", [16.0, 30.0, 60.0])
    def test_no_saddle_at_hopf_value_raises_before_any_shot(self, eps, monkeypatch):
        # from eps = 16 on b_h <= 1/4: the origin is a node or focus there
        def no_shot(*_args, **_kwargs):
            raise AssertionError("homoclinic_in_b shot W^u")

        monkeypatch.setattr(dynamics, "integrate", no_shot)
        with pytest.raises(ValueError, match="<= 1/4"):
            hopf_in_b(eps)
        with pytest.raises(BracketFailureError, match="<= 1/4"):
            homoclinic_in_b(eps)

    @pytest.mark.slow
    def test_shadow_join_holds_no_gap_matrix(self):
        # the loop is the last two runs joined at their crossings: no
        # (unstable arc x stable arc) gap matrix, 14.9 MB per array at eps 0.5
        b_hom = float.fromhex(B_HOM_HEX[0.5])
        stats = {"steps": 0, "rejected": 0, "shots": 0}
        tracemalloc.start()
        try:
            _, arc_u, arc_s = bifurcation._split(b_hom, 0.5, stats)
            bifurcation._homoclinic_loop(b_hom, arc_u, arc_s, stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_locate_at_eps_05_within_20k_steps(self):
        # 12.4k steps in 7 values of the splitting function; the bisection
        # on the fate of W^u took 60.4k steps in 39 runs
        st = homoclinic_in_b(0.5).orbit.stats
        assert st["steps"] <= 20_000
        assert st["shots"] == 7 and st["tol"] == bifurcation._HOMOCLINIC_TOL

    def test_run_that_ends_before_the_half_line_carries_its_counts(self, monkeypatch):
        # no input reaches this exit at max_norm 1e3: the first W^u run,
        # boxed in |u| <= 1, raises before its crossing, and its counts are
        # the locate's
        real = dynamics.integrate
        monkeypatch.setattr(dynamics, "integrate", lambda *a, **kw: real(*a, **{**kw, "max_norm": 1.0}))
        with pytest.raises(BracketFailureError, match="unstable manifold .* ended before") as info:
            homoclinic_in_b(0.5)
        run = info.value.__cause__.trajectory
        st = info.value.stats
        assert st["shots"] == 1
        assert (st["steps"], st["rejected"]) == (run.stats["steps"], run.stats["rejected"])
        assert st["steps"] > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
    def test_small_eps_offset_tends_to_its_limit(self, eps):
        # the bracket's offsets scale with the measured limit 3/512 of
        # (b_hom - b_h)/eps; the fixed low end b_h + 1e-6 lay above b_hom
        # from eps 1e-4 down
        ratio = (homoclinic_in_b(eps).param_value - hopf_in_b(eps).param_value) / eps
        assert abs(ratio / (3.0 / 512.0) - 1.0) < 1e-3

    @pytest.mark.parametrize("name, value, message", [
        ("_HOMOCLINIC_BRACKET", 1e-3, "still outside"),
        ("_HOMOCLINIC_T_BUDGET", 50.0, "did not cross"),
    ])
    def test_bracket_failure_carries_stats(self, name, value, message, monkeypatch):
        # at eps 0.5, b_hom - b_h = 2.7e-3, and W^s crosses at t = 128
        monkeypatch.setattr(bifurcation, name, value)
        with pytest.raises(BracketFailureError, match=message) as info:
            homoclinic_in_b(0.5)
        st = info.value.stats
        assert st["shots"] >= 1 and st["steps"] > 0 and st["tol"] == bifurcation._HOMOCLINIC_TOL


class TestUnstableBand:
    """Between the Hopf value b_h and the homoclinic value b_hom of the c = 0
    family, an unstable cycle surrounds the stable focus E+ inside the
    relaxation cycle; forward shots find it across the band."""

    @pytest.mark.parametrize("eps", [0.02, 0.1, 0.5, 1.0])
    def test_unstable_cycle_grows_across_the_band(self, eps):
        b_h, b_hom = hopf_in_b(eps).param_value, float.fromhex(B_HOM_HEX[eps])
        lengths = []
        for frac in (0.1, 0.5, 0.9):
            b = b_h + frac * (b_hom - b_h)
            params = SystemParams(b, 0.0, eps)
            outer = find_limit_cycle(params, PhasePoint(-2.8, 1.64), tol=1e-9)
            lc = find_unstable_cycle(params, outer, 1e-9)
            assert lc.stability is Stability.UNSTABLE and lc.converged
            assert phi(lc.section_x) < lc.y[0] < outer.y[0]
            div = (4.0 - 3.0 * lc.x**2) / eps - b
            assert math.exp(np.trapezoid(div, lc.t)) > 1.0
            lengths.append(lc.length)
        # born at the Hopf point, it grows toward the homoclinic loop
        assert lengths == sorted(lengths)


class TestSplittingFunction:
    """The sign of Delta(b) = y_u - y_s is the fate of W^u over the full budget."""

    @pytest.mark.parametrize("eps", [0.1, 0.5])
    def test_sign_matches_full_budget_fate(self, eps):
        b_hom = float.fromhex(B_HOM_HEX[eps])
        for b in [b_hom + s * d for d in (1e-8, 1e-6, 1e-4) for s in (-1, 1)]:
            stats = {"steps": 0, "rejected": 0, "shots": 0}
            delta = bifurcation._split(b, eps, stats)[0]
            assert (delta > 0.0) == _wu_escapes(b, eps) == (b < b_hom), b
            assert stats["shots"] == 1


class TestDeterminantInvariant:
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("b", [0.26, 0.3, 0.375, 0.5, 0.9])
    def test_det_formula_on_grid(self, eps, b):
        x_plus = math.sqrt(4.0 - 1.0 / b)
        j = jacobian(PhasePoint(x_plus, phi(x_plus)), SystemParams(b, 0.0, eps), TimeScale.FAST)
        want = 2.0 * eps * (4.0 * b - 1.0)
        assert j.det == pytest.approx(want, rel=1e-12)
        assert j.det > 0.0

    @pytest.mark.parametrize("b", [0.3, 0.4, 0.8])
    def test_origin_is_saddle_above_pitchfork(self, b):
        eqs = equilibria(SystemParams(b, 0.0, 0.5))
        origin = min(eqs, key=lambda e: abs(e.point.x))
        assert origin.classification is EquilibriumClass.SADDLE
        res = sorted(lam.real for lam in origin.eigenvalues)
        assert res[0] < 0 < res[1]
        assert all(lam.imag == 0 for lam in origin.eigenvalues)


class TestSweep:
    def test_equilibria_branch_structure(self):
        rows = sweep("b", 0.24, 0.40, 9, SystemParams(0.0, 0.0, 0.5), cycles=False)
        for row in rows:
            want = 1 if row.param_value < 0.25 else 3
            assert len(row.equilibria) == want

    def test_stability_flip_near_hopf(self):
        b_h = hopf_in_b(0.5).param_value
        rows = sweep("b", b_h - 0.005, b_h + 0.005, 2, SystemParams(0.0, 0.0, 0.5), cycles=False)
        def plus_class(row):
            return max(row.equilibria, key=lambda e: e.point.x).classification
        assert plus_class(rows[0]) is EquilibriumClass.UNSTABLE_FOCUS
        assert plus_class(rows[1]) is EquilibriumClass.STABLE_FOCUS

    def test_exact_pitchfork_row_no_crash(self):
        rows = sweep("b", 0.25, 0.30, 2, SystemParams(0.0, 0.0, 0.5), cycles=False)
        assert len(rows[0].equilibria) == 1  # coalesced triple root reported once

    def test_reversed_range_gives_reversed_rows(self):
        fwd = sweep("c", 0.2, 0.8, 5, SystemParams(0.0, 0.0, 0.5), cycles=False)
        rev = sweep("c", 0.8, 0.2, 5, SystemParams(0.0, 0.0, 0.5), cycles=False)
        for a, b in zip(fwd, reversed(rev)):
            assert a.param_value == b.param_value
            assert [e.point.x for e in a.equilibria] == [e.point.x for e in b.equilibria]
            assert [e.classification for e in a.equilibria] == [
                e.classification for e in b.equilibria
            ]

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            sweep("b", 0.0, 1.0, 1, SystemParams(0.0, 0.0, 0.5))

    def test_cycle_records_in_relaxation_regime(self):
        rows = sweep("b", 0.1, 0.2, 2, SystemParams(0.0, 0.0, 0.5), cycles=True, tol=1e-9)
        for row in rows:
            assert any(r.stability.value == "stable" for r in row.cycles)
            rec = row.cycles[0]
            assert rec.period > 0 and rec.length > 0


@functools.cache
def _recipe_rows(param):
    """The recipe grid of `param` at eps 0.5 and the sweep's tol 1e-9."""
    lo, hi = TestSweepPin.GRIDS[param]
    return sweep(param, lo, hi, 60, SystemParams(0.0, 0.0, 0.5), tol=1e-9)


class TestSweepPin:
    """The two recipe grids at eps 0.5 and the sweep's tol, every cycle record
    pinned bit for bit: period, length and converged flag of each row."""

    # sha256 over the rows of `_digest`, recorded from Newton's method on the
    # return map to the half-lines above the equilibria, row 0's stable search
    # started at `find_limit_cycle`'s own start and every later one at
    # `_climb_seed` of the previous stable loop, and ("b") from the bracket
    # inside the stable loop of the row in (b_h, b_hom), where it finds the
    # unstable cycle
    DIGESTS = {
        "b": "69c32a52da6b3bb15a2cf2d04400b3b08907ff37dda2fb0083e1974a74a5865c",
        "c": "84e2b10bbc1ab9765a1cb2cea7eae8a97a5e5cf3029f7de6f85fbe34a0acb31b",
    }
    GRIDS = {"b": (0.24, 0.40), "c": (1.10, 1.20)}
    # summed search steps of each grid, 74.7k (b) and 49.8k (c) (75.8k and
    # 49.8k when row 0 started at (1.8, phi(1.8))); 82.3k and
    # 59.3k from the previous loop's rightmost sample, the landing point of
    # its jump, which climbed the whole right branch before the first return;
    # 121.3k and 86.2k from a start on the section, which paid one period to
    # reach its first return and a second one to close the loop
    STEP_BUDGETS = {"b": 79_000, "c": 52_000}

    @staticmethod
    def _digest(rows):
        h = hashlib.sha256()
        for row in rows:
            h.update(row.param_value.hex().encode())
            for rec in row.cycles:
                h.update(" ".join([rec.period.hex(), rec.length.hex(), str(rec.converged)]).encode())
            h.update(b"\n")
        return h.hexdigest()

    @pytest.mark.parametrize("param", sorted(GRIDS))
    def test_recipe_grid(self, param):
        rows = _recipe_rows(param)
        assert self._digest(rows) == self.DIGESTS[param]
        assert not any("StepSizeCollapseError" in (row.error or "") for row in rows)

    @pytest.mark.parametrize("param", sorted(GRIDS))
    def test_step_budget(self, param):
        rows = _recipe_rows(param)
        assert sum(row.stats["steps"] for row in rows) <= self.STEP_BUDGETS[param]
        # failed searches count too: every row searched
        assert all(row.stats["steps"] > 0 for row in rows)

    # a relaxation row of each grid, c's smallest stable cycle (L 0.36, beside
    # the Hopf point), and b's row in (b_h, b_hom), whose unstable cycle is
    # the b grid's only small loop
    WARM_ROWS = [("b", 20), ("b", 47), ("c", 20), ("c", 32)]

    @pytest.mark.parametrize("param, i", WARM_ROWS)
    def test_warm_row_agrees_with_cold_search(self, param, i):
        rows = _recipe_rows(param)
        row = rows[i]
        v = row.param_value
        params = SystemParams(v if param == "b" else 0.0, v if param == "c" else 0.0, 0.5)
        cold = find_limit_cycle(params, PhasePoint(-2.8, 1.64), tol=1e-11)
        want = [cold] + ([find_unstable_cycle(params, cold, 1e-11)] if len(row.cycles) > 1 else [])
        assert [rec.stability for rec in row.cycles] == [lc.stability for lc in want]
        for rec, lc in zip(row.cycles, want):
            assert rec.converged
            assert rec.period == pytest.approx(lc.period, rel=1e-7, abs=0.0)
        # a sweep's row is the search from the climb seed of the previous
        # row's stable loop
        v_prev = rows[i - 1].param_value
        prev = SystemParams(v_prev if param == "b" else 0.0, v_prev if param == "c" else 0.0, 0.5)
        seed = bifurcation._climb_seed(find_limit_cycle(prev, tol=1e-9), prev)
        _, pair = bifurcation.sweep_values(param, [v_prev, v], SystemParams(0.0, 0.0, 0.5), tol=1e-9)
        assert pair.cycles[0].period == find_limit_cycle(params, seed, tol=1e-9).period
        assert pair.cycles[0].period == pytest.approx(row.cycles[0].period, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("param", sorted(GRIDS))
    def test_first_row_agrees_with_a_start_left_of_the_left_branch(self, param):
        # row 0 starts where `find_limit_cycle` starts without a seed, on
        # the attracting right branch
        row = _recipe_rows(param)[0]
        v = row.param_value
        params = SystemParams(v if param == "b" else 0.0, v if param == "c" else 0.0, 0.5)
        left = find_limit_cycle(params, PhasePoint(-2.8, 1.64), tol=1e-9)
        assert row.cycles[0].converged and left.converged
        assert row.cycles[0].period == pytest.approx(left.period, rel=1e-7, abs=0.0)

    # the cold seed's climb contracts by e^27; from (1.8, phi(1.8)) it was
    # e^-12 on these rows, and each took one shot more: 2568, 2157 and 2240
    # steps, against 1481, 1304 and 1259
    @pytest.mark.parametrize("param, eps", [("b", 0.5), ("b", 1.0), ("c", 1.0)])
    def test_first_row_takes_no_newton_shot(self, param, eps):
        lo, _ = self.GRIDS[param]
        (row,) = bifurcation.sweep_values(param, [lo], SystemParams(0.0, 0.0, eps), tol=1e-9)
        assert row.error is None and row.cycles[0].converged
        assert row.stats["shots"] == 0

    def test_step_budget_at_small_eps(self):
        # the climb up the right branch is longest at small eps: 89.4k steps,
        # against 127.3k from the previous loop's rightmost sample
        rows = sweep("c", 1.10, 1.16, 40, SystemParams(0.0, 0.0, 0.05), tol=1e-9)
        assert sum(row.stats["steps"] for row in rows) <= 100_000
        assert [row.error for row in rows] == [None] * 36 + ["stable: ConvergedToEquilibriumError"] * 4

    def test_row_stats_sum_the_searches(self):
        # the band row's stable and unstable searches, and a failed search
        params = SystemParams(0.0, 0.0, 0.5)
        (row_b,) = bifurcation.sweep_values("b", [0.36745762711864405], params)
        b_params = SystemParams(0.36745762711864405, 0.0, 0.5)
        outer = find_limit_cycle(b_params, tol=1e-9)
        inner = find_unstable_cycle(b_params, outer, 1e-9)
        assert row_b.stats == {key: outer.stats[key] + inner.stats[key]
                               for key in ("steps", "rejected", "shots")}
        (row_c,) = bifurcation.sweep_values("c", [1.1576271186440679], params)
        c_params = SystemParams(0.0, 1.1576271186440679, 0.5)
        with pytest.raises(FHNError) as info:
            find_limit_cycle(c_params, tol=1e-9)
        assert row_c.stats == {key: info.value.stats[key] for key in ("steps", "rejected", "shots")}
        (row_eq,) = bifurcation.sweep_values("c", [1.0], params, cycles=False)
        assert row_eq.stats == {"steps": 0, "rejected": 0, "shots": 0}

    def test_band_rows(self):
        # the b-row between the Hopf and homoclinic values holds the unstable
        # cycle born at the Hopf point, inside the relaxation cycle; the c-row
        # above c_H, where the focus is stable, holds no cycle
        params = SystemParams(0.0, 0.0, 0.5)
        (row_b,) = bifurcation.sweep_values("b", [0.36745762711864405], params)
        stable, unstable = row_b.cycles
        assert stable.stability is Stability.STABLE and unstable.stability is Stability.UNSTABLE
        assert unstable.converged and row_b.error is None
        assert unstable.period == pytest.approx(4.908659, abs=1e-6)
        (row_c,) = bifurcation.sweep_values("c", [1.1576271186440679], params)
        assert row_c.cycles == [] and row_c.error == "stable: ConvergedToEquilibriumError"


class TestClimbSeed:
    """The warm start of a sweep row: the last sample of the previous loop,
    at or after its rightmost one, from which the rest of the loop contracts
    by e^20 (the trapezoid rule on div F over the loop's samples)."""

    @staticmethod
    def _seed_and_rest(c):
        params = SystemParams(0.0, c, 0.5)
        loop = find_limit_cycle(params, tol=1e-9)
        seed = bifurcation._climb_seed(loop, params)
        (i,) = np.flatnonzero((loop.x == seed.x) & (loop.y == seed.y))
        div = (4.0 - 3.0 * loop.x ** 2) / params.eps - params.b
        segments = 0.5 * (div[:-1] + div[1:]) * np.diff(loop.t)
        return loop, int(i), lambda k: float(np.sum(segments[k:]))

    def test_relaxation_loop_seed_lies_late_on_the_climb(self):
        loop, i, rest = self._seed_and_rest(1.14)
        assert i > int(np.argmax(loop.x))
        assert rest(i) <= -20.0 < rest(i + 1)
        # the whole loop's integral is ln P', far below -20
        assert rest(0) == pytest.approx(math.log(loop.multiplier), abs=1e-6)

    def test_hopf_side_loop_keeps_the_rightmost_sample(self):
        # whole-loop ln P' = -0.049: no sample contracts by e^20
        loop, i, rest = self._seed_and_rest(1.154)
        assert i == int(np.argmax(loop.x))
        assert rest(0) > -20.0


class TestAgreementWithWindowedSearch:
    """Every converged relaxation cycle of the two recipe grids (tol 1e-9)
    agrees to 1e-7 relative, in period and length, with the loop that the
    windowed search measured: that search placed its section by a probe
    window after a 20-unit transient and recorded one more period once its
    returns agreed.  The values below were recorded from it."""

    # (period, length) of the stable cycle of each row, from row 0; the rows
    # after these hold no cycle longer than LARGE_LENGTH
    CYCLES = {
        "b": [  # rows 0-47
            (10.056536912570664, 19.657802820548376),
            (10.090773167678677, 19.63117992331071),
            (10.125924007239014, 19.60444460820788),
            (10.162024366143825, 19.57759301776109),
            (10.199111361944333, 19.55062108695402),
            (10.237224480779908, 19.523524529158145),
            (10.276405783708753, 19.496298816729702),
            (10.316700136227986, 19.4689391620029),
            (10.358155464682106, 19.441440495478073),
            (10.400823042917821, 19.41379744033859),
            (10.444757814065824, 19.386004286437046),
            (10.490018752238548, 19.358054958973558),
            (10.536669271146543, 19.32994298471358),
            (10.58477768610689, 19.301661453693402),
            (10.634417739582126, 19.273202974662635),
            (10.685669199608391, 19.244559626742138),
            (10.738618545086197, 19.215722903522774),
            (10.793359752663271, 19.18668364861133),
            (10.84999520503127, 19.157431982457922),
            (10.908636743429561, 19.12795721696606),
            (10.969406893345074, 19.098247759483232),
            (11.032440299681753, 19.068290997239846),
            (11.097885415830682, 19.038073164821117),
            (11.16590650396595, 19.007579187604552),
            (11.236686018717826, 18.976792496371488),
            (11.310427467763716, 18.945694805315192),
            (11.387358870047613, 18.914265847672755),
            (11.467736970793773, 18.882483052253633),
            (11.55185242505474, 18.85032115125988),
            (11.640036233317353, 18.817751696799984),
            (11.732667818707498, 18.78474245259551),
            (11.830185283699379, 18.75125663510605),
            (11.933098606424906, 18.717251936749143),
            (12.04200686873805, 18.68267926064089),
            (12.157621122508914, 18.647481055030287),
            (12.280795307488937, 18.61158907153238),
            (12.412568959489704, 18.57492129019317),
            (12.554227669512478, 18.53737759358882),
            (12.707391165517706, 18.4988335004035),
            (12.874146063725114, 18.459130779381944),
            (13.057254270074225, 18.418062790834185),
            (13.260496906665281, 18.37535042604597),
            (13.48927867044599, 18.330600022026104),
            (13.751779931827642, 18.283223471714937),
            (14.06140935848942, 18.23226873036584),
            (14.44292950038858, 18.175997538290204),
            (14.952256626667861, 18.11052201281632),
            (15.78534310253707, 18.022298946064183),
        ],
        "c": [  # rows 0-29
            (14.244350664265468, 21.201422624640987),
            (14.284360370771957, 21.197096499853135),
            (14.325104796647118, 21.192678678781515),
            (14.366622531950448, 21.18816366178861),
            (14.408955933496692, 21.18354537293822),
            (14.452151670202674, 21.17881707524137),
            (14.496261373635875, 21.17397126322926),
            (14.541342421246334, 21.168999540028516),
            (14.587458885450076, 21.163892459902826),
            (14.634682694338494, 21.15863934270663),
            (14.683095064308041, 21.15322803479717),
            (14.732788285732695, 21.147644616630604),
            (14.783867974199048, 21.141873028018612),
            (14.836455944185388, 21.135894586920276),
            (14.890693926850048, 21.12968736131958),
            (14.94674845485077, 21.123225340821374),
            (15.004817391427878, 21.11647731946799),
            (15.065138828890518, 21.10940535697706),
            (15.12800348913845, 21.101962621516044),
            (15.193772461114271, 21.09409026949948),
            (15.262903318999463, 21.085712811183527),
            (15.335990019010545, 21.076730947599415),
            (15.413826461793697, 21.06701003786073),
            (15.497513200227289, 21.056360477769864),
            (15.588648883909151, 21.044502016270936),
            (15.68970444739319, 21.030992897800907),
            (15.80484558647425, 21.015071281952437),
            (15.942078435407737, 20.99523243648142),
            (16.12067487595744, 20.967723778086533),
            (16.418987082757397, 20.916397897416505),
        ],
    }

    @pytest.mark.parametrize("param", sorted(CYCLES))
    def test_relaxation_cycles_agree(self, param):
        rows = _recipe_rows(param)
        want = self.CYCLES[param]
        for row, (period, length) in zip(rows, want):
            (rec,) = [r for r in row.cycles if r.stability is Stability.STABLE]
            assert rec.converged
            assert rec.period == pytest.approx(period, rel=1e-7, abs=0.0)
            assert rec.length == pytest.approx(length, rel=1e-7, abs=0.0)
        assert all(rec.length < LARGE_LENGTH for row in rows[len(want):] for rec in row.cycles)
