"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them live).
Criterion 1 checks the two-branch relaxation period, 12 - 8 ln 2 at
(b, c) = (0, 0) and 35 ln(19/7) - 40 ln 2 = 7.2226 at (0.2, 0), and the
single-branch slow transit at (0.2, 0), 17.5 ln(19/7) - 20 ln 2 = 3.6113,
which is the figure usually quoted as 3.61.
"""

import itertools
import math
import time

import numpy as np
import pytest

from fhn.core import PhasePoint, SystemParams, eval_fast, eval_slow, fx, jacobian
from fhn.bifurcation import homoclinic_in_b, hopf_in_b, hopf_in_c, pitchfork_in_b, equilibria
from fhn.canard import (
    CanardClass,
    classify_canard,
    explosion_scan,
    locate_canard_explosion,
    normal_form_case_i,
    normal_form_case_ii,
)
from fhn.dynamics import find_limit_cycle, integrate
from fhn.errors import StepSizeCollapseError
from fhn.singular import (
    FOLD_X,
    FOLD_Y,
    Fate,
    SegmentKind,
    classify_singular_fate,
    fold_points,
    relaxation_period,
)
from fhn.slow_manifold import Branch, BranchGraph, h0, h1

from conftest import bisect_root


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


class TestAcceptance:
    def test_criterion_01_relaxation_period(self):
        t0 = time.perf_counter()
        t_sym = relaxation_period(SystemParams(0.0, 0.0, 0.0))
        t_b02 = relaxation_period(SystemParams(0.2, 0.0, 0.0))
        elapsed = time.perf_counter() - t0
        exact = 12.0 - 8.0 * math.log(2.0)
        ok1 = abs(t_sym - exact) < 1e-6 and elapsed < 1.0
        # At b = 0.2, c = 0 the integrand is 5(4/x - 7x/(x^2 + 1)); each branch
        # gives 17.5 ln(19/7) - 20 ln 2 and the period is twice that.
        exact_b02 = 35.0 * math.log(19.0 / 7.0) - 40.0 * math.log(2.0)
        ok2 = abs(t_b02 - exact_b02) < 1e-6
        # The quoted 3.61 is one slow transit of the singular cycle, timed by
        # the same closed-form integral of the reduced flow as the period.
        orbit = classify_singular_fate(PhasePoint(-2.8, 1.64), SystemParams(0.2, 0.0, 0.0))
        transits = [
            s.duration for s in orbit.segments[orbit.cycle_start :] if s.kind is SegmentKind.SLOW
        ]
        ok3 = (
            orbit.fate is Fate.PERIODIC_CYCLE
            and len(transits) == 2
            and all(abs(d - 3.61) <= 0.01 for d in transits)
        )
        report(
            1,
            ok1 and ok2 and ok3,
            f"T(0,0)={t_sym:.9f} vs {exact:.9f} (|d|={abs(t_sym - exact):.2e}); "
            f"T(0.2,0)={t_b02:.9f} vs 35ln(19/7)-40ln2={exact_b02:.9f} "
            f"(|d|={abs(t_b02 - exact_b02):.2e}); "
            f"one-branch transits at (0.2,0)={[round(d, 6) for d in transits]} vs the quoted 3.61+-0.01; "
            f"{elapsed * 1e3:.0f} ms",
        )
        assert ok1
        assert ok2, (
            f"relaxation_period(0.2, 0) = {t_b02:.9f}; the two-branch period is "
            f"35 ln(19/7) - 40 ln 2 = {exact_b02:.9f}"
        )
        assert ok3, (
            f"singular cycle at (0.2, 0): fate {orbit.fate}, slow transits {transits}; "
            "each one-branch transit should be the quoted 3.61+-0.01"
        )

    def test_criterion_02_fold_points_exact(self):
        p_minus, p_plus = fold_points()
        residuals = []
        for p in (p_minus, p_plus):
            residuals += [abs(eval_fast(p)), abs(fx(p.x))]
        ok = (
            p_plus.x == 2.0 / math.sqrt(3.0)
            and p_plus.y == 16.0 / (3.0 * math.sqrt(3.0))
            and p_minus.x == -p_plus.x
            and p_minus.y == -p_plus.y
            and max(residuals) <= 1e-14
        )
        report(2, ok, f"P+=({p_plus.x:.12f},{p_plus.y:.12f}), max residual {max(residuals):.2e}")
        assert ok

    def test_criterion_03_hopf_in_c_eigenvalues(self):
        t0 = time.perf_counter()
        worst_re, worst_im = 0.0, 0.0
        for eps in (0.1, 0.5):
            plus, _ = hopf_in_c(eps)
            for sign, lam in zip((1, -1), plus.equilibrium.eigenvalues):
                worst_re = max(worst_re, abs(lam.real))
                worst_im = max(worst_im, abs(lam.imag - sign * math.sqrt(eps)))
        elapsed = time.perf_counter() - t0
        ok = worst_re < 1e-10 and worst_im < 1e-10 and elapsed < 1.0
        report(3, ok, f"max |Re|={worst_re:.2e}, max |Im -+ sqrt(eps)|={worst_im:.2e}, "
                      f"{elapsed * 1e3:.0f} ms")
        assert ok

    def test_criterion_04_hopf_in_b(self):
        b_formula = hopf_in_b(0.5).param_value
        b_numeric = bisect_root(lambda b: -0.5 * b + 3.0 / b - 8.0, 0.3, 0.45)
        b_limit = hopf_in_b(1e-6).param_value
        ok = (
            abs(b_formula - 0.36660) <= 1e-4
            and abs(b_formula - b_numeric) <= 1e-10
            and abs(b_limit - 0.375) <= 1e-5
        )
        report(4, ok, f"b_H(0.5)={b_formula:.8f} (numeric root {b_numeric:.8f}); "
                      f"b_H(1e-6)={b_limit:.10f} -> 3/8")
        assert ok

    def test_criterion_05_pitchfork(self):
        counts_ok = all(
            len(equilibria(SystemParams(b, 0.0, 0.5))) == 1 for b in (0.01, 0.1, 0.2, 0.249)
        ) and all(
            len(equilibria(SystemParams(b, 0.0, 0.5))) == 3 for b in (0.251, 0.3, 0.5, 0.99)
        )
        xs = sorted(e.point.x for e in equilibria(SystemParams(0.375, 0.0, 0.5)))
        fold_ok = abs(xs[2] - FOLD_X) <= 1e-12 and abs(xs[0] + FOLD_X) <= 1e-12
        locus_ok = pitchfork_in_b().param_value == 0.25
        ok = counts_ok and fold_ok and locus_ok
        report(5, ok, f"counts 1 below / 3 above b=1/4: {counts_ok}; "
                      f"x+-(3/8) -+ 2/sqrt3 within {max(abs(xs[2] - FOLD_X), abs(xs[0] + FOLD_X)):.2e}")
        assert ok

    def test_criterion_06_homoclinic(self):
        t0 = time.perf_counter()
        hom = homoclinic_in_b(0.5)
        elapsed = time.perf_counter() - t0
        d_origin = hom.orbit.min_distance_to(0.0, 0.0)
        d_ref = hom.orbit.min_distance_to(0.5158, 1.9578)
        ok = (
            abs(hom.param_value - 0.36932) <= 1e-3
            and d_origin <= 1e-2
            and d_ref <= 0.02
            and elapsed < 300.0
        )
        report(6, ok, f"b_hom={hom.param_value:.7f} (vs 0.36932+-1e-3); loop to origin "
                      f"{d_origin:.2e}, to (0.5158,1.9578) {d_ref:.4f}; {elapsed:.1f} s")
        assert ok

    def test_criterion_07_normal_form_coefficients(self):
        nf1, nf2 = normal_form_case_i(), normal_form_case_ii()
        ok = (
            nf1.a_coeff == -3.0 / 8.0
            and nf1.b_coeff == 0.0
            and nf2.a_coeff == -15.0 / 32.0
            and nf2.b_coeff == -3.0 / 16.0
        )
        report(7, ok, f"A1={nf1.a_coeff}, B1={nf1.b_coeff}, A2={nf2.a_coeff}, B2={nf2.b_coeff}")
        assert ok

    def test_criterion_08_canard_explosion(self):
        t0 = time.perf_counter()
        c_05 = locate_canard_explosion(0.5, bracket=(1.14, 1.154))
        c_01 = locate_canard_explosion(0.1, bracket=(1.15, 1.1547))
        elapsed = time.perf_counter() - t0
        ok = (
            abs(c_05 - 1.150077) <= 1e-4
            and abs(c_01 - 1.153794) <= 1e-5
            and elapsed < 600.0
        )
        report(8, ok, f"c*(0.5)={c_05:.7f} (|d|={abs(c_05 - 1.150077):.1e}); "
                      f"c*(0.1)={c_01:.7f} (|d|={abs(c_01 - 1.153794):.1e}); {elapsed:.1f} s")
        assert ok

    def test_criterion_09_canard_class_order(self):
        _, records = explosion_scan(0.5, bracket=(1.14, 1.154), n_points=40)
        classes = [r.klass for r in records]
        groups = [k for k, _ in itertools.groupby(classes)]
        want = [
            CanardClass.HOPF_SMALL,
            CanardClass.HEADLESS,
            CanardClass.HEADED,
            CanardClass.RELAXATION,
        ]
        ok = len(records) == 40 and groups == want
        report(9, ok, f"{len(records)} points, class groups {[g.value for g in groups]}")
        assert ok

    def test_criterion_10_property_suite(self):
        details = []

        # odd equivariance of trajectories for c = 0
        tol = 1e-9
        params = SystemParams(0.3, 0.0, 0.2)
        tr = integrate(PhasePoint(-2.8, 1.64), params, 8.0, tol=tol)
        mr = integrate(PhasePoint(2.8, -1.64), params, 8.0, tol=tol)
        mismatch = max(np.max(np.abs(tr.x + mr.x)), np.max(np.abs(tr.y + mr.y)))
        ok_mirror = mismatch < 10.0 * tol
        details.append(f"mirror mismatch {mismatch:.1e}")

        # Fenichel O(eps) distance ratio on the left branch
        left = BranchGraph.for_branch(Branch.LEFT_ATTRACTING)

        def max_dist(eps):
            start = PhasePoint(h0(2.0, left), 2.0)
            t = integrate(start, SystemParams(0.0, 0.0, eps), 12.0, tol=1e-10)
            best = 0.0
            for x, y in zip(t.x, t.y):
                if x < -1.5 and -2.4 < y < 1.5:
                    best = max(best, abs(x - h0(float(y), left)))
            return best

        fen_ratio = max_dist(0.1) / max_dist(0.05)
        ok_fen = 1.6 <= fen_ratio <= 2.4
        details.append(f"Fenichel ratio {fen_ratio:.3f}")

        # period convergence T(eps) -> T(0)
        periods = {
            eps: find_limit_cycle(SystemParams(0.0, 0.0, eps), PhasePoint(-2.8, 1.64),
                                  tol=1e-10).period
            for eps in (0.1, 0.05, 0.025)
        }
        rate = (periods[0.1] - periods[0.05]) / (periods[0.05] - periods[0.025])
        ok_rate = 1.5 <= rate <= 2.5
        details.append(f"period-difference ratio {rate:.3f}")

        # jacobian against central differences
        worst_fd = 0.0
        h = 1e-6
        for x, y, b, eps in ((0.3, -1.2, 0.4, 0.5), (-2.0, 1.0, 0.0, 0.1), (1.1, 3.0, 0.375, 1.0)):
            params = SystemParams(b, 0.5, eps)
            j = jacobian(PhasePoint(x, y), params)
            fd11 = (eval_fast(PhasePoint(x + h, y)) - eval_fast(PhasePoint(x - h, y))) / (2 * h)
            fd12 = (eval_fast(PhasePoint(x, y + h)) - eval_fast(PhasePoint(x, y - h))) / (2 * h)
            fd21 = eps * (eval_slow(PhasePoint(x + h, y), params)
                          - eval_slow(PhasePoint(x - h, y), params)) / (2 * h)
            fd22 = eps * (eval_slow(PhasePoint(x, y + h), params)
                          - eval_slow(PhasePoint(x, y - h), params)) / (2 * h)
            worst_fd = max(worst_fd, abs(j.a11 - fd11), abs(j.a12 - fd12),
                           abs(j.a21 - fd21), abs(j.a22 - fd22))
        ok_fd = worst_fd < 1e-6
        details.append(f"jacobian FD residual {worst_fd:.1e}")

        # h1 vanishes at equilibrium ordinates
        h1_val = abs(h1(5.625, left, SystemParams(0.0, -2.5, 0.0)))
        ok_h1 = h1_val <= 1e-12
        details.append(f"h1 at equilibrium ordinate {h1_val:.1e}")

        # singular-orbit slow segments on the manifold
        orbit = classify_singular_fate(PhasePoint(-2.8, 1.64), SystemParams(0.2, 0.0, 0.0))
        worst_seg = max(
            abs(eval_fast(p))
            for seg in orbit.segments
            if seg.kind is SegmentKind.SLOW
            for p in seg.sample(100)
        )
        ok_seg = worst_seg < 1e-9
        details.append(f"slow-segment residual {worst_seg:.1e}")

        ok = ok_mirror and ok_fen and ok_rate and ok_fd and ok_h1 and ok_seg
        report(10, ok, "; ".join(details))
        assert ok
