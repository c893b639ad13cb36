import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhn.core import (
    Jacobian2x2,
    PhasePoint,
    SystemParams,
    TimeScale,
    eval_fast,
    eval_slow,
    jacobian,
    phi,
    phi_roots_with_multiplicity,
    solve_cubic,
)

from conftest import bisect_root

FOLD_X = 2.0 / math.sqrt(3.0)
FOLD_Y = 16.0 / (3.0 * math.sqrt(3.0))

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestFastField:
    def test_origin_on_manifold(self):
        assert eval_fast(PhasePoint(0.0, 0.0)) == 0.0

    def test_on_manifold_point(self):
        assert eval_fast(PhasePoint(1.0, 3.0)) == 0.0

    def test_value_at_fold_abscissa(self):
        # -0 + 4*(2/sqrt 3) - (2/sqrt 3)^3 = 16/(3 sqrt 3), by hand
        got = eval_fast(PhasePoint(FOLD_X, 0.0))
        assert got == pytest.approx(FOLD_Y, abs=1e-14)


class TestSlowField:
    def test_origin_case_v(self):
        assert eval_slow(PhasePoint(0.0, 0.0), SystemParams(0.2, 0.0)) == 0.0

    def test_hand_value_zero(self):
        # 1 - 0*3 - 1 = 0
        assert eval_slow(PhasePoint(1.0, 3.0), SystemParams(0.0, 1.0)) == 0.0

    def test_hand_value_two(self):
        # 2 - 1*0 - 0 = 2
        assert eval_slow(PhasePoint(2.0, 0.0), SystemParams(1.0, 0.0)) == 2.0


class TestPhiRoots:
    def test_odd_cubic_through_origin(self):
        assert phi(-2.0) == 0.0
        assert phi_roots_with_multiplicity(0.0) == [(-2.0, 1), (0.0, 1), (2.0, 1)]

    def test_fold_level_double_root(self):
        roots = phi_roots_with_multiplicity(FOLD_Y)
        assert len(roots) == 2
        (x1, m1), (x2, m2) = roots
        assert x1 == pytest.approx(-2.0 * FOLD_X, abs=1e-12) and m1 == 1
        assert x2 == pytest.approx(FOLD_X, abs=1e-12) and m2 == 2

    def test_single_root_against_bisection_oracle(self):
        oracle = bisect_root(lambda x: 4.0 * x - x**3 - 10.0, -5.0, 0.0)
        roots = phi_roots_with_multiplicity(10.0)
        assert len(roots) == 1
        (root, mult), = roots
        assert root == pytest.approx(oracle, abs=1e-12) and mult == 1

    @given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    def test_roots_map_back(self, y):
        for r, _ in phi_roots_with_multiplicity(y):
            assert abs(phi(r) - y) <= 1e-10

    @given(finite, finite)
    def test_fast_field_is_odd(self, x, y):
        assert eval_fast(PhasePoint(-x, -y)) == -eval_fast(PhasePoint(x, y))

    @given(finite, finite, st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    def test_slow_field_odd_when_c_zero(self, x, y, b):
        p = SystemParams(b, 0.0)
        assert eval_slow(PhasePoint(-x, -y), p) == -eval_slow(PhasePoint(x, y), p)


class TestSolveCubic:
    def test_three_known_roots(self):
        roots = solve_cubic(1.0, -6.0, 11.0, -6.0)
        assert [m for _, m in roots] == [1, 1, 1]
        for got, want in zip((r for r, _ in roots), (1.0, 2.0, 3.0)):
            assert got == pytest.approx(want, abs=1e-12)

    def test_triple_root(self):
        roots = solve_cubic(2.0, 0.0, 0.0, 0.0)
        assert roots == [(0.0, 3)]

    # a3 = 0 is rejected: quadratic and linear equations are not solved
    def test_quadratic_degeneracy(self):
        with pytest.raises(ValueError):
            solve_cubic(0.0, 1.0, -3.0, 2.0)

    def test_linear_degeneracy(self):
        with pytest.raises(ValueError):
            solve_cubic(0.0, 0.0, 2.0, -5.0)


class TestJacobian:
    def test_matrix_at_graph_point_b_zero(self):
        c, eps = 0.7, 0.3
        j = jacobian(PhasePoint(c, phi(c)), SystemParams(0.0, c, eps))
        assert (j.a11, j.a12, j.a21, j.a22) == (4.0 - 3.0 * c * c, -1.0, eps, -0.0)

    def test_trace_det_at_upper_equilibrium(self):
        b, eps = 0.3, 0.7
        x = math.sqrt(4.0 - 1.0 / b)
        j = jacobian(PhasePoint(x, phi(x)), SystemParams(b, 0.0, eps))
        assert j.trace == pytest.approx(-eps * b + 3.0 / b - 8.0, rel=1e-12)
        assert j.det == pytest.approx(2.0 * eps * (4.0 * b - 1.0), rel=1e-12)

    def test_singular_eigenvalues_at_origin(self):
        # characteristic polynomial lam^2 - 4 lam = 0 at eps = 0
        j = jacobian(PhasePoint(0.0, 0.0), SystemParams(0.0, 0.0, 0.0))
        lams = sorted(lam.real for lam in j.eigenvalues)
        assert lams == pytest.approx([0.0, 4.0], abs=1e-14)
        assert all(lam.imag == 0.0 for lam in j.eigenvalues)

    def test_slow_scale_requires_eps(self):
        with pytest.raises(ValueError):
            jacobian(PhasePoint(0.0, 0.0), SystemParams(0.0, 0.0, 0.0), TimeScale.SLOW)

    def test_slow_scale_is_fast_over_eps(self):
        p, params = PhasePoint(0.3, -1.0), SystemParams(0.4, 0.1, 0.2)
        jf = jacobian(p, params, TimeScale.FAST)
        js = jacobian(p, params, TimeScale.SLOW)
        assert js.a11 == pytest.approx(jf.a11 / 0.2, rel=1e-15)
        assert js.a21 == pytest.approx(jf.a21 / 0.2, rel=1e-15)

    @settings(max_examples=60)
    @given(finite, finite, st.floats(min_value=-2, max_value=2), st.floats(min_value=0, max_value=1))
    def test_matches_finite_differences(self, x, y, b, eps):
        params = SystemParams(b, 0.5, eps)
        j = jacobian(PhasePoint(x, y), params)
        h = 1e-6

        def fast_rhs(xx, yy):
            return eval_fast(PhasePoint(xx, yy))

        def slow_rhs(xx, yy):
            return eps * eval_slow(PhasePoint(xx, yy), params)

        assert j.a11 == pytest.approx((fast_rhs(x + h, y) - fast_rhs(x - h, y)) / (2 * h), abs=1e-6)
        assert j.a12 == pytest.approx((fast_rhs(x, y + h) - fast_rhs(x, y - h)) / (2 * h), abs=1e-6)
        assert j.a21 == pytest.approx((slow_rhs(x + h, y) - slow_rhs(x - h, y)) / (2 * h), abs=1e-6)
        assert j.a22 == pytest.approx((slow_rhs(x, y + h) - slow_rhs(x, y - h)) / (2 * h), abs=1e-6)

    @settings(max_examples=100)
    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
    )
    def test_eigenvalue_identities(self, a11, a12, a21, a22):
        j = Jacobian2x2(a11, a12, a21, a22)
        lp, lm = j.eigenvalues
        scale = 1.0 + abs(j.trace) + abs(j.det)
        assert abs((lp + lm) - j.trace) <= 1e-12 * scale
        assert abs((lp * lm) - j.det) <= 1e-12 * scale


class TestParamValidation:
    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            SystemParams(0.0, 0.0, -0.1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SystemParams(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            PhasePoint(math.inf, 0.0)
