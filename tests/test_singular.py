import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fhn.core import PhasePoint, SystemParams, eval_fast, phi
from fhn.errors import (
    EquilibriumInPathError,
    FoldSingularityError,
    NotAnEquilibriumError,
    OnManifoldError,
)
from fhn.singular import (
    FOLD_X,
    FOLD_Y,
    LANDING_X,
    Fate,
    SegmentKind,
    classify_singular_fate,
    equilibrium_abscissae,
    fold_points,
    relaxation_period,
    slow_flow,
    slow_flow_linearization,
    slow_flow_numerator,
    _transit_time,
)


class TestFoldPoints:
    def test_closed_form_values(self):
        p_minus, p_plus = fold_points()
        assert p_plus.x == FOLD_X and p_plus.y == FOLD_Y
        assert p_minus.x == -FOLD_X and p_minus.y == -FOLD_Y
        assert p_plus.x == pytest.approx(1.1547005383792515, abs=1e-15)
        assert p_plus.y == pytest.approx(3.0792014356780038, abs=1e-14)

    def test_zero_residuals(self):
        for p in fold_points():
            assert abs(eval_fast(p)) <= 1e-14
            assert abs(4.0 - 3.0 * p.x * p.x) <= 1e-14

    def test_fold_equals_equilibrium_when_c_matches(self):
        # g(P+) = 2/sqrt(3) - 0 - 2/sqrt(3) = 0: the singular-fold setup
        _, p_plus = fold_points()
        assert slow_flow_numerator(p_plus.x, SystemParams(0.0, FOLD_X)) == 0.0


class TestSlowFlow:
    def test_hand_value(self):
        # (0 + 1 - 0)/(4 - 3) = 1
        assert slow_flow(1.0, SystemParams(0.0, 0.0)) == 1.0

    def test_origin_is_equilibrium_for_c_zero(self):
        for b in (0.0, 0.2, -1.0, 3.0):
            assert slow_flow(0.0, SystemParams(b, 0.0)) == 0.0

    def test_fold_singularity(self):
        with pytest.raises(FoldSingularityError):
            slow_flow(FOLD_X, SystemParams(0.0, 0.0))

    @settings(max_examples=100)
    @given(
        st.floats(min_value=-4, max_value=4, allow_nan=False),
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        st.floats(min_value=-3, max_value=3, allow_nan=False),
    )
    def test_numerator_is_slow_field_on_manifold(self, x, b, c):
        params = SystemParams(b, c)
        on_manifold = x - b * phi(x) - c
        assert slow_flow_numerator(x, params) == pytest.approx(on_manifold, abs=1e-12)


class TestSlowFlowLinearization:
    def test_origin_b02(self):
        # (1 - 0.8)/4 = 0.05, repelling on the middle branch
        got = slow_flow_linearization(0.0, SystemParams(0.2, 0.0))
        assert got == pytest.approx(0.05, rel=1e-12)
        assert got > 0

    def test_origin_b0(self):
        assert slow_flow_linearization(0.0, SystemParams(0.0, 0.0)) == pytest.approx(0.25)

    def test_outer_equilibrium_b1(self):
        x_star = math.sqrt(3.0)  # sqrt(4 - 1/b) at b = 1
        got = slow_flow_linearization(x_star, SystemParams(1.0, 0.0))
        assert got == pytest.approx(-1.2, rel=1e-10)
        assert got < 0

    def test_rejects_non_equilibrium(self):
        with pytest.raises(NotAnEquilibriumError):
            slow_flow_linearization(1.0, SystemParams(0.0, 0.0))

    def test_rejects_fold(self):
        with pytest.raises(FoldSingularityError):
            slow_flow_linearization(FOLD_X, SystemParams(0.375, 0.0))


def _segment_points(orbit):
    return [(s.kind, s.start, s.end) for s in orbit.segments]


class TestClassifyFate:
    def test_relaxation_cycle_through_jump_points(self):
        orbit = classify_singular_fate(PhasePoint(-2.8, 1.64), SystemParams(0.0, 0.0, 0.0))
        assert orbit.fate is Fate.PERIODIC_CYCLE
        # cycle visits D, P+, F, P-: check the fold and landing corners
        corners = {(round(s.end.x, 6), round(s.end.y, 6)) for s in orbit.segments}
        d = (round(2 * FOLD_X, 6), round(-FOLD_Y, 6))
        f = (round(-2 * FOLD_X, 6), round(FOLD_Y, 6))
        p_plus = (round(FOLD_X, 6), round(FOLD_Y, 6))
        p_minus = (round(-FOLD_X, 6), round(-FOLD_Y, 6))
        assert {d, f, p_plus, p_minus} <= corners

    def test_equilibrium_reached_on_left_branch(self):
        # stable equilibrium at (-2.5, 5.625); start above it, left of the branch
        orbit = classify_singular_fate(PhasePoint(-4.0, 7.0), SystemParams(0.0, -2.5, 0.0))
        assert orbit.fate is Fate.EQUILIBRIUM_REACHED
        end = orbit.segments[-1].end
        assert end.x == pytest.approx(-2.5, abs=1e-9)
        assert end.y == pytest.approx(5.625, abs=1e-9)
        assert orbit.segments[-1].duration == math.inf

    def test_divergence_with_unstable_right_equilibrium(self):
        # single repelling equilibrium on the right branch, none on the left
        params = SystemParams(-0.5, -5.0, 0.0)
        xs = [r for r, _ in equilibrium_abscissae(params)]
        assert len(xs) == 1 and xs[0] > FOLD_X
        assert slow_flow_linearization(xs[0], params) > 0
        orbit = classify_singular_fate(PhasePoint(-3.0, 0.0), params)
        assert orbit.fate is Fate.DIVERGES_PLUS_Y

    def test_outer_saddles_beyond_band_still_cycle(self):
        # saddles at +-sqrt(6) with |y| = 2 sqrt(6) > 16/(3 sqrt 3): cycling persists
        params = SystemParams(-0.5, 0.0, 0.0)
        ys = [phi(r) for r, _ in equilibrium_abscissae(params) if abs(r) > FOLD_X]
        assert len(ys) == 2 and all(abs(y) > FOLD_Y for y in ys)
        orbit = classify_singular_fate(PhasePoint(-4.0, 1.0), params)
        assert orbit.fate is Fate.PERIODIC_CYCLE

    def test_degenerate_landing_on_repelling_equilibrium(self):
        params = SystemParams(-0.5, 0.0, 0.0)
        x_eq = -math.sqrt(6.0)
        assert slow_flow_linearization(x_eq, params) > 0
        orbit = classify_singular_fate(PhasePoint(-5.0, phi(x_eq)), params)
        assert orbit.fate is Fate.DEGENERATE

    def test_rejects_on_manifold_start(self):
        with pytest.raises(OnManifoldError):
            classify_singular_fate(PhasePoint(-2.0, 0.0), SystemParams(0.0, 0.0, 0.0))

    def test_singular_fold_reported_as_error(self):
        # at b = 3/8 the folds are equilibria; the jump there is undefined
        with pytest.raises(FoldSingularityError):
            classify_singular_fate(PhasePoint(-2.8, 1.64), SystemParams(0.375, 0.0, 0.0))

    def test_rejects_positive_eps(self):
        with pytest.raises(ValueError):
            classify_singular_fate(PhasePoint(-2.8, 1.64), SystemParams(0.0, 0.0, 0.1))

    def test_slow_segments_lie_on_manifold(self):
        orbit = classify_singular_fate(PhasePoint(-2.8, 1.64), SystemParams(0.2, 0.0, 0.0))
        for seg in orbit.segments:
            if seg.kind is SegmentKind.SLOW:
                for p in seg.sample(100):
                    assert abs(eval_fast(p)) <= 1e-9

    def test_fast_segments_horizontal(self):
        orbit = classify_singular_fate(PhasePoint(-2.8, 1.64), SystemParams(0.2, 0.0, 0.0))
        for seg in orbit.segments:
            if seg.kind is SegmentKind.FAST:
                assert abs(seg.end.y - seg.start.y) <= 1e-12
                assert seg.duration == 0.0

    def test_segments_share_endpoints(self):
        orbit = classify_singular_fate(PhasePoint(-2.8, 1.64), SystemParams(0.2, 0.0, 0.0))
        for a, b in zip(orbit.segments, orbit.segments[1:]):
            assert a.end == b.start

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(min_value=-4.5, max_value=-2.6, allow_nan=False),
        st.floats(min_value=-2.5, max_value=2.5, allow_nan=False),
        st.floats(min_value=-0.6, max_value=0.3, allow_nan=False),
    )
    def test_mirror_orbits_for_c_zero(self, x0, y0, b):
        params = SystemParams(b, 0.0, 0.0)
        start = PhasePoint(x0, y0)
        if abs(eval_fast(start)) <= 1e-6:
            return
        try:
            orbit = classify_singular_fate(start, params)
            mirror = classify_singular_fate(start.mirrored(), params)
        except (RuntimeError, EquilibriumInPathError):
            return
        assert len(orbit.segments) == len(mirror.segments)
        for a, m in zip(orbit.segments, mirror.segments):
            assert a.kind is m.kind
            assert a.start.x == pytest.approx(-m.start.x, abs=1e-9)
            assert a.start.y == pytest.approx(-m.start.y, abs=1e-9)
            assert a.end.x == pytest.approx(-m.end.x, abs=1e-9)
            assert a.end.y == pytest.approx(-m.end.y, abs=1e-9)


class TestEquilibriumGeometry:
    @settings(max_examples=200)
    @given(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    )
    def test_count_and_residuals(self, b, c):
        params = SystemParams(b, c)
        roots = equilibrium_abscissae(params)
        assert 1 <= len(roots) <= 3
        for x, _ in roots:
            assert abs(slow_flow_numerator(x, params)) <= 1e-9 * (1 + abs(x) ** 3)

    # the advertised three-equilibria dichotomy (all on the middle branch,
    # or exactly one per branch) holds for the c = 0 family but not for all
    # (b, c): a slow nullcline whose slope undercuts the cubic's near the
    # folds can put two equilibria on one branch
    @pytest.mark.parametrize("b", [0.26, 0.3, 0.35, 0.374, 0.376, 0.4, 0.6, 1.0, 1.5])
    def test_branch_dichotomy_of_symmetric_family(self, b):
        roots = [x for x, _ in equilibrium_abscissae(SystemParams(b, 0.0))]
        assert len(roots) == 3
        if b < 0.375:
            assert all(abs(x) < FOLD_X for x in roots)
        else:
            left, middle, right = roots
            assert left < -FOLD_X and abs(middle) < FOLD_X and right > FOLD_X

    def test_dichotomy_counterexamples_off_the_symmetric_family(self):
        # two equilibria on the right branch (negative b)
        roots = [x for x, _ in equilibrium_abscissae(SystemParams(-0.25, 2.0))]
        assert len(roots) == 3
        assert sum(1 for x in roots if x > FOLD_X) == 2
        # two on the middle branch plus one on the right (positive b)
        roots = [x for x, _ in equilibrium_abscissae(SystemParams(1.609375, 3.8125))]
        assert len(roots) == 3
        assert sum(1 for x in roots if abs(x) < FOLD_X) == 2


class TestRelaxationPeriod:
    def test_closed_form_b0_c0(self):
        got = relaxation_period(SystemParams(0.0, 0.0, 0.0))
        assert got == pytest.approx(12.0 - 8.0 * math.log(2.0), abs=1e-9)

    def test_integrand_sanity_point(self):
        # (4 - 9)/sqrt(3) at x = sqrt(3) for b = c = 0, by hand
        params = SystemParams(0.0, 0.0)
        x = math.sqrt(3.0)
        val = (4.0 - 3.0 * x * x) / slow_flow_numerator(x, params)
        assert val == pytest.approx(-5.0 / math.sqrt(3.0), rel=1e-12)
        assert val == pytest.approx(-2.886751, abs=1e-6)

    def test_equilibrium_in_path_rejected(self):
        # b = 1 puts an equilibrium at sqrt(3), inside the right transit
        with pytest.raises(EquilibriumInPathError):
            relaxation_period(SystemParams(1.0, 0.0, 0.0))

    def test_rejects_positive_eps(self):
        with pytest.raises(ValueError):
            relaxation_period(SystemParams(0.0, 0.0, 0.5))

    @pytest.mark.parametrize(
        "b,c",
        [
            (5e-324, 0.1),
            (1e-300, 0.1),
            (1e-12, 0.1),
            (1e-8, 0.1),
            # small negative b: two far roots near +-|b|^-1/2
            (-1e-12, 0.1),
            (-1e-8, 0.1),
            # pitchfork point, where the three equilibria coincide, and beside it
            (0.25, 0.0),
            (0.25000000000000006, 0.0),
            (0.25 + 1e-9, 0.0),
            (0.25 - 1e-9, 0.0),
            # double equilibria
            (0.3, 0.06285393610547088),
            (0.3, -0.06285393610547088),
            # three simple equilibria
            (0.3, 0.0),
        ],
    )
    def test_closed_form_matches_quadrature(self, b, c):
        def integrand(x):
            return (4.0 - 3.0 * x * x) / (b * x**3 + (1.0 - 4.0 * b) * x - c)

        ref = sum(
            quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
            for lo, hi in ((LANDING_X, FOLD_X), (-LANDING_X, -FOLD_X))
        )
        assert relaxation_period(SystemParams(b, c, 0.0)) == pytest.approx(ref, rel=1e-12)

    def test_b02_anchor_to_rounding(self):
        exact = 35.0 * math.log(19.0 / 7.0) - 40.0 * math.log(2.0)
        assert relaxation_period(SystemParams(0.2, 0.0, 0.0)) == pytest.approx(exact, abs=1e-14)

    @staticmethod
    def _assert_slow_durations_match_quadrature(orbit):
        b, c = orbit.params.b, orbit.params.c

        def integrand(x):
            return (4.0 - 3.0 * x * x) / (b * x**3 + (1.0 - 4.0 * b) * x - c)

        slow = [s for s in orbit.segments if s.kind is SegmentKind.SLOW]
        assert slow and all(math.isfinite(s.duration) for s in slow)
        for s in slow:
            ref = quad(integrand, s.start.x, s.end.x, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
            assert s.duration == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("b,c", [(0.0, 0.0), (0.2, 0.0), (0.0, 0.5), (0.1, -0.3)])
    def test_quadrature_matches_orbit_durations(self, b, c):
        params = SystemParams(b, c, 0.0)
        orbit = classify_singular_fate(PhasePoint(-2.8, 1.64), params)
        assert orbit.fate is Fate.PERIODIC_CYCLE
        self._assert_slow_durations_match_quadrature(orbit)
        assert orbit.cycle_period() == pytest.approx(relaxation_period(params), rel=1e-12)

    # the diverging segment runs from the landing point to the reporting cap
    @pytest.mark.parametrize("b,c,start", [(-1.0, 0.0, (0.0, 3.0)), (-0.4, -1.5, (-2.0, -2.0))])
    def test_quadrature_matches_diverging_orbit_durations(self, b, c, start):
        orbit = classify_singular_fate(PhasePoint(*start), SystemParams(b, c, 0.0))
        assert orbit.fate is Fate.DIVERGES_PLUS_Y
        self._assert_slow_durations_match_quadrature(orbit)


class TestSquaredTransitIntegral:
    """The integral of phi'^2 / g, g = b x^3 + (1 - 4b) x - c, from x_s to
    the fold: eps times the log of the contraction towards the critical
    manifold on the climb from x_s."""

    @staticmethod
    def _against_quadrature(b, c, x_s):
        params = SystemParams(b, c, 0.0)
        roots = equilibrium_abscissae(params)
        assert not any(FOLD_X <= r <= x_s for r, _ in roots)

        def integrand(x):
            return (4.0 - 3.0 * x * x) ** 2 / (b * x**3 + (1.0 - 4.0 * b) * x - c)

        ref = quad(integrand, x_s, FOLD_X, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
        return _transit_time(x_s, FOLD_X, params, roots, 2), ref

    @pytest.mark.parametrize("b", [-0.1, 0.0, 0.1, 0.24, 0.3])
    @pytest.mark.parametrize("c, x_s", [(0.0, 1.8), (-0.5, 2.5), (1.0, 1.3)])
    def test_closed_form_matches_quadrature(self, b, c, x_s):
        got, ref = self._against_quadrature(b, c, x_s)
        assert got == pytest.approx(ref, rel=1e-10)

    # the far quadratic factor of g, beyond |b|^-1/2, by the Gauss-Legendre
    # rule: its fractions in closed form lose digits as 3e-15/|b|
    @pytest.mark.parametrize("b", [1e-12, 1e-6, -1e-4, 9e-4])
    @pytest.mark.parametrize("c, x_s", [(0.0, 1.8), (1.14, 1.5)])
    def test_small_b_matches_quadrature(self, b, c, x_s):
        got, ref = self._against_quadrature(b, c, x_s)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_b0_at_c0_by_hand(self):
        # 9x^3 - 24x + 16/x from 2 to 2/sqrt(3): 9/4 (16/9 - 16) - 12 (4/3 - 4)
        # + 16 ln(1/sqrt(3))
        got = _transit_time(2.0, FOLD_X, SystemParams(0.0, 0.0, 0.0), [(0.0, 1)], 2)
        assert got == pytest.approx(-8.0 * math.log(3.0), rel=1e-14)
