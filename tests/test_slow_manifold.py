import math

import numpy as np
import pytest

from fhn.core import PhasePoint, SystemParams
from fhn.dynamics import integrate
from fhn.errors import OutOfValidityError
from fhn.singular import FOLD_Y, Branch
from fhn.slow_manifold import (
    BranchGraph,
    h0,
    h1,
    h_eps,
    invariance_defect,
)

from conftest import bisect_root

LEFT = BranchGraph.for_branch(Branch.LEFT_ATTRACTING)
RIGHT = BranchGraph.for_branch(Branch.RIGHT_ATTRACTING)


def h0_radical(y: float) -> float:
    """Nested-radical closed form of the left-branch root, real for 27y^2 > 256.

    An independent cross-check of h0, which uses the cubic solver because the
    radical needs complex intermediates when 27y^2 < 256.
    """
    if not (27.0 * y * y > 256.0 and y > 0.0):
        raise ValueError("radical form is real only for 27y^2 > 256 with y > 0")
    s = (9.0 * y + math.sqrt(3.0 * (27.0 * y * y - 256.0))) ** (1.0 / 3.0)
    return -4.0 * (2.0 / 3.0) ** (1.0 / 3.0) / s - s / 18.0 ** (1.0 / 3.0)


class TestH0:
    def test_left_root_at_zero(self):
        assert h0(0.0, LEFT) == pytest.approx(-2.0, abs=1e-14)

    def test_near_lower_fold_against_bisection(self):
        y = -FOLD_Y + 1e-3
        oracle = bisect_root(lambda x: 4.0 * x - x**3 - y, -3.0, -2.0 / math.sqrt(3.0))
        assert h0(y, LEFT) == pytest.approx(oracle, abs=1e-10)

    def test_right_branch_mirrors_left(self):
        y = FOLD_Y - 1e-3
        assert h0(y, RIGHT) == pytest.approx(-h0(-y, LEFT), abs=1e-12)

    def test_out_of_validity(self):
        with pytest.raises(OutOfValidityError):
            h0(-FOLD_Y, LEFT)
        with pytest.raises(OutOfValidityError):
            h0(FOLD_Y + 1.0, RIGHT)

    @pytest.mark.parametrize("y", [3.2, 5.0, 7.5, 10.0])
    def test_matches_radical_closed_form_where_real(self, y):
        assert 27.0 * y * y > 256.0
        assert h0_radical(y) == pytest.approx(h0(y, LEFT), abs=1e-9)

    def test_radical_rejected_in_complex_region(self):
        with pytest.raises(ValueError):
            h0_radical(1.0)


class TestH1:
    def test_hand_value_at_origin_level(self):
        # -2/(4 - 12)^2 = -1/32
        got = h1(0.0, LEFT, SystemParams(0.0, 0.0, 0.0))
        assert got == pytest.approx(-1.0 / 32.0, rel=1e-14)

    def test_vanishes_at_equilibrium_ordinate(self):
        # equilibrium (-2.5, 5.625) for b=0, c=-2.5 sits on the left branch
        got = h1(5.625, LEFT, SystemParams(0.0, -2.5, 0.0))
        assert abs(got) <= 1e-12

    def test_vanishes_for_matching_offset(self):
        # h0(0) - 0 - (-2) = 0
        assert h1(0.0, LEFT, SystemParams(0.0, -2.0, 0.0)) == pytest.approx(0.0, abs=1e-13)


class TestHEps:
    def test_zero_eps_is_h0(self):
        params = SystemParams(0.3, 0.1, 0.0)
        for y in (-1.0, 0.0, 2.0):
            assert h_eps(y, LEFT, params) == h0(y, LEFT)

    def test_first_order_values(self):
        assert h_eps(0.0, LEFT, SystemParams(0.0, 0.0, 0.1)) == pytest.approx(-2.003125, abs=1e-12)
        assert h_eps(0.0, LEFT, SystemParams(0.0, 0.0, 0.05)) == pytest.approx(-2.0015625, abs=1e-12)


class TestValidityIntervals:
    def test_left_interval_excludes_fold_ordinate(self):
        assert LEFT.y_lo >= -FOLD_Y + 1e-6
        assert LEFT.y_hi > LEFT.y_lo

    def test_right_interval_excludes_fold_ordinate(self):
        assert RIGHT.y_hi <= FOLD_Y - 1e-6

    def test_middle_branch_rejected(self):
        with pytest.raises(ValueError):
            BranchGraph.for_branch(Branch.MIDDLE_REPELLING)


class TestInvarianceDefect:
    def test_second_order_in_eps(self):
        ys = np.linspace(-2.5, 2.0, 40)

        def max_defect(eps):
            p = SystemParams(0.0, 0.0, eps)
            return max(abs(invariance_defect(float(y), LEFT, p)) for y in ys)

        ratio = max_defect(0.1) / max_defect(0.05)
        assert 3.5 <= ratio <= 4.5


class TestFenichelDistance:
    def test_trajectory_distance_scales_linearly_in_eps(self):
        # max distance of a slow segment to the h0 graph halves with eps
        def max_dist(eps):
            start = PhasePoint(h0(2.0, LEFT), 2.0)
            tr = integrate(start, SystemParams(0.0, 0.0, eps), 12.0, tol=1e-10)
            best = 0.0
            for x, y in zip(tr.x, tr.y):
                if x < -1.5 and -2.4 < y < 1.5:
                    best = max(best, abs(x - h0(float(y), LEFT)))
            return best

        ratio = max_dist(0.1) / max_dist(0.05)
        assert 1.6 <= ratio <= 2.4
