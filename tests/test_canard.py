import dataclasses
import math
import signal

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fhn import canard, dynamics
from fhn.canard import _MIDDLE_XS, _MIDDLE_YS, _in_band_segments, _within_middle_band
from fhn.core import PhasePoint, SystemParams, phi
from fhn.dynamics import LimitCycle, Stability, find_limit_cycle, integrate
from fhn.errors import (
    BracketFailureError,
    ConvergedToEquilibriumError,
    NoCycleError,
    NonFiniteError,
    StepSizeCollapseError,
)
from fhn.canard import (
    CanardClass,
    asymptotic_loci,
    classify_canard,
    locate_canard_explosion,
    normal_form_case_i,
    normal_form_case_ii,
)
from fhn.singular import FOLD_X


def time_near_middle_branch(cycle: LimitCycle, band: float) -> float:
    """Slow time the loop spends within `band` of the repelling branch."""
    dt = np.diff(np.append(cycle.t, cycle.t[0] + cycle.period))
    return float(np.sum(dt[_in_band_segments(cycle, band)]))


class TestNormalFormCoeffs:
    def test_case_i_values(self):
        nf = normal_form_case_i()
        assert nf.a_coeff == -3.0 / 8.0
        assert nf.b_coeff == 0.0
        assert nf.l2 == pytest.approx(-2.0 * math.sqrt(3.0))
        assert (nf.l1, nf.l3, nf.l4, nf.l5, nf.l6) == (1.0, 0.0, 1.0, -1.0, 0.0)

    def test_case_ii_values(self):
        nf = normal_form_case_ii()
        assert nf.a_coeff == -15.0 / 32.0
        assert nf.b_coeff == -3.0 / 16.0
        assert (nf.l1, nf.l3, nf.l4, nf.l5, nf.l6) == (-1.0, 0.0, 1.0, 1.0, -3.0 / 8.0)
        assert nf.x_plus == 4.0 / 3.0

    def test_coefficient_formulas_recompute(self):
        for nf in (normal_form_case_i(), normal_form_case_ii()):
            a = (-nf.dl1_dx + 3 * nf.dl2_dx - 2 * nf.dl4_dx + 2 * nf.l6) / 8.0
            b = (nf.dl3_dx + nf.l6) / 2.0
            assert a == nf.a_coeff and b == nf.b_coeff
            assert nf.a_coeff < 0  # non-degenerate, supercritical in the shifted parameter


class TestAsymptoticLoci:
    def test_case_i_at_half(self):
        loci = asymptotic_loci(normal_form_case_i(), 0.5)
        assert loci.lambda_h == 0.0
        assert loci.lambda_c == pytest.approx(0.1875)
        assert loci.lambda_c_flipped == pytest.approx(-0.1875)

    def test_case_ii_gap(self):
        loci = asymptotic_loci(normal_form_case_ii(), 0.5)
        assert loci.lambda_c - loci.lambda_h == pytest.approx((15.0 / 32.0) * 0.5)
        assert loci.gap == pytest.approx(-(15.0 / 32.0) * 0.5)

    def test_linear_in_eps(self):
        nf = normal_form_case_ii()
        a = asymptotic_loci(nf, 0.4)
        b = asymptotic_loci(nf, 0.2)
        assert a.lambda_h == pytest.approx(2.0 * b.lambda_h)
        assert a.lambda_c == pytest.approx(2.0 * b.lambda_c)

    def test_eps_range_enforced(self):
        with pytest.raises(ValueError):
            asymptotic_loci(normal_form_case_i(), 0.6)
        with pytest.raises(ValueError):
            asymptotic_loci(normal_form_case_i(), 0.0)

    def test_discrepancy_note_present(self):
        assert "authoritative" in asymptotic_loci(normal_form_case_i(), 0.1).note


def _loop(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    t = np.linspace(0.0, 1.0, len(xs))
    return LimitCycle(t, xs, ys, 1.0, 0.0, Stability.STABLE, True, xs[0], 0.0)


def _middle_arc(x_hi, x_lo, n=400):
    xs = np.linspace(x_hi, x_lo, n)
    return xs, phi(xs)


class TestClassifier:
    def test_small_circle_is_hopf_small(self):
        th = np.linspace(0, 2 * np.pi, 200)
        loop = _loop(1.15 + 0.1 * np.cos(th), 3.0 + 0.1 * np.sin(th))
        assert classify_canard(loop) is CanardClass.HOPF_SMALL

    def test_far_rectangle_is_relaxation(self):
        xs = np.concatenate([np.linspace(1.4, 2.3, 50), np.full(50, 2.3),
                             np.linspace(2.3, 1.4, 50), np.full(50, 1.4)])
        ys = np.concatenate([np.full(50, -3.0), np.linspace(-3.0, 3.0, 50),
                             np.full(50, 3.0), np.linspace(3.0, -3.0, 50)])
        assert classify_canard(_loop(xs, ys)) is CanardClass.RELAXATION

    def test_middle_tracking_loop_is_headless(self):
        # down the repelling branch, jump right, back up the right branch
        mx, my = _middle_arc(1.0, -0.5)
        rx = np.linspace(phi_inv_right(my[-1]), phi_inv_right(my[0]), 400)
        xs = np.concatenate([mx, np.linspace(mx[-1], rx[0], 50), rx])
        ys = np.concatenate([my, np.full(50, my[-1]), phi(rx)])
        loop = _loop(xs, ys)
        assert np.all(loop.x > -FOLD_X)
        assert classify_canard(loop) is CanardClass.HEADLESS

    def test_middle_tracking_loop_with_left_excursion_is_headed(self):
        mx, my = _middle_arc(1.0, -0.5)
        xs = np.concatenate([mx, np.linspace(mx[-1], -2.0, 60), np.linspace(-2.0, 1.0, 60)])
        ys = np.concatenate([my, np.full(60, my[-1]), np.full(60, my[0])])
        assert classify_canard(_loop(xs, ys)) is CanardClass.HEADED

    def test_time_near_middle_branch(self):
        mx, my = _middle_arc(1.0, -0.5, n=500)
        loop = _loop(mx, my)  # pure middle-branch arc over unit time
        assert time_near_middle_branch(loop, 0.05) == pytest.approx(1.0, abs=0.02)

    # eps-0.1 cycles beside the explosion (tol 1e-11) whose middle-branch arc
    # was split in two, and misclassified as Relaxation, when the loop started
    # inside it: a linear walk gave Headless at 20 and Headed at 35 of the 40
    # start offsets
    @pytest.mark.parametrize("c", [1.1537941518664359, 1.1537941513061523])
    def test_class_does_not_depend_on_the_start_sample(self, c):
        lc = find_limit_cycle(SystemParams(0.0, c, 0.1), PhasePoint(-2.8, 1.64), tol=1e-11)
        n = len(lc.x) - 1  # the last sample closes the loop
        classes, times = set(), []
        for k in range(40):
            off = k * n // 40
            x = np.append(np.roll(lc.x[:-1], -off), lc.x[off])
            y = np.append(np.roll(lc.y[:-1], -off), lc.y[off])
            rotated = dataclasses.replace(lc, x=x, y=y)
            classes.add(classify_canard(rotated))
            times.append(time_near_middle_branch(rotated, 0.5))
        assert len(classes) == 1
        assert max(times) - min(times) <= 1e-9 * lc.period


class TestMiddleBand:
    """The sorted-window band test against a KD-tree over the same samples."""

    @staticmethod
    def _tree_mask(x, y, band):
        tree = cKDTree(np.column_stack([_MIDDLE_XS, _MIDDLE_YS]))
        return tree.query(np.column_stack([x, y]))[0] <= band

    def test_samples_increase_in_both_coordinates(self):
        assert np.all(np.diff(_MIDDLE_XS) > 0.0)
        assert np.all(np.diff(_MIDDLE_YS) > 0.0)

    @pytest.mark.parametrize("band", [0.05, 0.5, 2.5])
    def test_uniform_points_match_tree(self, band):
        rng = np.random.default_rng(11)
        x, y = rng.uniform(-3.0, 3.0, 100_000), rng.uniform(-5.0, 5.0, 100_000)
        got = _within_middle_band(x, y, band)
        np.testing.assert_array_equal(got, self._tree_mask(x, y, band))
        assert 0 < np.count_nonzero(got) < len(x)

    @pytest.mark.parametrize("band", [0.05, 0.5, 2.5])
    def test_points_at_band_distance_match_tree(self, band):
        rng = np.random.default_rng(12)
        j = rng.integers(0, len(_MIDDLE_XS), 200_000)
        theta = rng.uniform(0.0, 2.0 * np.pi, 200_000)
        x = _MIDDLE_XS[j] + band * np.cos(theta)
        y = _MIDDLE_YS[j] + band * np.sin(theta)
        np.testing.assert_array_equal(_within_middle_band(x, y, band), self._tree_mask(x, y, band))


def _longest_run_walk(inside, seg):
    """Walk twice round the loop, adding each in-band segment to the current
    run; the oracle for `canard._longest_run`."""
    best = run = 0.0
    for k in list(range(len(seg))) * 2:
        if inside[k]:
            run += seg[k]
            best = max(best, run)
        else:
            run = 0.0
    return best


def _band_segments(lc):
    inside = canard._in_band_segments(lc, canard.MIDDLE_BAND)
    seg = np.hypot(np.roll(lc.x, -1) - lc.x, np.roll(lc.y, -1) - lc.y)
    return inside, seg


class TestLongestRun:
    SEG = np.array([0.3, 0.1, 0.7, 0.2, 0.5, 0.4])

    @pytest.mark.parametrize("inside", [
        [True] * 6,  # all in band: summed twice round
        [False] * 6,
        [True, True, False, False, True, True],  # a run through index 0
        [True, False, True, True, False, True],
        [False, True, True, True, True, True],
        [True, True, True, True, True, False],
        [False, False, True, False, False, False],
    ])
    def test_edge_cases_match_walk(self, inside):
        inside = np.array(inside)
        got = canard._longest_run(inside, self.SEG)
        assert got == _longest_run_walk(inside, self.SEG)

    def test_run_through_index_0_is_whole(self):
        inside = np.array([True, True, False, False, True, True])
        assert canard._longest_run(inside, self.SEG) == ((0.5 + 0.4) + 0.3) + 0.1

    def test_random_masks_match_walk(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 50))
            inside = rng.uniform(size=n) < rng.uniform()
            seg = rng.uniform(size=n) * 10.0 ** rng.uniform(-8.0, 2.0, size=n)
            assert canard._longest_run(inside, seg) == _longest_run_walk(inside, seg)


def phi_inv_right(y):
    """Right-branch root by bisection; test-local oracle."""
    lo, hi = 2.0 / math.sqrt(3.0) + 1e-9, 4.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if phi(mid) > y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _stub_cycle(length, converged=True):
    z = np.zeros(3)
    return LimitCycle(z, z, z, 1.0, length, Stability.STABLE, converged, 0.0, 0.0)


class _StubSearch:
    """Stand-in for `canard.find_limit_cycle` that records the c and tol of each call.

    `outcome(c, tol)` gives the cycle length, a (length, converged) pair, or
    an exception instance to raise.
    """

    def __init__(self, outcome):
        self.outcome = outcome
        self.cs = []
        self.tols = []

    def __call__(self, params, seed=None, tol=1e-10):
        self.cs.append(params.c)
        self.tols.append(tol)
        out = self.outcome(params.c, tol)
        if isinstance(out, Exception):
            raise out
        return _stub_cycle(*out) if isinstance(out, tuple) else _stub_cycle(out)


@pytest.fixture
def stub_search(monkeypatch):
    def install(outcome):
        stub = _StubSearch(outcome)
        monkeypatch.setattr(canard, "find_limit_cycle", stub)
        return stub

    return install


class TestDecisionRule:
    def test_far_cycle_is_decided_by_one_loose_search(self, stub_search):
        stub = stub_search(lambda c, tol: 20.0)
        cache = {}
        canard._measure(1.15, 0.5, cache, decide=True)
        assert stub.tols == [1e-9]

    def test_near_threshold_is_confirmed_at_tol(self, stub_search):
        stub = stub_search(lambda c, tol: 10.5 if tol == 1e-9 else 9.7)
        cache = {}
        lc = canard._measure(1.15, 0.5, cache, decide=True)
        assert stub.tols == [1e-9, 1e-11]
        assert cache == {1.15: lc} and lc.length == 9.7

    @pytest.mark.parametrize("length", [5.0, 7.0, 13.0, 15.0])
    def test_unconverged_loose_cycle_in_window_is_confirmed(self, stub_search, length):
        stub = stub_search(lambda c, tol: (length, tol != 1e-9))
        cache = {}
        assert canard._measure(1.15, 0.5, cache, decide=True).converged
        assert stub.tols == [1e-9, 1e-11]

    @pytest.mark.parametrize("length", [0.4, 4.9, 15.1, 20.0])
    def test_unconverged_loose_cycle_outside_window_decides(self, stub_search, length):
        # the small cycles beside the Hopf point converge too slowly at any tol
        stub = stub_search(lambda c, tol: (length, False))
        lc = canard._measure(1.15, 0.5, {}, decide=True)
        assert stub.tols == [1e-9]
        assert lc.length == length and not lc.converged

    @pytest.mark.parametrize(
        "error", [NoCycleError, ConvergedToEquilibriumError, NonFiniteError, StepSizeCollapseError]
    )
    def test_loose_search_error_falls_through_to_tol(self, stub_search, error):
        stub = stub_search(lambda c, tol: error("loose") if tol == 1e-9 else 20.0)
        assert canard._measure(1.15, 0.5, {}, decide=True).length == 20.0
        assert stub.tols == [1e-9, 1e-11]

    def test_tight_search_error_reaches_the_caller(self, stub_search):
        stub = stub_search(lambda c, tol: NoCycleError(f"tol {tol}"))
        with pytest.raises(NoCycleError, match="tol 1e-11"):
            canard._measure(1.15, 0.5, {}, decide=True)
        assert stub.tols == [1e-9, 1e-11]

    def test_measure_without_decide_searches_at_tol(self, stub_search):
        stub = stub_search(lambda c, tol: 20.0)
        canard._measure(1.15, 0.5, {})
        assert stub.tols == [1e-11]

    def test_locate_caches_one_cycle_per_c(self, stub_search):
        # 10 halvings of a unit bracket measure 10 midpoints and the two ends
        stub = stub_search(lambda c, tol: 20.0 if c < 1.3 else 2.0)
        cache = {}
        c_star = locate_canard_explosion(0.5, bracket=(1.0, 2.0), c_tol=2.0 ** -10, cache=cache)
        assert abs(c_star - 1.3) < 2.0 ** -10
        assert len(cache) == 12
        assert stub.tols == [1e-9] * 12


class TestDefaultBracket:
    def test_no_bracket_bisects_the_range_below_hopf(self, stub_search):
        c_x = 2.0 / math.sqrt(3.0) - 0.01
        stub = stub_search(lambda c, tol: 20.0 if c < c_x else 2.0)
        c_star = locate_canard_explosion(0.5)
        lo, hi = 2.0 / math.sqrt(3.0) - 0.05, 2.0 / math.sqrt(3.0) - 1e-5
        assert stub.cs[:2] == [lo, hi]
        for c in stub.cs[2:]:
            assert c == 0.5 * (lo + hi)
            lo, hi = (c, hi) if c < c_x else (lo, c)
        assert hi - lo <= 1e-7 and c_star == 0.5 * (lo + hi)
        assert len(stub.cs) == 21

    @pytest.mark.slow
    def test_no_bracket_locate_at_eps_2(self):
        # the default range straddles the explosion window at eps = 2 too
        cache = {}
        locate_canard_explosion(2.0, cache=cache)
        assert cache[2.0 / math.sqrt(3.0) - 0.05].length > 15.0
        assert cache[2.0 / math.sqrt(3.0) - 1e-5].length < 5.0

    def test_no_bracket_offset_and_c_tol_scale_below_eps_0_00222(self, stub_search):
        # at eps 1e-3, c_H - c* is 9.0e-6 < 1e-5: the upper end and c_tol
        # scale with the measured limit d = eps/(64 sqrt(3)) of c_H - c*
        eps, c_h = 1e-3, 2.0 / math.sqrt(3.0)
        d = eps / (64.0 * math.sqrt(3.0))
        stub = stub_search(lambda c, tol: 20.0 if c < c_h - d else 2.0)
        c_star = locate_canard_explosion(eps)
        lo, hi = stub.cs[:2]
        assert lo == c_h - 0.05 and hi == pytest.approx(c_h - 0.5 * d, rel=0.0, abs=1e-15)
        for c in stub.cs[2:]:
            assert c == 0.5 * (lo + hi)
            lo, hi = (c, hi) if c < c_h - d else (lo, c)
        assert 0.005 * d < hi - lo <= 0.01 * d and c_star == 0.5 * (lo + hi)

    @pytest.mark.slow
    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_no_bracket_locate_at_small_eps(self, eps):
        # (c_H - c*)/eps within 0.2% of the measured limit 1/(64 sqrt(3));
        # the fixed upper end c_H - 1e-5 lay below c* at eps 1e-3
        ratio = (2.0 / math.sqrt(3.0) - locate_canard_explosion(eps)) / eps
        assert abs(ratio * 64.0 * math.sqrt(3.0) - 1.0) < 2e-3


class TestScanSkipsFailedSearches:
    @pytest.mark.parametrize(
        "error", [ConvergedToEquilibriumError, NonFiniteError, StepSizeCollapseError]
    )
    @pytest.mark.parametrize("phase", ["deepen", "flank"])
    def test_failed_search_is_left_out(self, stub_search, error, phase):
        # the locate decides every step at 1e-9; the deepen phase then
        # searches within 1e-9 of c*, the flanks 1e-5 and more away from it
        c_x = 1.15
        failed = []

        def outcome(c, tol):
            if tol == 1e-11 and not failed and (abs(c - c_x) < 1e-8) == (phase == "deepen"):
                failed.append(c)
            if failed and c == failed[0]:
                return error(f"search at c={c!r} failed")
            return 20.0 if c < c_x else 2.0

        stub = stub_search(outcome)
        _, records = canard.explosion_scan(0.5, bracket=(1.14, 1.154))
        assert failed and failed[0] not in [r.c for r in records]
        assert stub.cs[-1] != failed[0]
        assert records


class TestScanCache:
    def test_scan_searches_each_c_and_tol_once(self, stub_search, monkeypatch):
        # an explosion 1e-8 wide at c = 1.15: the locate's last midpoints
        # fall within 1 of the threshold and are confirmed at 1e-11
        stub = stub_search(lambda c, tol: 11.0 - 9.0 * math.tanh((c - 1.15) / 1e-8))
        seen = {}

        def locate(*args, cache, **kwargs):
            c_star = locate_canard_explosion(*args, cache=cache, **kwargs)
            seen["cache"], seen["locate"] = cache, list(cache)
            return c_star

        monkeypatch.setattr(canard, "locate_canard_explosion", locate)
        _, records = canard.explosion_scan(0.5, bracket=(1.14, 1.154))
        cache = seen["cache"]
        searches = list(zip(stub.cs, stub.tols))
        assert len(set(searches)) == len(searches)
        # the loose searches are the locate's: the bracket ends, then midpoints
        loose = [c for c, tol in searches if tol == 1e-9]
        assert loose == seen["locate"]
        lo, hi = 1.14, 1.154
        assert loose[:2] == [lo, hi]
        for c in loose[2:]:
            assert c == 0.5 * (lo + hi)
            lo, hi = (c, hi) if cache[c].length >= 10.0 else (lo, c)
        assert any((c, 1e-11) in searches for c in loose)
        assert len(cache) > len(loose)
        assert records and all(r.c in cache and cache[r.c].length == r.length for r in records)


class TestScanSeed:
    # the cold seed on the attracting right branch reaches the section on the
    # relaxation cycle to within tol, so the search costs about one period;
    # at eps 0.1 the climb from x = 1.8 cost 1.20 periods
    @pytest.mark.parametrize("eps, c, periods", [pytest.param(0.5, 1.14, 1.3, id="0.5-1.14"),
                                                 pytest.param(0.1, 1.15, 1.1, id="0.1-1.15")])
    def test_relaxation_search_costs_little_more_than_a_period(self, eps, c, periods):
        lc = canard._search(c, eps, 1e-9)
        assert lc.converged and lc.stats["shots"] == 0
        period = integrate(PhasePoint(lc.x[0], lc.y[0]), SystemParams(0.0, c, eps), lc.period, tol=1e-9)
        assert lc.stats["steps"] <= periods * period.stats["steps"]

    def test_seed_lies_on_the_attracting_branch(self):
        for eps, c in [(0.5, 1.14), (0.1, 1.15), (0.5, FOLD_X - 1e-5), (2.0, 1.0)]:
            seed = dynamics._cold_seed(SystemParams(0.0, c, eps))
            assert seed.x > FOLD_X and seed.y == phi(seed.x)


class TestScanPointCount:
    @pytest.mark.parametrize("n_points", [0, 7])
    def test_fewer_than_eight_points_rejected_before_any_search(self, monkeypatch, n_points):
        # thinning keeps two records of each of the four classes, so fewer
        # than 8 points cannot be honoured
        def no_search(*args, **kwargs):
            raise AssertionError("find_limit_cycle was called")

        monkeypatch.setattr(canard, "find_limit_cycle", no_search)
        with pytest.raises(ValueError, match="n_points"):
            canard.explosion_scan(0.5, bracket=(1.14, 1.154), n_points=n_points)


# recipe brackets and the explosion values located there
_RECIPE_LOCATES = {
    0.5: ((1.14, 1.154), float.fromhex("0x1.266b7ec8b4394p+0")),
    0.1: ((1.15, 1.1547), float.fromhex("0x1.275f0e4c2f838p+0")),
}


# the converged cycles longer than LARGE_LENGTH in the caches of the recipe
# locates, c -> (period, length), as the windowed search measured them: it
# placed its section by a probe window after a 20-unit transient and recorded
# one more period once its returns agreed
_WINDOWED_LOCATE_CYCLES = {
    0.5: {
        1.14: (15.551168574148996, 21.049413894962694),
        1.1469999999999998: (16.066229955300237, 20.976334563853765),
        1.1487499999999997: (16.32432328388151, 20.933506259509098),
        1.149625: (16.58654518435278, 20.884031165577394),
        1.1500624999999998: (17.193883429489148, 20.74220476655613),
        1.1500761718749999: (17.516320029470165, 20.650084918459765),
        1.1500770263671873: (17.618526752580046, 20.618172420450023),
        1.1500774536132812: (17.73188870253115, 20.58111047232025),
        1.150077667236328: (17.89141783009407, 20.525759591383284),
        1.1500777206420896: (18.029664811446445, 20.474488443983766),
    },
    0.1: {
        1.15: (13.459434159809398, 20.173565850871434),
        1.15235: (13.657473519046178, 20.15919518210448),
        1.1535250000000001: (13.881131675585323, 20.13821461771344),
        1.1536718750000001: (13.960816861608407, 20.12929214426228),
        1.1537453125000001: (14.042831197205004, 20.119356207701582),
        1.15378203125: (14.153215936544285, 20.104915430315238),
        1.1537912109375: (14.253791981617063, 20.090826643176793),
        1.153793505859375: (14.352390694855224, 20.0762439066549),
        1.1537940795898436: (14.482847276538166, 20.055858107638826),
        1.1537941513061523: (14.759850499699837, 20.008646153934162),
    },
}


@pytest.fixture(scope="module")
def recipe_locates():
    out = {}
    for eps, (bracket, _) in _RECIPE_LOCATES.items():
        cache = {}
        out[eps] = (locate_canard_explosion(eps, bracket=bracket, cache=cache), cache)
    return out


class TestLocator:
    def test_bracket_must_straddle(self):
        with pytest.raises(BracketFailureError):
            locate_canard_explosion(0.5, bracket=(1.10, 1.12))

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            locate_canard_explosion(0.0, bracket=(1.14, 1.154))

    @pytest.mark.parametrize("bracket", [(1.2, 1.1), (math.nan, 1.1), (1.14, math.inf),
                                         (-math.inf, 1.1)])
    def test_unordered_or_infinite_bracket_rejected_before_any_search(self, monkeypatch, bracket):
        # an inverted or NaN bracket was a search failure, and an infinite
        # end ran a whole cycle search at the other end first
        def no_search(*args, **kwargs):
            raise AssertionError("find_limit_cycle was called")

        monkeypatch.setattr(canard, "find_limit_cycle", no_search)
        with pytest.raises(ValueError, match="bracket") as info:
            locate_canard_explosion(0.5, bracket=bracket)
        assert not isinstance(info.value, BracketFailureError)

    @pytest.mark.parametrize("c_tol", [0.0, -1e-7, math.nan])
    def test_rejects_non_positive_c_tol(self, c_tol):
        with pytest.raises(ValueError):
            locate_canard_explosion(0.5, bracket=(1.14, 1.154), c_tol=c_tol)

    def test_c_tol_below_float_spacing_returns(self, stub_search):
        # once lo and hi are adjacent floats the midpoint is one of them and
        # the bracket can shrink no further
        stub_search(lambda c, tol: 20.0 if c < 1.15 else 2.0)

        def timeout(_signum, _frame):
            raise TimeoutError("bisection did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(5)
        try:
            cache = {}
            c_star = locate_canard_explosion(0.5, bracket=(1.14, 1.16), c_tol=1e-17, cache=cache)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert abs(c_star - 1.15) <= math.ulp(1.15)
        assert len(cache) < 64



    @pytest.mark.slow
    @pytest.mark.parametrize("eps", sorted(_RECIPE_LOCATES))
    def test_pinned_explosion_value(self, recipe_locates, eps):
        c_star, cache = recipe_locates[eps]
        assert c_star == _RECIPE_LOCATES[eps][1]
        # the bisection premise: long cycles below c*, short ones above
        for c, lc in cache.items():
            assert (lc.length >= canard.EXPLOSION_LENGTH) == (c < c_star)

    @pytest.mark.slow
    @pytest.mark.parametrize("eps", sorted(_RECIPE_LOCATES))
    def test_relaxation_cycles_agree_with_windowed_search(self, recipe_locates, eps):
        _, cache = recipe_locates[eps]
        want = _WINDOWED_LOCATE_CYCLES[eps]
        assert sorted(c for c, lc in cache.items() if lc.length > canard.LARGE_LENGTH) == sorted(want)
        for c, (period, length) in want.items():
            assert cache[c].converged
            assert cache[c].period == pytest.approx(period, rel=1e-7, abs=0.0)
            assert cache[c].length == pytest.approx(length, rel=1e-7, abs=0.0)

    @pytest.mark.slow
    def test_canard_defining_property_at_eps_01(self, recipe_locates):
        # located canards track the repelling branch for an O(1) slow time
        eps = 0.1
        _, cache = recipe_locates[eps]
        canards = [
            lc
            for lc in cache.values()
            if classify_canard(lc) in (CanardClass.HEADLESS, CanardClass.HEADED)
        ]
        assert canards, "bisection cache should contain canard cycles"
        for lc in canards:
            assert time_near_middle_branch(lc, 5.0 * eps) >= 0.1

    @pytest.mark.slow
    @pytest.mark.parametrize("eps", sorted(_RECIPE_LOCATES))
    def test_longest_run_matches_walk_on_located_cycles(self, recipe_locates, eps):
        _, cache = recipe_locates[eps]
        for lc in cache.values():
            inside, seg = _band_segments(lc)
            assert canard._longest_run(inside, seg) == _longest_run_walk(inside, seg)

    @pytest.mark.slow
    def test_located_value_near_fold_parameter(self, recipe_locates):
        c_star, _ = recipe_locates[0.5]
        assert abs(c_star - 2.0 / math.sqrt(3.0)) <= 1.0
