import dataclasses
import hashlib
import math
import random
import signal
import sys
import time
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from fhn import _kernel, bifurcation, dynamics
from fhn.bifurcation import equilibria, homoclinic_in_b
from fhn.core import PhasePoint, SystemParams, TimeScale, phi
from fhn.dynamics import Stability, cycle_length, find_limit_cycle, find_unstable_cycle, integrate
from fhn.errors import (
    ConvergedToEquilibriumError,
    DegenerateLoopError,
    FHNError,
    IntegrationError,
    NoCycleError,
    NonFiniteError,
    StepSizeCollapseError,
)
from fhn.singular import FOLD_X, equilibrium_abscissae, relaxation_period

A_START = PhasePoint(-2.8, 1.64)


class TestIntegrate:
    def test_against_radau_oracle(self):
        params = SystemParams(0.0, 0.0, 0.5)
        tr = integrate(A_START, params, 5.0, tol=1e-10)

        def rhs(_t, u):
            x, y = u
            return [(-y + 4 * x - x**3) / 0.5, x]

        sol = solve_ivp(rhs, (0, 5.0), [-2.8, 1.64], method="Radau", rtol=1e-12, atol=1e-12)
        assert tr.x[-1] == pytest.approx(sol.y[0][-1], abs=1e-8)
        assert tr.y[-1] == pytest.approx(sol.y[1][-1], abs=1e-8)

    def test_fast_scale_matches_slow_scale_geometry(self):
        params = SystemParams(0.0, 0.0, 0.25)
        slow = integrate(A_START, params, 2.0, TimeScale.SLOW, tol=1e-10)
        fast = integrate(A_START, params, 2.0 / 0.25, TimeScale.FAST, tol=1e-10)
        assert fast.x[-1] == pytest.approx(slow.x[-1], abs=1e-7)
        assert fast.y[-1] == pytest.approx(slow.y[-1], abs=1e-7)

    def test_constant_at_stable_equilibrium(self):
        # (-2.5, 5.625) is an exact equilibrium for b=0, c=-2.5
        tol = 1e-8
        tr = integrate(PhasePoint(-2.5, 5.625), SystemParams(0.0, -2.5, 0.3), 10.0, tol=tol)
        drift = max(np.max(np.abs(tr.x + 2.5)), np.max(np.abs(tr.y - 5.625)))
        assert drift < tol * 10.0

    def test_odd_equivariance_for_c_zero(self):
        tol = 1e-9
        params = SystemParams(0.3, 0.0, 0.2)
        tr = integrate(A_START, params, 8.0, tol=tol)
        mr = integrate(A_START.mirrored(), params, 8.0, tol=tol)
        assert len(tr.t) == len(mr.t)
        mismatch = max(np.max(np.abs(tr.x + mr.x)), np.max(np.abs(tr.y + mr.y)))
        assert mismatch < 10.0 * tol

    def test_timestamps_strictly_increasing(self):
        tr = integrate(A_START, SystemParams(0.0, 0.0, 0.5), 3.0, tol=1e-8)
        assert np.all(np.diff(tr.t) > 0)
        assert np.all(np.isfinite(tr.x)) and np.all(np.isfinite(tr.y))

    def test_dense_output_spacing(self):
        tr = integrate(A_START, SystemParams(0.0, 0.0, 0.5), 3.0, tol=1e-8)
        ts, xs, ys = tr.sample_uniform(0.01)
        assert ts[0] == 0.0 and ts[-1] <= 3.0
        assert np.allclose(np.diff(ts), 0.01)
        # dense output agrees with the nodes it interpolates
        xi, yi = tr.sample(tr.t[:50])
        assert np.allclose(xi, tr.x[:50], atol=1e-12)

    def test_stiffness_robustness(self):
        # one full cycle at eps = 1e-3 without step collapse
        tr = integrate(A_START, SystemParams(0.0, 0.0, 1e-3), 7.0, tol=1e-8)
        assert tr.t[-1] == pytest.approx(7.0)

    def test_nonfinite_backward_blowup(self):
        case = (PhasePoint(3.0, 0.0), SystemParams(0.0, 0.0, 0.5), 50.0, TimeScale.SLOW, 1e-8, -1, 1e4)
        with pytest.raises(NonFiniteError) as info:
            integrate(*case)
        assert info.value.last_state is not None
        assert info.value.trajectory is not None
        assert _outcome(lambda: integrate(*case)) == _outcome(lambda: _loop_integrate(*case))

    def test_step_collapse_carries_partial_trajectory(self):
        # the reversed field blows up from far right in t ~ eps/(2 x^2), which
        # falls below the step floor long before |x| reaches max_norm
        case = (PhasePoint(9220.0, -1.5), SystemParams(0.3, 1.0, 0.065), 1.0, TimeScale.SLOW, 1e-8, -1)
        with pytest.raises(StepSizeCollapseError) as info:
            integrate(*case)
        tr, last = info.value.trajectory, info.value.last_state
        assert len(tr.t) == tr.stats["steps"] + 1 > 1
        assert tr.t[-1] < 1e-9 and tr.x[-1] > 9220.0
        assert (last.x, last.y) == (tr.x[-1], tr.y[-1])
        assert _outcome(lambda: integrate(*case)) == _outcome(lambda: _loop_integrate(*case))

    def test_singular_stage_matrix_halvings_are_rejections(self):
        # at eps 1e-300 the stage matrix's determinant overflows for every
        # step size down to the floor: each halving is a rejected step
        case = (PhasePoint(1.0, 0.0), SystemParams(0.0, 0.0, 1e-300), 1.0)
        with pytest.raises(StepSizeCollapseError) as info:
            integrate(*case)
        assert info.value.trajectory.stats == {"steps": 0, "rejected": 17, "tol": 1e-8}
        assert _outcome(lambda: integrate(*case)) == _outcome(lambda: _loop_integrate(*case))

    def test_reject_budget_raises_after_its_last_rejection(self, monkeypatch):
        # a budget of one rejection: the first rejected step ends the run,
        # with the nodes accepted before it
        monkeypatch.setattr(dynamics, "_MAX_REJECTS", 1)
        case = (PhasePoint(2.0, 50.0), SystemParams(0.0, 0.0, 0.01), 1.0, TimeScale.SLOW, 1e-12)
        with pytest.raises(StepSizeCollapseError, match="repeatedly rejected") as info:
            integrate(*case)
        assert info.value.trajectory.stats == {"steps": 764, "rejected": 1, "tol": 1e-12}
        assert _outcome(lambda: integrate(*case)) == _outcome(lambda: _loop_integrate(*case))

    def test_remainder_below_step_floor_is_arrival(self):
        # the step clamped to t_end starts before t_end/2, so t + (t_end - t)
        # rounds one ulp short of t_end and leaves a 1.8e-15 remainder
        eps = 0.06259109776238546
        case = (PhasePoint(2.18926814628873, 1.9440297015291357),
                SystemParams(0.2269600165782012, 1.278973788889993, eps), 1.0 / eps, TimeScale.FAST, 1e-6)
        tr = integrate(*case)
        assert tr.t[-1] == case[2]
        assert np.all(np.diff(tr.t) > 0)
        assert tr.stats["steps"] == len(tr.t) - 1
        assert _outcome(lambda: integrate(*case)) == _outcome(lambda: _loop_integrate(*case))

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_t_end_that_never_ends_a_run(self, t_end):
        # with no stop, nan and inf ran until killed: no step was clamped to
        # them and no remainder fell below the step floor; sections do not
        # make them an end
        for sections in ((), (1.5,)):
            with pytest.raises(ValueError, match="t_end"):
                integrate(PhasePoint(1.0, 0.0), SystemParams(0.0, 0.0, 0.1), t_end, sections=sections)

    def test_parked_run_ends_at_largest_finite_t_end(self):
        # on an equilibrium err == 0 grows the step x6 per step, and the step
        # clamped to a finite t_end keeps t finite: the run arrives
        tr = integrate(PhasePoint(0.5, 1.875), SystemParams(0.0, 0.5, 0.1), sys.float_info.max)
        assert tr.t[-1] == sys.float_info.max
        assert tr.stats["rejected"] == 0 and np.all(np.diff(tr.t) > 0)

    @pytest.mark.parametrize("dt", [math.nan, 0.0, -0.1, math.inf])
    def test_sample_uniform_rejects_spacing_not_positive(self, dt):
        tr = integrate(A_START, SystemParams(0.0, 0.0, 0.5), 1.0)
        with pytest.raises(ValueError, match="dt"):
            tr.sample_uniform(dt)

    def test_tol_bounds_enforced(self):
        with pytest.raises(ValueError):
            integrate(A_START, SystemParams(0.0, 0.0, 0.5), 1.0, tol=1e-13)
        with pytest.raises(ValueError):
            integrate(A_START, SystemParams(0.0, 0.0, 0.0), 1.0)


class TestFindLimitCycle:
    def test_relaxation_cycle_near_singular_period(self):
        lc = find_limit_cycle(SystemParams(0.0, 0.0, 0.1), A_START, tol=1e-10)
        t0 = relaxation_period(SystemParams(0.0, 0.0, 0.0))
        assert lc.stability is Stability.STABLE
        assert lc.converged
        assert 0.0 < lc.period - t0 < 1.5  # T(eps) = T(0) + O(eps), from above

    def test_cycle_closure(self):
        lc = find_limit_cycle(SystemParams(0.0, 0.0, 0.1), A_START, tol=1e-10)
        assert abs(lc.x[0] - lc.x[-1]) < 1e-6
        assert abs(lc.y[0] - lc.y[-1]) < 1e-6

    def test_stable_cycle_exists_near_fold_parameter(self):
        lc = find_limit_cycle(SystemParams(0.0, 1.152, 0.5), A_START, tol=1e-10)
        assert lc.period > 0 and lc.length > 0

    def test_converges_to_equilibrium_beyond_fold_parameter(self):
        with pytest.raises(ConvergedToEquilibriumError):
            find_limit_cycle(SystemParams(0.0, 1.3, 0.5), A_START, tol=1e-9)

    def test_equivariance_of_mirrored_seeds(self):
        params = SystemParams(0.2, 0.0, 0.1)
        lc1 = find_limit_cycle(params, A_START, tol=1e-10)
        lc2 = find_limit_cycle(params, A_START.mirrored(), tol=1e-10)
        assert lc1.period == pytest.approx(lc2.period, rel=1e-6)
        assert lc1.length == pytest.approx(lc2.length, rel=1e-6)

    def test_period_reported_in_slow_time(self):
        # relaxation period is O(relaxation_period), not its 1/eps multiple
        lc = find_limit_cycle(SystemParams(0.0, 0.0, 0.5), A_START, tol=1e-9)
        assert 5.0 < lc.period < 12.0

    def test_period_convergence_rate(self):
        periods = {
            eps: find_limit_cycle(SystemParams(0.0, 0.0, eps), A_START, tol=1e-10).period
            for eps in (0.1, 0.05, 0.025)
        }
        d1 = periods[0.1] - periods[0.05]
        d2 = periods[0.05] - periods[0.025]
        assert 1.5 <= d1 / d2 <= 2.5

    def test_rejects_singular_params(self):
        # also without a seed, whose default start needs eps > 0
        for seed in (A_START, None):
            with pytest.raises(ValueError):
                find_limit_cycle(SystemParams(0.0, 0.0, 0.0), seed)

    @pytest.mark.parametrize("tol", [0.0, 1e-13, 1e-2])
    def test_rejects_tol_outside_range(self, tol):
        # tol = 0 used to divide by zero in the first step
        with pytest.raises(ValueError):
            find_limit_cycle(SystemParams(0.0, 0.0, 0.1), A_START, tol=tol)

    @pytest.mark.parametrize("direction", ["backwards", "Forward", "reverse", ""])
    def test_rejects_unknown_direction(self, direction):
        # the search runs forward only: it takes no direction (any value but
        # "forward" once searched backward for an unstable cycle)
        with pytest.raises(TypeError):
            find_limit_cycle(SystemParams(0.0, 0.0, 0.1), A_START, direction=direction)

    @pytest.mark.parametrize("max_periods", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_max_periods_not_finite_positive(self, max_periods):
        # every search spends one budget, `dynamics._PERIODS` estimated
        # periods, and takes no `max_periods`, whatever its value
        with pytest.raises(TypeError):
            find_limit_cycle(SystemParams(0.0, 0.0, 0.1), A_START, max_periods=max_periods)

    @pytest.mark.parametrize("bce", [(0.0, 1.14, 0.5), (0.3, 0.0, 0.5)])
    def test_default_seed_is_the_cold_seed(self, bce):
        params = SystemParams(*bce)
        got = find_limit_cycle(params, tol=1e-9)
        want = find_limit_cycle(params, dynamics._cold_seed(params), tol=1e-9)
        assert got.converged
        for name, value in vars(want).items():
            if isinstance(value, np.ndarray):
                assert getattr(got, name).tobytes() == value.tobytes(), name
            else:
                assert getattr(got, name) == value, name

    def test_relaxation_cycle_at_eps_1e6_within_2k_steps(self):
        # the small-eps regime stays covered: 1,434 steps from the attracting
        # right branch
        lc = find_limit_cycle(SystemParams(0.0, 0.0, 1e-6), PhasePoint(1.8, phi(1.8)), tol=1e-8)
        assert lc.converged and lc.stats["steps"] < 2000

    def test_failed_run_counts_reach_the_search_stats(self):
        # the transient from the seed leaves |u| <= 1e6 before it closes: the
        # search's stats are that run's own counts, added by `_shoot` on the
        # way out, with no shot taken
        with pytest.raises(NonFiniteError) as info:
            find_limit_cycle(SystemParams(-1.0, 0.0, 0.5), PhasePoint(-2.8, 1.64), tol=1e-9)
        run = info.value.trajectory
        assert info.value.stats == {"steps": 7183, "rejected": 5, "tol": 1e-9, "shots": 0}
        assert (run.stats["steps"], run.stats["rejected"]) == (7183, 5)

    def test_search_parked_on_focus_raises_instead_of_spinning(self, monkeypatch):
        # returns converge onto the stable focus, where err == 0 lets the step
        # grow without bound; the run ends at its finite budget, and the
        # extent of its last window names the equilibrium
        monkeypatch.setattr(dynamics, "_PERIODS", 30.0)

        def timeout(_signum, _frame):
            raise TimeoutError("cycle search did not return within 30 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(30)
        try:
            t0 = time.perf_counter()
            with pytest.raises(ConvergedToEquilibriumError):
                find_limit_cycle(SystemParams(0.0, 1.159871739811375, 0.5),
                                 PhasePoint(1.0120767205491101, 3.11494624131724), tol=1e-9)
            assert time.perf_counter() - t0 < 10.0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestSearchPins:
    """Every exit of the Newton search on the return map to a half-line above
    an equilibrium, recorded bit for bit: from a seed (the stable search),
    and from the bracket inside the stable loop (the unstable search), as a
    sweep row runs them.  A failure is pinned by type only."""

    # (b, c, eps), seed, kind ("stable", or "unstable": the cycle inside the
    # stable loop from the seed), tol, the stable search's budget in
    # estimated periods (None: `dynamics._PERIODS`; 30 was a sweep row's
    # when these were recorded, and the pins keep it), then
    # period.hex(), length.hex(), converged, return_gap.hex() and the sha256
    # of the bytes of t, x and y
    CYCLES = {
        "converged_forward": (
            (0.0, 1.1500794291496277, 0.5), (-2.8, 1.64), "stable", 1e-9, None,
            "0x1.06bcdbdd94e41p+3", "0x1.b000eee0c38f0p+1", True, "0x1.5cc8000000000p-36",
            "c2d894bd1e3d130335e11967bb3eb038563818bb21c0b81055203df4dc282537"),
        # the unstable cycle beside the homoclinic, once found by a backward
        # search (hence the name)
        "converged_backward": (
            (0.3692, 0.0, 0.5), (-2.8, 1.64), "unstable", 1e-9, 30,
            "0x1.b51350328515ep+2", "0x1.eda9e5db19927p+0", True, "0x1.f5afa00000000p-32",
            "1a3e185e2c2878c16512b210dce093e4112fe862a0b31a70f492725d35718dd9"),
    }

    # (b, c, eps), seed, kind, tol, budget, exception type
    FAILURES = {
        "no_crossings": (
            (0.0, 2.991964721516804, 1.0), (2.0187687076463323, -0.2837614956079806), "stable",
            1e-10, 30, NoCycleError),
        # the extent of the last 10 time units of a run that closes no loop:
        # on a seed that is an equilibrium (also with a budget of exactly 10
        # time units), on a stable node approached without a return, and on
        # a strongly damped stable focus, whose returns shrink a thousandfold
        # per turn
        "seed_on_equilibrium": (
            (0.0, -2.5, 0.3), (-2.5, 5.625), "stable", 1e-9, 30, ConvergedToEquilibriumError),
        "seed_on_equilibrium_one_window": (
            (0.0, -2.5, 0.3), (-2.5, 5.625), "stable", 1e-9, 1.0, ConvergedToEquilibriumError),
        "parked_on_node": (
            (0.0, 1.236757228580831, 0.05), (-2.40420244667499, 4.56561500213391), "stable",
            1e-10, 30, ConvergedToEquilibriumError),
        "parked_in_returns": (
            (0.0, 1.3, 0.5), (-2.8, 1.64), "stable", 1e-9, 30, ConvergedToEquilibriumError),
        # above c_H: returns that fall geometrically into the stable focus,
        # until a Newton shot closes a loop below the extent test; the
        # windowed search took them for an unconverged cycle
        "unconverged_forward": (
            (0.0, 1.1575466083772035, 0.5), (1.1561467535659298, 3.009144956698317), "stable",
            1e-9, 30, ConvergedToEquilibriumError),
    }

    # (accepted steps, rejected steps, Newton shots after the first return)
    # of every exit above; the unstable search's counts are its shots' alone
    STATS = {
        "converged_forward": (1883, 11, 1),
        "unconverged_forward": (325, 6, 4),
        "converged_backward": (5467, 43, 14),
        "no_crossings": (1377, 0, 0),
        "seed_on_equilibrium": (8, 0, 0),
        "seed_on_equilibrium_one_window": (7, 0, 0),
        "parked_on_node": (4207, 6, 0),
        "parked_in_returns": (1101, 6, 1),
    }

    @staticmethod
    def _search(bce, seed, kind, tol, periods):
        params = SystemParams(*bce)
        with pytest.MonkeyPatch.context() as mp:
            if periods is not None:
                mp.setattr(dynamics, "_PERIODS", periods)
            lc = find_limit_cycle(params, PhasePoint(*seed), tol=tol)
        return lc if kind == "stable" else find_unstable_cycle(params, lc, tol)

    @pytest.mark.parametrize("case", sorted(CYCLES))
    def test_cycle(self, case):
        *search, period, length, converged, gap, digest = self.CYCLES[case]
        lc = self._search(*search)
        assert lc.period.hex() == period
        assert lc.length.hex() == length
        assert lc.converged is converged
        assert lc.return_gap.hex() == gap
        assert hashlib.sha256(np.concatenate([lc.t, lc.x, lc.y]).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_failure(self, case):
        *search, exc_type = self.FAILURES[case]
        with pytest.raises(exc_type):
            self._search(*search)

    # period and length of the two converged cycles as the windowed search
    # measured them (it placed its section by a probe window after a 20-unit
    # transient and recorded one more period once its returns agreed): a
    # canard-window cycle and an unstable cycle beside the homoclinic, whose
    # loops a 1e-8 return gap leaves uncertain by a few 1e-6
    WINDOWED = {
        "converged_forward": (8.210554162220888, 3.375028558422499),
        "converged_backward": (6.829303209005531, 1.9283733835283619),
    }

    @pytest.mark.parametrize("case", sorted(WINDOWED))
    def test_converged_cycle_agrees_with_windowed_search(self, case):
        lc = self._search(*self.CYCLES[case][:5])
        period, length = self.WINDOWED[case]
        assert lc.period == pytest.approx(period, rel=2e-5, abs=0.0)
        assert lc.length == pytest.approx(length, rel=2e-5, abs=0.0)

    @pytest.mark.parametrize("case", sorted(STATS))
    def test_stats(self, case):
        # the loop and every search failure carry the stepper's counts and
        # the number of Newton shots
        if case in self.CYCLES:
            search = self.CYCLES[case][:5]
            stats = self._search(*search).stats
        else:
            search = self.FAILURES[case][:5]
            with pytest.raises(FHNError) as info:
                self._search(*search)
            stats = info.value.stats
        steps, rejected, shots = self.STATS[case]
        assert stats == {"steps": steps, "rejected": rejected, "tol": search[3], "shots": shots}

    def test_every_run_goes_through_integrate(self, monkeypatch):
        # the searches and the homoclinic locate take every step in calls of
        # `integrate`, so the counts of those calls are the results' stats
        counted = Counter()
        real = dynamics.integrate

        def counting(*args, **kwargs):
            tr = real(*args, **kwargs)
            counted.update({key: tr.stats[key] for key in ("steps", "rejected")})
            return tr

        def check(stats):
            assert dict(counted) == {"steps": stats["steps"], "rejected": stats["rejected"]}
            assert stats["steps"] > 0
            counted.clear()

        monkeypatch.setattr(dynamics, "integrate", counting)
        bce, seed, _, tol, periods = self.CYCLES["converged_backward"][:5]
        params = SystemParams(*bce)
        outer = self._search(bce, seed, "stable", tol, periods)
        check(outer.stats)
        check(find_unstable_cycle(params, outer, tol).stats)
        check(homoclinic_in_b(0.5).orbit.stats)
        with pytest.raises(ConvergedToEquilibriumError) as info:
            self._search(*self.FAILURES["parked_on_node"][:5])
        check(info.value.stats)


def _sample_by_clip(tr, ts):
    # the dense output `Trajectory.sample` gave with a clipped index and one
    # `_hermite` call per component, kept as the reference for its bits
    ts = np.asarray(ts, dtype=float)
    idx = np.clip(np.searchsorted(tr.t, ts, side="right") - 1, 0, len(tr.t) - 2)
    h = tr.t[idx + 1] - tr.t[idx]
    s = np.where(h > 0.0, (ts - tr.t[idx]) / np.where(h > 0.0, h, 1.0), 0.0)
    xs = dynamics._hermite(s, tr.x[idx], tr.x[idx + 1], tr.dx[idx], tr.dx[idx + 1], h)
    ys = dynamics._hermite(s, tr.y[idx], tr.y[idx + 1], tr.dy[idx], tr.dy[idx + 1], h)
    return xs, ys


def _probe_times(t):
    # outside both ends, on every node, halfway between nodes and at random
    rng = np.random.default_rng(7)
    span = t[-1] - t[0]
    return np.concatenate([
        [t[0] - 1.0, t[0] - 1e-300, t[-1] + 1e-9, t[-1] + 2.5],
        t,
        0.5 * (t[:-1] + t[1:]),
        rng.uniform(t[0] - 0.1 * span, t[-1] + 0.1 * span, 500),
    ])


class TestDenseOutput:
    @pytest.mark.parametrize("start, scale, direction, t_end", [
        (A_START, TimeScale.SLOW, 1, 5.0),
        (PhasePoint(0.3, 0.2), TimeScale.SLOW, -1, 1.0),
        (A_START, TimeScale.FAST, 1, 8.0),
    ])
    def test_bitwise_equal_to_clipped_index_reference(self, start, scale, direction, t_end):
        tr = integrate(start, SystemParams(0.2, 0.3, 0.1), t_end, scale, tol=1e-9,
                       direction=direction)
        assert len(tr.t) > 10
        ts = _probe_times(tr.t)
        for got, want in zip(tr.sample(ts), _sample_by_clip(tr, ts)):
            assert got.tobytes() == want.tobytes()

    def test_one_node_run_returns_its_node(self):
        with pytest.raises(StepSizeCollapseError) as info:
            integrate(PhasePoint(2e8, 0.0), SystemParams(0.0, 0.0, 0.1), 1.0)
        tr = info.value.trajectory
        assert len(tr.t) == 1
        ts = np.array([-1.0, 0.0, 0.5, 1.0])
        xs, ys = tr.sample(ts)
        assert xs.tolist() == [2e8] * 4 and ys.tolist() == [0.0] * 4
        for got, want in zip((xs, ys), _sample_by_clip(tr, ts)):
            assert got.tobytes() == want.tobytes()

    def test_two_node_run_extrapolates_with_its_cubic(self):
        tr = dynamics.Trajectory(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([2.0, 3.0]),
                                 np.array([1.0, 1.0]), np.array([0.0, 0.0]), 1)
        ts = np.array([-0.5, 0.0, 0.5, 1.0, 1.5])
        xs, _ = tr.sample(ts)
        assert xs.tolist() == [-0.5, 0.0, 0.5, 1.0, 1.5]
        for got, want in zip(tr.sample(ts), _sample_by_clip(tr, ts)):
            assert got.tobytes() == want.tobytes()


class TestHalfLineSection:
    """Every loop starts on the half-line {x = x_eq, y > y_eq} above an
    equilibrium, which the flow crosses leftward only, and closes there."""

    SEARCHES = {
        "one_equilibrium": ((0.0, 0.0, 0.1), (-2.8, 1.64), "stable"),
        "three_enclosed": ((0.3, 0.0, 0.5), (-2.8, 1.64), "stable"),
        # the upper end c_H - 1e-5 of the default canard bracket, where the
        # return iteration ended unconverged, and a cycle where it restarted
        "near_hopf_unconverged": ((0.0, 2.0 / math.sqrt(3.0) - 1e-5, 0.5), (-2.8, 1.64), "stable"),
        "near_hopf_restarted": ((0.0, 1.152, 0.5), (-2.8, 1.64), "stable"),
        "around_e_plus": ((0.3692, 0.0, 0.5), (-2.8, 1.64), "unstable"),
    }

    @pytest.mark.parametrize("case", sorted(SEARCHES))
    def test_loop_starts_on_a_half_line(self, case):
        bce, seed, kind = self.SEARCHES[case]
        lc = TestSearchPins._search(bce, seed, kind, 1e-9, None)
        assert lc.section_x in [x for x, _ in equilibrium_abscissae(SystemParams(*bce))]
        assert abs(lc.x[0] - lc.section_x) <= 1e-12
        assert lc.y[0] > phi(lc.section_x)
        # it ends on its return, return_gap from its start
        assert abs(lc.x[-1] - lc.section_x) <= 1e-12
        assert abs(abs(lc.y[-1] - lc.y[0]) - lc.return_gap) <= 1e-12
        if case.startswith("near_hopf"):
            # weakly contracting: Newton shots after the first return, a
            # multiplier below 1, and a converged loop
            assert lc.stats["shots"] >= 1 and lc.converged
            assert 0.5 < lc.multiplier < 1.0 and lc.stability is Stability.STABLE

    @pytest.mark.parametrize("b, eps", [(0.2501, 0.5), (0.25001, 0.1), (0.2501, 0.01)])
    def test_step_across_several_half_lines_closes_on_the_rightmost(self, b, eps):
        # beside the pitchfork E- and E+ lie within 0.04 of the origin, so
        # one leftward step can cross all three half-lines; it crosses the
        # one above E+ first, and the loop closes there
        params = SystemParams(b, 0.0, eps)
        lc = find_limit_cycle(params, A_START, tol=1e-6)
        assert lc.section_x == max(x for x, _ in equilibrium_abscissae(params)) > 0.0

    def test_seeds_inside_and_outside_the_cycle_agree(self):
        # the origin, an unstable node, lies inside the relaxation cycle, and
        # x = -2.8 lies left of it
        params = SystemParams(0.0, 0.0, 0.5)
        outside = find_limit_cycle(params, A_START, tol=1e-10)
        inside = find_limit_cycle(params, PhasePoint(0.1, 0.1), tol=1e-10)
        assert outside.converged and inside.converged
        assert inside.period == pytest.approx(outside.period, rel=1e-7, abs=0.0)
        assert inside.length == pytest.approx(outside.length, rel=1e-7, abs=0.0)

    @staticmethod
    def _step(*nodes, direction=1):
        """A trajectory of the (t, x, y, dx, dy) `nodes`, run in `direction`."""
        return dynamics.Trajectory(*(np.array(a) for a in zip(*nodes)), direction)

    def test_helper_takes_one_direction_above_the_equilibrium(self):
        # steps across x = 1 at y = 2, leftward and rightward
        leftward = ((0.0, 1.5, 2.0, -10.0, 0.0), (0.1, 0.5, 2.0, -10.0, 0.0))
        rightward = ((0.0, 0.5, 2.0, 10.0, 0.0), (0.1, 1.5, 2.0, 10.0, 0.0))
        left, right = self._step(*leftward), self._step(*rightward)
        t, y = left.crossing(1, 1.0, 1.0)
        assert t == pytest.approx(0.05, abs=1e-15) and y == pytest.approx(2.0, abs=1e-15)
        assert right.crossing(1, 1.0, 1.0) is None
        # a time-reversed run crosses rightward
        t, y = self._step(*rightward, direction=-1).crossing(1, 1.0, 1.0)
        assert t == pytest.approx(0.05, abs=1e-15) and y == pytest.approx(2.0, abs=1e-15)
        assert self._step(*leftward, direction=-1).crossing(1, 1.0, 1.0) is None
        # a step that starts on the line crosses nothing
        on_line = self._step((0.1, 0.5, 2.0, -10.0, 0.0), (0.2, 1.0, 2.0, -10.0, 0.0))
        assert on_line.crossing(1, 0.5, 1.0) is None
        # the crossing lies below the equilibrium at y_eq = 2.5
        assert left.crossing(1, 1.0, 2.5) is None
        # node 0 ends no step; -1 is the last step
        assert left.crossing(-1, 1.0, 1.0) == left.crossing(1, 1.0, 1.0)
        with pytest.raises(IndexError):
            left.crossing(0, 1.0, 1.0)


class TestSections:
    """`integrate` ends a run at the second crossing, in the run's sense, of
    one of its sections with none of a section before it in between."""

    RELAXATION = SystemParams(0.0, 0.0, 0.1)
    # leftward from x = -1 onto the left branch, then once round the cycle:
    # its leftward jump crosses x = 1, then x = -1
    START = PhasePoint(-1.0, 0.0)

    @staticmethod
    def _assert_closes_at_crossings(tr, x_s):
        j, first, second = tr.closing
        assert second == len(tr.t) - 1
        for node in (first, second):
            assert node == 0 or tr.crossing(node, x_s, -math.inf) is not None

    def test_start_on_counts_the_start_as_a_crossing(self):
        on = integrate(self.START, self.RELAXATION, 50.0, sections=(-1.0,), start_on=0)
        off = integrate(self.START, self.RELAXATION, 50.0, sections=(-1.0,))
        assert on.closing[:2] == (0, 0)
        # the same steps: the first run ends where the second counts its first crossing
        assert off.closing == (0, on.closing[2], len(off.t) - 1)
        assert np.array_equal(off.x[:len(on.x)], on.x)
        self._assert_closes_at_crossings(on, -1.0)
        self._assert_closes_at_crossings(off, -1.0)

    def test_crossing_of_outer_section_voids_inner_count(self):
        # the jump crosses x = 1 before it returns to x = -1, so the start's
        # count on x = -1 is void and the run closes on x = 1, whichever
        # order the sections come in
        for sections, outer in (((-1.0, 1.0), 1), ((1.0, -1.0), 0)):
            tr = integrate(self.START, self.RELAXATION, 50.0, sections=sections,
                           start_on=1 - outer)
            assert tr.closing[0] == outer and tr.closing[1] > 0
            self._assert_closes_at_crossings(tr, 1.0)

    def test_backward_run_closes_rightward(self):
        # from beside the focus E+ backward onto the unstable cycle around it
        params = SystemParams(0.3692, 0.0, 0.5)
        e_plus = max(equilibria(params), key=lambda e: e.point.x).point
        tr = integrate(PhasePoint(e_plus.x + 1e-3, e_plus.y), params, 120.0, tol=1e-9,
                       direction=-1, sections=(e_plus.x,))
        _, first, second = tr.closing
        for node in (first, second):
            assert tr.x[node - 1] < e_plus.x < tr.x[node]
        self._assert_closes_at_crossings(tr, e_plus.x)

    def test_run_without_sections_reaches_t_end(self):
        tr = integrate(self.START, self.RELAXATION, 20.0)
        assert tr.closing is None and tr.t[-1] == 20.0

    @pytest.mark.parametrize("sections, start_on", [((), 0), ((-1.0,), 1), ((-1.0,), -1)])
    def test_start_on_must_index_a_section(self, sections, start_on):
        with pytest.raises(ValueError, match="start_on"):
            integrate(self.START, self.RELAXATION, 1.0, sections=sections, start_on=start_on)


class TestReturnExtrapolation:
    """Near-Hopf cycles, whose returns shrink slowly, converge within the
    default budget (the return iteration needed restarts at the Aitken limit
    of its returns for them); Newton takes a few shots."""

    # eps, c, then period and length of the cycle from (-2.8, 1.64) at tol
    # 1e-11 and a budget of 2000 periods by the return iteration without
    # restarts, run until its returns agreed (68k to 209k steps)
    REFERENCES = [
        (0.1, 1.1543405742339203, 2.147282229710868, 0.2806080862560973),
        (0.1, 1.1546091066245199, 2.0219427824424656, 0.13112043369957294),
        (0.5, 1.1543938006271288, 4.494645799745285, 0.2920485673360468),
        (0.5, 1.154, 4.56564139730699, 0.4508458383745775),
    ]

    @pytest.mark.parametrize("eps, c, period, length", REFERENCES)
    def test_near_hopf_cycle_converges_within_default_budget(self, eps, c, period, length):
        lc = find_limit_cycle(SystemParams(0.0, c, eps), A_START, tol=1e-11)
        assert lc.converged and lc.stats["shots"] >= 1
        # a return gap of 1e-8 leaves a weakly contracting cycle uncertain by
        # gap / (1 - P'), P' the return map's slope
        assert lc.period == pytest.approx(period, rel=1e-5, abs=0.0)
        assert lc.length == pytest.approx(length, rel=2e-4, abs=0.0)

    # below c_H a small stable cycle surrounds the weak focus; once the
    # returns step by about 1e-7, tolerance noise set a lone step ratio
    # (0.99932 then 0.999998 at eps 0.1) whose limit lay below the focus
    @pytest.mark.parametrize("eps, c, tol, periods", [(0.5, 1.15469, 1e-9, 30.0),
                                                      (0.1, 1.1547, 1e-11, 50.0)])
    def test_unsteady_ratio_near_weak_focus_is_no_equilibrium(self, monkeypatch, eps, c, tol, periods):
        monkeypatch.setattr(dynamics, "_PERIODS", periods)
        try:
            find_limit_cycle(SystemParams(0.0, c, eps), A_START, tol=tol)
        except FHNError as exc:
            assert not isinstance(exc, ConvergedToEquilibriumError), exc

    # 1e-7 below c_H the focus repels and a stable cycle of L about 0.004
    # surrounds it, but d inside that cycle is below the tol noise, so Newton
    # falls through it onto the focus: the extent certificate fires there,
    # and names no cycle, not a convergence to the equilibrium
    @pytest.mark.parametrize("eps, message", [(0.2, "shots converged onto a point"),
                                              (1.0, "shots converged onto a point"),
                                              (2.0, "shots converged onto a point")])
    def test_extent_beside_repelling_focus_is_no_cycle(self, eps, message):
        c = 2.0 / math.sqrt(3.0) - 1e-7
        assert (4.0 - 3.0 * c * c) / eps > 0.0
        with pytest.raises(NoCycleError, match=message) as info:
            find_limit_cycle(SystemParams(0.0, c, eps), A_START, tol=1e-9)
        assert "repels" in str(info.value) and info.value.stats["steps"] > 0

    def test_run_parked_on_repelling_equilibrium_is_no_cycle(self):
        # a seed on the origin, an unstable node, never leaves it: the run's
        # last window has no extent, and the equilibrium there repels
        with pytest.raises(NoCycleError, match="parked") as info:
            find_limit_cycle(SystemParams(0.0, 0.0, 0.1), PhasePoint(0.0, 0.0), tol=1e-9)
        assert "repels" in str(info.value) and info.value.stats["steps"] > 0


class TestNewtonOnReturnMap:
    """The one search: Newton's method on d(y) = P(y) - y, with P' from the
    divergence integral along each run."""

    def test_slope_matches_central_difference(self):
        # P'(y) = (y - y_eq)/(P(y) - y_eq) exp(integral of div F dt) against
        # (P(y + h) - P(y - h))/2h, each P(y) one shot of the search
        params = SystemParams(0.0, 1.154, 0.5)
        x_eq = equilibrium_abscissae(params)[0][0]
        y_eq = phi(x_eq)

        def shot(y):
            tr = integrate(PhasePoint(x_eq, y), params, 50.0, tol=1e-12,
                           sections=(x_eq,), start_on=0)
            t_c, y_c = tr.crossing(-1, x_eq, y_eq)
            return tr, t_c, y_c

        y, h = y_eq + 0.05, 1e-5
        tr, t_c, y_c = shot(y)
        slope = (y - y_eq) / (y_c - y_eq) * math.exp(dynamics._divergence(tr, 0.0, t_c, params))
        central = (shot(y + h)[2] - shot(y - h)[2]) / (2.0 * h)
        assert slope == pytest.approx(0.92403905, abs=1e-7)
        assert slope == pytest.approx(central, abs=1e-7)

    def test_divergence_rule_integrates_part_steps(self):
        # x(t) = t on nodes 0, 1, 2 (dx = 1): the Hermite interpolant is
        # exact, and the integral of 4 - 3 t^2 over [0.5, 1.5] is 4 - 3.25
        tr = dynamics.Trajectory(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]), np.zeros(3),
                                 np.ones(3), np.zeros(3), 1)
        got = dynamics._divergence(tr, 0.5, 1.5, SystemParams(0.25, 0.0, 0.5))
        assert got == pytest.approx((4.0 - 3.25) / 0.5 - 0.25 * 1.0, abs=1e-14)

    # c-sweep row 32 of perfbench `diagram` seeds 12, 28, 32, 36 and 40 (eps
    # 0.5, only an unstable focus): c, the previous row's loop start, and T of
    # the cycle at tol 1e-11; the return iteration raised NoCycleError after
    # 4.0k-4.4k steps and 4-9 restarts
    DIAGRAM_ROWS = [
        (1.154117099474389, (1.1526923263783437, 3.141170778902757), 4.5439491976),
        (1.1541986481929447, (1.1526313146828417, 3.1416691068370866), 4.5291417561),
        (1.1543638874816162, (1.1526649360309758, 3.141396813110025), 4.4998488661),
        (1.1542279796733594, (1.152592038357722, 3.1419802004505315), 4.5238736281),
        (1.1542586182689794, (1.1524051761017324, 3.143363351822926), 4.5184027266),
    ]

    @pytest.mark.parametrize("c, seed, period", DIAGRAM_ROWS)
    def test_diagram_row_beside_hopf_converges(self, c, seed, period):
        lc = find_limit_cycle(SystemParams(0.0, c, 0.5), PhasePoint(*seed), tol=1e-9)
        assert lc.converged and lc.stability is Stability.STABLE
        assert lc.period == pytest.approx(period, rel=1e-6, abs=0.0)

    # loops whose length moves far more than their start: a canard at eps 0.5
    # (P' = 3.4e-6), where starts 1e-8 below and above the fixed point give
    # L = 4.995 and 20.414; a canard at eps 0.1, whose T moves by 0.0185 when
    # the start moves by 2.6e-8; and a cycle beside the Hopf point at eps 0.1
    # (P' = 0.99993), T 1.987115320 and L 0.00986.  References at tol 1e-12
    # by Newton until its step was below 1e-11; searches at the canard
    # locate's tol 1e-11
    def test_canard_loop_does_not_depend_on_the_seed(self):
        params = SystemParams(0.0, 1.1500777431726452, 0.5)
        near = find_limit_cycle(SystemParams(0.0, 1.15008, 0.5), A_START, tol=1e-11)
        for seed in (A_START, PhasePoint(near.x[0], near.y[0])):
            lc = find_limit_cycle(params, seed, tol=1e-11)
            assert lc.converged and lc.length == pytest.approx(5.914, abs=0.01)

    def test_canard_loop_period_at_eps_01(self):
        lc = find_limit_cycle(SystemParams(0.0, 1.153794366455078, 0.1), A_START, tol=1e-11)
        assert lc.converged and lc.period == pytest.approx(3.632334626, abs=1e-6)

    def test_small_cycle_beside_hopf_at_eps_01(self):
        lc = find_limit_cycle(SystemParams(0.0, 1.1547, 0.1), A_START, tol=1e-11)
        assert lc.length == pytest.approx(0.00986, rel=0.01)
        assert 0.9999 < lc.multiplier < 1.0


class TestColdSeed:
    """The cold start of a search: the point on the attracting right branch
    from which the climb to the fold contracts by e^27."""

    @pytest.mark.parametrize("b, c, eps", [(0.0, 1.14, 0.5), (0.0, 1.15, 0.1), (0.0, 1.14, 1.0),
                                           (0.24, 0.0, 0.5), (0.3, 0.0, 2.0), (0.0, FOLD_X - 1e-5, 0.5)])
    def test_climb_contracts_by_e27(self, b, c, eps):
        params = SystemParams(b, c, eps)
        seed = dynamics._cold_seed(params)
        assert seed.x > FOLD_X and seed.y == phi(seed.x)

        def div_per_x(x):
            # div F = phi'/eps - b over the reduced flow xdot = g / phi'
            d = 4.0 - 3.0 * x * x
            return (d / eps - b) * d / (x - b * phi(x) - c)

        contraction = quad(div_per_x, seed.x, FOLD_X, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
        assert contraction == pytest.approx(-27.0, abs=1e-9)

    def test_far_start_is_capped(self):
        # at eps 1000 the e^27 point lies at x = 10.4, and the climb from
        # there outlasts the search's first-return window
        assert dynamics._cold_seed(SystemParams(0.0, 0.5, 1000.0)) == PhasePoint(4.0, phi(4.0))
        (row,) = bifurcation.sweep_values("c", [0.5], SystemParams(0.0, 0.0, 1000.0))
        assert row.error is None and row.cycles[0].converged

    # an equilibrium at or right of the fold stops the climb; b < 0
    @pytest.mark.parametrize("b, c", [(0.0, 2.0), (0.4, 0.0), (0.0, FOLD_X), (-0.1, 0.0)])
    def test_blocked_climb_keeps_the_fixed_start(self, b, c):
        seed = dynamics._cold_seed(SystemParams(b, c, 0.5))
        assert math.isfinite(seed.x) and math.isfinite(seed.y)
        assert seed == PhasePoint(1.8, phi(1.8))


def _escape_abscissa(b: float, c: float, eps: float) -> float:
    """X(b, c, eps) of the escape regions R+ = {x >= X, y >= -x} and
    R- = {x <= -X, y <= -x} of the time-reversed field.

    X is the smallest X >= 3 (up to rounding) with 3 X^2 > 5 + k and
    p(X) > 0, where k = eps max(1 + b, 0) and p(x) = x^3 - (5 + k) x - eps |c|.

    In reversed slow time x' = (x^3 - 4x + y)/eps and y' = -x + b y + c.
    - On the side x = X of R+ (y >= -X), x' >= (X^3 - 5X)/eps > 0, as X^2 >= 9.
    - On the side y = -x (x >= X), eps (x + y)' = x^3 - 5x - eps (1 + b) x
      + eps c >= p(x) > 0: p(X) > 0, and p' = 3x^2 - (5 + k) > 0 for x >= X.
    The field points into R+ across its whole boundary, so R+ is
    forward-invariant.  Inside it y >= -x gives x' >= (x^3 - 5x)/eps
    >= 4 x^3 / (9 eps), so x grows monotonically and reaches infinity in
    finite time.  R- follows by the symmetry (x, y, c) -> (-x, -y, -c).
    """
    k = eps * max(1.0 + b, 0.0)
    a, d = 5.0 + k, eps * abs(c)
    if 27.0 > a and 27.0 - 3.0 * a - d > 0.0:
        return 3.0
    # otherwise X is the largest root of p (>= 3), approached by Newton from
    # above, where p is increasing and convex: every iterate stays above it
    x = math.sqrt(a) + d ** (1.0 / 3.0) + 1.0
    while True:
        nxt = x - (x * x * x - a * x - d) / (3.0 * x * x - a)
        if not (nxt < x and nxt * nxt * nxt - a * nxt - d > 0.0):
            return x
        x = nxt


class TestEscapeCertificate:
    """Backward integration against the escape regions R+ = {x >= X, y >= -x}
    and R- = {x <= -X, y <= -x} of the reversed field, where every orbit
    provably blows up in finite time: a backward run that enters one stays
    in it and ends in NonFiniteError."""

    GRID = [(b, c, eps) for b in np.linspace(-0.5, 1.0, 7) for c in np.linspace(-3.0, 3.0, 7)
            for eps in np.geomspace(0.01, 1.0, 5)]
    # beyond the grid X exceeds 3: the largest root of p
    LARGE = [(0.0, 0.0, 30.0), (0.2, 50.0, 10.0), (-2.0, -40.0, 5.0), (3.0, 0.0, 20.0)]

    @staticmethod
    def _reversed_field(x, y, b, c, eps):
        return (x**3 - 4.0 * x + y) / eps, -x + b * y + c

    def test_abscissa_satisfies_the_inequalities(self):
        for b, c, eps in self.GRID + self.LARGE:
            X = _escape_abscissa(b, c, eps)
            k = eps * max(1.0 + b, 0.0)

            def p(x):
                return x**3 - (5.0 + k) * x - eps * abs(c)

            assert X >= 3.0
            assert 3.0 * X * X > 5.0 + k
            assert p(X) > 0.0
            # the smallest such X: 3, or within 1e-8 above the largest root of p
            assert X == 3.0 or p(X * (1.0 - 1e-8)) < 0.0, (b, c, eps)
        assert all(_escape_abscissa(*bce) > 3.0 for bce in self.LARGE)

    def test_reversed_field_points_into_the_regions(self):
        for b, c, eps in self.GRID + self.LARGE:
            X = _escape_abscissa(b, c, eps)
            for s in np.geomspace(1e-6, 1e3, 40):
                # the side x = X, y >= -X: rightward
                assert self._reversed_field(X, -X + s, b, c, eps)[0] > 0.0
                # the side y = -x, x >= X: x + y grows
                assert sum(self._reversed_field(X + s, -X - s, b, c, eps)) > 0.0
                # R- mirrored
                assert self._reversed_field(-X, X - s, b, c, eps)[0] < 0.0
                assert sum(self._reversed_field(-X - s, X + s, b, c, eps)) < 0.0

    @pytest.mark.parametrize("bce", [(-0.5, 3.0, 1.0), (1.0, -3.0, 0.01), (0.0, 1.15, 0.5)]
                             + LARGE[:2])
    @pytest.mark.parametrize("side", ["x = X", "y = -x", "corner"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_backward_orbit_never_leaves(self, bce, side, sign):
        params = SystemParams(*bce)
        X = _escape_abscissa(*bce)
        x, y = {"x = X": (X + 1e-6, -X + 0.5), "y = -x": (X + 0.5, -X - 0.5 + 1e-6),
                "corner": (X + 1e-6, -X + 2e-6)}[side]
        with pytest.raises(NonFiniteError) as info:
            integrate(PhasePoint(sign * x, sign * y), params, 10.0, direction=-1, max_norm=1e4)
        tr = info.value.trajectory
        assert len(tr.t) > 10
        assert np.all(sign * tr.x >= X) and np.all(sign * (tr.x + tr.y) >= 0.0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_step_collapse_pin_ends_inside_the_region(self, sign):
        # 1e-3 right of the stable focus above c_H, where no unstable cycle
        # surrounds it, the backward orbit spirals out into R+ and blows up
        # there (sign -1: mirrored by (x, y, c) -> (-x, -y, -c), into R-);
        # a backward cycle search from this seed once ended at the step floor
        b, c, eps = 0.0, sign * 1.176217557533539, 0.5
        start = PhasePoint(sign * 1.1772175575335388, sign * 3.0775876565965907)
        with pytest.raises(NonFiniteError) as info:
            integrate(start, SystemParams(b, c, eps), 100.0, tol=1e-9, direction=-1, max_norm=1e4)
        tr = info.value.trajectory
        X = _escape_abscissa(b, c, eps)
        assert X == 3.0
        inside = (sign * tr.x >= X) & (sign * (tr.x + tr.y) >= 0.0)
        entry = int(np.argmax(inside))
        assert inside[entry] and np.all(inside[entry:]) and entry > 100
        last = info.value.last_state
        assert sign * last.x >= X and sign * (last.x + last.y) >= 0.0


class TestUnstableCycle:
    """The unstable cycle between the stable focus E+ and the relaxation cycle
    around it, for b in (b_h, b_hom) at c = 0, as a root of the displacement
    of the forward return map."""

    @staticmethod
    def _band_cycle(b, eps, tol=1e-9):
        params = SystemParams(b, 0.0, eps)
        outer = find_limit_cycle(params, A_START, tol=tol)
        return params, outer, find_unstable_cycle(params, outer, tol)

    # b_h + 2e-4: the cycle born at the subcritical Hopf point, and its length
    @pytest.mark.parametrize("eps, length", [(0.5, 0.30), (0.1, 0.26)])
    def test_cycle_beside_hopf_repels(self, eps, length):
        b = bifurcation.hopf_in_b(eps).param_value + 2e-4
        params, outer, lc = self._band_cycle(b, eps)
        assert lc.stability is Stability.UNSTABLE and lc.converged
        assert lc.section_x == outer.section_x
        assert lc.length == pytest.approx(length, abs=0.01)
        # the Floquet multiplier exp(integral of div F dt) exceeds 1, and it
        # is the return map's slope at its fixed point
        div = (4.0 - 3.0 * lc.x**2) / eps - b
        assert math.exp(np.trapezoid(div, lc.t)) > 1.0
        assert lc.multiplier == pytest.approx(math.exp(np.trapezoid(div, lc.t)), rel=1e-6)
        assert lc.stats["shots"] >= 3 and lc.stats["steps"] > 0

    def test_no_short_loop_beside_hopf(self):
        # at b_h + 2e-8 the cycle's length, scaled as sqrt(b - b_h) from
        # L = 0.0298 at b_h + 2e-6, is about 0.00298; |d| < 1e-8 everywhere
        # there, so a search that stopped on |d| accepted a loop of L 0.000615
        b = bifurcation.hopf_in_b(0.5).param_value + 2e-8
        try:
            _, _, lc = self._band_cycle(b, 0.5)
        except NoCycleError:
            return
        assert lc.length == pytest.approx(0.00298, rel=0.25)

    def test_no_sign_change_raises_with_stats(self):
        # the relaxation cycle around the unstable node at the origin: d > 0
        # beside the node too, so no unstable cycle lies between them
        params = SystemParams(0.0, 0.0, 0.5)
        outer = find_limit_cycle(params, A_START, tol=1e-9)
        with pytest.raises(NoCycleError, match="does not change sign") as info:
            find_unstable_cycle(params, outer, 1e-9)
        stats = info.value.stats
        assert stats["shots"] == 2 and stats["steps"] > 0 and stats["tol"] == 1e-9


class _LoopStepper:
    """The tableau-driven loop form of the RODAS step: the reference kernel.

    State is advanced in the requested time scale; `direction=-1` integrates
    the time-reversed field.  It counts in `hits` each branch of the step
    control that it takes; TestKernelEquivalence puts a fresh Counter there
    for each test."""

    hits: Counter = Counter()

    def __init__(self, x, y, params, scale, direction, tol, max_norm):
        if params.eps <= 0.0:
            raise ValueError("stiff integration requires eps > 0")
        if not 1e-12 <= tol <= 1e-3:
            raise ValueError("tol must lie in [1e-12, 1e-3]")
        self.b = params.b
        self.c = params.c
        if scale is TimeScale.FAST:
            self.sx, self.sy = float(direction), direction * params.eps
        else:
            self.sx, self.sy = direction / params.eps, float(direction)
        self.tol = tol
        self.max_norm = max_norm
        self.t = 0.0
        self.x = float(x)
        self.y = float(y)
        self.dx, self.dy = self._field(self.x, self.y)
        fn = math.hypot(self.dx, self.dy)
        self.h = min(1e-3, 0.01 * tol ** 0.25 / (fn + 1e-6) + 1e-9)
        self.naccept = 0
        self.nreject = 0

    def stats(self):
        return {"steps": self.naccept, "rejected": self.nreject, "tol": self.tol}

    def _field(self, x, y):
        return (
            self.sx * (-y + 4.0 * x - x * x * x),
            self.sy * (x - self.b * y - self.c),
        )

    def advance(self, t_cap=None):
        hits = self.hits
        b = self.b
        h = self.h
        x0, y0 = self.x, self.y
        f0x, f0y = self.dx, self.dy
        j11 = self.sx * (4.0 - 3.0 * x0 * x0)
        j12 = -self.sx
        j21 = self.sy
        j22 = -self.sy * b
        tol = self.tol

        for _ in range(dynamics._MAX_REJECTS):
            if t_cap is not None and self.t + h > t_cap:
                h = t_cap - self.t
                hits["clamped to t_cap"] += 1
            if h < dynamics._H_FLOOR:
                raise StepSizeCollapseError(f"step {h:.3e} below floor at t={self.t!r}")
            ghinv = 1.0 / (h * dynamics._GAMMA)
            w11 = ghinv - j11
            w22 = ghinv - j22
            det = w11 * w22 - j12 * j21
            if det == 0.0 or not math.isfinite(det):
                h *= 0.5
                self.nreject += 1
                continue
            inv = 1.0 / det

            k = []
            fx_i, fy_i = f0x, f0y
            for i in range(6):
                if i > 0:
                    ax = x0
                    ay = y0
                    for a, (k1, k2) in zip(dynamics._A[i - 1], k):
                        ax += a * k1
                        ay += a * k2
                    fx_i, fy_i = self._field(ax, ay)
                r1, r2 = fx_i, fy_i
                if i > 0:
                    hinv = 1.0 / h
                    for cc, (k1, k2) in zip(dynamics._C[i - 1], k):
                        r1 += cc * hinv * k1
                        r2 += cc * hinv * k2
                k.append(((r1 * w22 + r2 * j12) * inv, (w11 * r2 + j21 * r1) * inv))

            xn = x0
            yn = y0
            for m, (k1, k2) in zip(dynamics._M, k):
                xn += m * k1
                yn += m * k2
            e1, e2 = k[5]

            if not (math.isfinite(xn) and math.isfinite(yn)):
                hits["non-finite stage"] += 1
                h *= 0.5
                self.nreject += 1
                continue
            if any(u == 0.0 and math.copysign(1.0, u) < 0.0 for u in (x0, y0, xn, yn)):
                hits["-0.0"] += 1
            sc1 = tol + tol * max(abs(x0), abs(xn))
            sc2 = tol + tol * max(abs(y0), abs(yn))
            err = math.sqrt(0.5 * ((e1 / sc1) ** 2 + (e2 / sc2) ** 2))
            if err <= 1.0:
                self.t += h
                self.x, self.y = xn, yn
                self.dx, self.dy = self._field(xn, yn)
                self.naccept += 1
                if err == 0.0:
                    hits["err == 0"] += 1
                elif 0.9 * err ** -0.25 > 6.0:
                    hits["growth capped at 6"] += 1
                fac = min(6.0, max(0.2, 0.9 * err ** -0.25)) if err > 0.0 else 6.0
                self.h = h * fac
                if max(abs(xn), abs(yn)) > self.max_norm:
                    hits["max_norm"] += 1
                    raise NonFiniteError(
                        f"state left |u| <= {self.max_norm} at t={self.t!r}",
                        last_state=PhasePoint(xn, yn) if math.isfinite(xn + yn) else None,
                    )
                return
            self.nreject += 1
            if 0.9 * err ** -0.25 < 0.1:
                hits["0.1 floor"] += 1
            h *= max(0.1, 0.9 * err ** -0.25)
        raise StepSizeCollapseError("step repeatedly rejected")


def _loop_integrate(start, params, t_end, scale=TimeScale.SLOW, tol=1e-8, direction=1, max_norm=1e8,
                    sections=(), start_on=None):
    """The reference driver: `dynamics.integrate` as a loop that calls
    `_LoopStepper.advance` once per accepted step, appends its state, and
    tests each section for a crossing in the run's sense."""
    if params.eps <= 0.0:
        raise ValueError("integrate requires eps > 0; use the singular module for eps = 0")
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    if start_on is not None and start_on not in range(len(sections)):
        raise ValueError("start_on must index a section")

    st = _LoopStepper(start.x, start.y, params, scale, direction, tol, max_norm)
    ts, xs, ys, dxs, dys = [st.t], [st.x], [st.y], [st.dx], [st.dy]
    # per section, the node of its counted crossing; the sections in the
    # order that the run's sense meets them (right to left for direction 1)
    counted = {j: 0 if j == start_on else None for j in range(len(sections))}
    met = sorted(counted, key=lambda j: sections[j], reverse=direction == 1)
    closing = None

    def traj():
        return dynamics.Trajectory(np.array(ts), np.array(xs), np.array(ys), np.array(dxs),
                                   np.array(dys), direction, st.stats(), closing)

    try:
        while closing is None:
            x0 = st.x
            st.advance(t_end)
            ts.append(st.t)
            xs.append(st.x)
            ys.append(st.y)
            dxs.append(st.dx)
            dys.append(st.dy)
            remainder = t_end - st.t
            if remainder < dynamics._H_FLOOR:
                if remainder > 0.0:
                    ts[-1] = t_end
                break
            for j in met:
                s = sections[j]
                if not (x0 > s > st.x if direction == 1 else x0 < s < st.x):
                    continue
                if counted[j] is not None:
                    closing = (j, counted[j], len(ts) - 1)
                    _LoopStepper.hits["closing leftward" if direction == 1 else "closing rightward"] += 1
                    break
                # a crossing voids the count of each section that the sense meets after it
                for i in met[met.index(j) + 1:]:
                    counted[i] = None
                counted[j] = len(ts) - 1
    except IntegrationError as exc:
        exc.trajectory = traj()
        if exc.last_state is None:
            exc.last_state = PhasePoint(xs[-1], ys[-1])
        raise
    return traj()


def _outcome(fn):
    """Everything a run exposes: nodes, derivatives and stats, or the exception."""
    try:
        tr = fn()
        exc = None
    except FHNError as e:
        exc = e
        tr = getattr(e, "trajectory", None)
    out = {}
    if exc is not None:
        ls = getattr(exc, "last_state", None)
        out["exc"] = (type(exc), str(exc), None if ls is None else (ls.x, ls.y))
    if tr is not None:
        out["nodes"] = [tr.t.tolist(), tr.x.tolist(), tr.y.tolist(), tr.dx.tolist(), tr.dy.tolist()]
        out["stats"] = dict(tr.stats)
        out["closing"] = tr.closing
    return out


def _equivalence_cases():
    rng = random.Random(20240817)
    cases = []
    for scale in (TimeScale.SLOW, TimeScale.FAST):
        for direction in (1, -1):
            for tol in (1e-6, 1e-8, 1e-10):
                for _ in range(3):
                    eps = 10.0 ** rng.uniform(-2.0, 0.0)
                    params = SystemParams(rng.uniform(0.0, 0.4), rng.uniform(-1.5, 1.5), eps)
                    if direction == 1:
                        start = PhasePoint(rng.uniform(-2.5, 2.5), rng.uniform(-4.0, 4.0))
                        t_end = 1.0
                    else:
                        x = rng.uniform(-0.8, 0.8)
                        start = PhasePoint(x, 4.0 * x - x**3 + rng.uniform(-0.3, 0.3))
                        t_end = 0.15
                    if scale is TimeScale.FAST:
                        t_end /= eps
                    cases.append((start, params, t_end, scale, tol, direction, 1e8))
    # the branches of the step control: a start exactly on an equilibrium
    # (err == 0, growth x6, the last step clamped to t_end), coordinates of
    # -0.0, and a backward run from far right whose blow-up rejects a step at
    # the 0.1 floor and one on a non-finite stage before the step collapses
    slow = TimeScale.SLOW
    cases += [
        (PhasePoint(0.5, 1.875), SystemParams(0.0, 0.5, 0.1), 5.0, slow, 1e-8, 1, 1e8),
        (PhasePoint(-0.0, 1.0), SystemParams(0.0, 0.0, 0.1), 1.0, slow, 1e-8, 1, 1e8),
        (PhasePoint(1.0, -0.0), SystemParams(0.0, 0.0, 0.1), 1.0, slow, 1e-8, -1, 1e8),
        (PhasePoint(9220.0, -1.5), SystemParams(0.3, 1.0, 0.065), 2.0, slow, 1e-8, -1, 1e8),
    ]
    # backward from beyond the right branch: blows up, a partial trajectory
    cases.append((PhasePoint(3.0, 0.0), SystemParams(0.0, 0.0, 0.5), 50.0, TimeScale.SLOW,
                  1e-8, -1, 1e4))
    return cases


def _drive_by_loop_form(monkeypatch):
    """Route every run of the cycle searches and the homoclinic shots
    through the reference driver."""
    monkeypatch.setattr(dynamics, "integrate", _loop_integrate)


class TestKernelEquivalence:
    """`integrate`, with its straight-line step inline, reproduces the
    loop-form reference driver bit for bit, on every branch of its step
    control."""

    @pytest.fixture(autouse=True)
    def hits(self, monkeypatch):
        hits = Counter()
        monkeypatch.setattr(_LoopStepper, "hits", hits)
        return hits

    def test_integrate_matches_loop_form(self, hits):
        cases = _equivalence_cases()
        new = [_outcome(lambda c=c: integrate(*c)) for c in cases]
        ref = [_outcome(lambda c=c: _loop_integrate(*c)) for c in cases]
        for case, got, want in zip(cases, new, ref):
            assert got == want, case
        stats = [o["stats"] for o in ref if "stats" in o]
        assert sum(st["rejected"] > 0 for st in stats) >= 5
        assert sum(st["steps"] for st in stats) > 3000
        assert ref[-1]["exc"][0] is NonFiniteError and len(ref[-1]["nodes"][0]) > 10
        for branch in ("err == 0", "growth capped at 6", "clamped to t_cap", "-0.0",
                       "0.1 floor", "non-finite stage", "max_norm"):
            assert hits[branch] >= 1, branch

    def test_cycle_search_matches_loop_form(self, monkeypatch, hits):
        # a stable search with Newton shots, an unstable one, and a backward
        # run from beside the focus E+ onto the unstable cycle, which attracts it
        searches = [((0.0, 1.152, 0.5), (-2.8, 1.64), "stable", 1e-10, None),
                    TestSearchPins.CYCLES["converged_backward"][:5]]
        params = SystemParams(0.3692, 0.0, 0.5)
        e_plus = max(equilibria(params), key=lambda e: e.point.x).point

        def search():
            out = []
            for case in searches:
                lc = TestSearchPins._search(*case)
                out.append([lc.t.tolist(), lc.x.tolist(), lc.y.tolist(), lc.period, lc.length,
                            lc.section_x, lc.return_gap, lc.converged, lc.stats])
            # through the module, which the loop form replaces
            out.append(_outcome(lambda: dynamics.integrate(PhasePoint(e_plus.x + 1e-3, e_plus.y),
                                                           params, 120.0, tol=1e-9, direction=-1)))
            return out

        got = search()
        _drive_by_loop_form(monkeypatch)
        assert got == search()
        assert got[0][-1]["shots"] >= 1 and got[1][-1]["shots"] > 2
        assert hits["closing leftward"] >= 1
        assert "exc" not in got[2] and got[2]["stats"]["steps"] > 1000

    def test_homoclinic_shots_match_loop_form(self, monkeypatch, hits):
        # the runs of W^u and W^s to their crossings on either side of the
        # located value, where the splitting function has either sign, and
        # the loop joined from the runs at that value
        b_hom = float.fromhex("0x1.7a2e340fed7b5p-2")

        def shoot():
            out, stats = [], {"steps": 0, "rejected": 0, "shots": 0}
            for b in (b_hom - 1e-4, b_hom + 1e-4, b_hom):
                delta, arc_u, arc_s = bifurcation._split(b, 0.5, stats)
                out.append(delta)
                for traj, cross in (arc_u, arc_s):
                    out += [traj.t.tolist(), traj.x.tolist(), traj.y.tolist(), cross]
            lc = bifurcation._homoclinic_loop(b_hom, arc_u, arc_s, stats)
            return out + [lc.t.tolist(), lc.x.tolist(), lc.y.tolist(), lc.return_gap, stats]

        got = shoot()
        _drive_by_loop_form(monkeypatch)
        assert got == shoot()
        assert got[0] > 0.0 > got[9]
        # W^u closes leftward on its section, W^s (run backward) rightward
        assert hits["closing leftward"] >= 1 and hits["closing rightward"] >= 1

    def test_homoclinic_in_b_pinned(self):
        # recorded from the root of the splitting function
        hom = homoclinic_in_b(0.5)
        orbit = hom.orbit
        assert hom.param_value.hex() == "0x1.7a2e340fed7b5p-2"
        assert len(orbit.t) == 1773
        assert orbit.period.hex() == "0x1.06a99ce8edce2p+7"
        assert orbit.length.hex() == "0x1.08b477f97c0b2p+3"
        assert orbit.return_gap.hex() == "0x1.0c6f7a0b5ed8cp-20"
        digest = hashlib.sha256(np.concatenate([orbit.t, orbit.x, orbit.y]).tobytes()).hexdigest()
        assert digest == "ef945b92cfd6df68640dce53cb22ce33f55faeeebe8b670a4899633b90f118e5"


@pytest.fixture
def python_loop(monkeypatch):
    """`integrate` and `Trajectory.crossing` as on a host where the compiled
    loop of `_rodas.c` could not be built."""
    monkeypatch.setattr(dynamics, "_LIB", None)
    assert dynamics.kernel() == "python"


@pytest.mark.usefixtures("python_loop")
class TestIntegratePythonLoop(TestIntegrate):
    """TestIntegrate, the error paths included, on the Python loop."""


@pytest.mark.usefixtures("python_loop")
class TestKernelEquivalencePythonLoop(TestKernelEquivalence):
    """TestKernelEquivalence on the Python loop: `_equivalence_cases`, the
    searches and the homoclinic shots against the loop form, and the pin."""


class TestCompiledKernel:
    """The compiled loop is built once into its cache and gives the Python
    loop's outputs; where it cannot be built, the Python loop runs."""

    def test_failed_build_falls_back_with_identical_outputs(self, tmp_path, monkeypatch):
        lib = _kernel.load(str(tmp_path), compiler=("fhn-no-such-compiler",))
        assert lib is None and list(tmp_path.iterdir()) == []
        cases = _equivalence_cases()
        want = [_outcome(lambda c=c: integrate(*c)) for c in cases]
        monkeypatch.setattr(dynamics, "_LIB", lib)
        assert dynamics.kernel() == "python"
        assert [_outcome(lambda c=c: integrate(*c)) for c in cases] == want

    @pytest.mark.skipif(dynamics._LIB is None, reason="no C compiler on this host")
    def test_library_is_built_once_into_its_cache(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        lib = _kernel.load(str(cache))
        (built,) = cache.iterdir()
        assert built.name.startswith("_rodas-") and built.suffix == ".so"
        stamp = built.stat().st_mtime_ns
        assert _kernel.load(str(cache)) is not None
        assert list(cache.iterdir()) == [built] and built.stat().st_mtime_ns == stamp
        case = (A_START, SystemParams(0.0, 0.0, 0.5), 20.0, TimeScale.SLOW, 1e-9, 1, 1e8, (0.0,))
        want = _outcome(lambda: integrate(*case))
        monkeypatch.setattr(dynamics, "_LIB", lib)
        assert _outcome(lambda: integrate(*case)) == want and want["closing"] is not None

    @pytest.mark.skipif(dynamics._LIB is None, reason="no C compiler on this host")
    def test_overflowing_error_norm_raises_as_in_python(self):
        # Python's float ** raises OverflowError where pow overflows; at the
        # tols that `integrate` admits no run was seen to, so the loops are
        # called with tol 1e-300, where the first trial step does
        x, y, sx, sy = -2.8, 1.64, 2.0, 1.0
        fx, fy = sx * (4.0 * x - y - x * x * x), sy * x
        args = (x, y, fx, fy, 1e-3, 0.0, 0.0, sx, sy, 1e-300, 1.0, 1, 1e8, [], [])
        raised = []
        for loop in (dynamics._python_loop, dynamics._compiled_loop):
            with pytest.raises(OverflowError) as info:
                loop(*args)
            raised.append(str(info.value))
        assert raised[0] == raised[1]

    @pytest.mark.parametrize("direction", [1, -1])
    def test_crossing_matches_python_bisection(self, monkeypatch, direction):
        # two loops against 47 x 4 half-lines that they cross above and
        # below their ends, or never reach; read as a run of the reversed
        # field, the run crosses them rightward
        tr = integrate(A_START, SystemParams(0.0, 0.0, 0.5), 15.0, tol=1e-9)
        tr = dataclasses.replace(tr, direction=direction)
        lines = [(float(x_s), y_s) for x_s in np.linspace(-2.1, 2.5, 47)
                 for y_s in (-math.inf, -3.0, phi(x_s), 3.0)]

        def crossings():
            # each step across the line, and the first and last steps
            out = []
            for x_s, y_s in lines:
                d = direction * (tr.x - x_s)
                steps = [*(np.flatnonzero((d[:-1] > 0.0) & (d[1:] < 0.0)) + 1).tolist(), 1, -1]
                out += [tr.crossing(i, x_s, y_s) for i in steps]
            return out

        got = crossings()
        monkeypatch.setattr(dynamics, "_LIB", None)
        assert got == crossings()
        assert sum(c is not None for c in got) >= 100
        assert all(type(v) is float for c in got if c is not None for v in c)


class TestCycleLength:
    def test_unit_square(self):
        assert cycle_length([0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]) == 4.0

    def test_circle_perimeter(self):
        th = np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False)
        assert cycle_length(np.cos(th), np.sin(th)) == pytest.approx(2.0 * np.pi, abs=1e-4)

    def test_singular_cycle_skeleton_exceeds_jump_chords(self):
        # two horizontal jumps of length 6/sqrt(3) each bound the perimeter
        from fhn.core import phi
        from fhn.singular import FOLD_Y

        xs_r = np.linspace(2 * FOLD_X, FOLD_X, 200)
        xs_l = np.linspace(-2 * FOLD_X, -FOLD_X, 200)
        loop_x = np.concatenate([xs_r, [-2 * FOLD_X], xs_l, [2 * FOLD_X]])
        loop_y = np.concatenate([phi(xs_r), [FOLD_Y], phi(xs_l), [-FOLD_Y]])
        assert cycle_length(loop_x, loop_y) > 2.0 * (6.0 / math.sqrt(3.0))

    def test_degenerate_loops_rejected(self):
        with pytest.raises(DegenerateLoopError):
            cycle_length([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(DegenerateLoopError):
            cycle_length([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
