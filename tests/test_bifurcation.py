import hashlib
import math

import pytest

from fhn import bifurcation
from fhn.core import PhasePoint, SystemParams, TimeScale, jacobian, phi
from fhn.dynamics import integrate_until
from fhn.errors import BracketFailureError
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


# b_hom pinned bitwise, as located with every shot run to its full budget
B_HOM_HEX = {
    0.02: "0x1.7fc2a2fde71f1p-2",
    0.05: "0x1.7f66e0cdc9932p-2",
    0.1: "0x1.7eceb483cc0ebp-2",
    0.2: "0x1.7da1297d26b13p-2",
    0.5: "0x1.7a2e340fe31a6p-2",
    1.0: "0x1.74b228f224b16p-2",
}


class TestHomoclinicInB:
    @pytest.mark.slow
    @pytest.mark.parametrize("eps", [0.02, 0.05, 0.1, 0.2, 1.0])
    def test_manifold_fate_flips_at_located_value(self, eps, monkeypatch):
        # the locus comes from shooting W^u alone, never from a cycle search
        def no_cycle_search(*_args, **_kwargs):
            raise AssertionError("homoclinic_in_b ran a cycle search")

        monkeypatch.setattr(bifurcation, "find_limit_cycle", no_cycle_search)
        hom = homoclinic_in_b(eps)
        b_hom = hom.param_value
        assert b_hom.hex() == B_HOM_HEX[eps]
        assert hom.kind is BifKind.HOMOCLINIC
        assert b_hom > hopf_in_b(eps).param_value
        tol = bifurcation._HOMOCLINIC_TOL
        assert bifurcation._wu_escapes_outward(b_hom - 1e-9, eps, tol)
        assert not bifurcation._wu_escapes_outward(b_hom + 1e-9, eps, tol)
        assert hom.orbit.min_distance_to(0.0, 0.0) <= 1e-2

    @pytest.mark.parametrize("eps", [16.0, 30.0, 60.0])
    def test_no_saddle_at_hopf_value_raises_before_any_shot(self, eps, monkeypatch):
        # from eps = 16 on b_h <= 1/4: the origin is a node or focus there
        def no_shot(*_args, **_kwargs):
            raise AssertionError("homoclinic_in_b shot W^u")

        monkeypatch.setattr(bifurcation, "integrate_until", no_shot)
        with pytest.raises(ValueError, match="<= 1/4"):
            hopf_in_b(eps)
        with pytest.raises(BracketFailureError, match="<= 1/4"):
            homoclinic_in_b(eps)


class TestCaptureCertificate:
    """A shot ended by the capture certificate has the fate of the full budget."""

    @pytest.mark.parametrize("eps", [0.1, 0.5])
    def test_fate_matches_full_budget(self, eps, monkeypatch):
        tol = bifurcation._HOMOCLINIC_TOL
        b_hom = float.fromhex(B_HOM_HEX[eps])
        b_h = hopf_in_b(eps).param_value
        ends = [b_h + 1e-3, b_h + bifurcation._HOMOCLINIC_BRACKET]
        near = [b_hom + s * d for d in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4) for s in (-1, 1)]
        arcs = []

        def recording(*args, **kwargs):
            arcs.append(integrate_until(*args, **kwargs))
            return arcs[-1]

        monkeypatch.setattr(bifurcation, "integrate_until", recording)
        for b in ends + near:
            got = bifurcation._wu_escapes_outward(b, eps, tol)
            ref = integrate_until(
                bifurcation._saddle_seed(b, eps, 1.0)[0], SystemParams(b, 0.0, eps), 400.0,
                lambda t, x, y: x < -0.5, tol=tol, max_norm=1e3,
            )
            assert got == bool(ref.x[-1] < -0.5), b
            if b in near:
                assert got == (b < b_hom), b
            if not got:
                assert arcs[-1].t[-1] < 50.0, b


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


class TestSweepPin:
    """The two recipe grids at eps 0.5 and the sweep's tol, every cycle record
    pinned bit for bit: period, length, converged flag and seed of each row."""

    # sha256 over the rows of `_digest`, recorded before backward searches
    # learned to end at the escape regions
    DIGESTS = {
        "b": "8a45ae89103cfd3f2df0c8a28ec328a7adf338b22ffa32d9cbfee21b2352917a",
        "c": "4c90f970dd6c1cd899122a7b19f4dc93c26b4deaad8381556234770917858476",
    }
    GRIDS = {"b": (0.24, 0.40), "c": (1.10, 1.20)}

    @staticmethod
    def _digest(rows):
        h = hashlib.sha256()
        for row in rows:
            h.update(row.param_value.hex().encode())
            for rec in row.cycles:
                h.update(" ".join([rec.period.hex(), rec.length.hex(), str(rec.converged),
                                   rec.seed.x.hex(), rec.seed.y.hex()]).encode())
            h.update(b"\n")
        return h.hexdigest()

    @pytest.mark.parametrize("param", sorted(GRIDS))
    def test_recipe_grid(self, param):
        lo, hi = self.GRIDS[param]
        rows = sweep(param, lo, hi, 60, SystemParams(0.0, 0.0, 0.5), tol=1e-9)
        assert self._digest(rows) == self.DIGESTS[param]
        # a backward search with no cycle to find ends at the escape regions
        assert not any("StepSizeCollapseError" in (row.error or "") for row in rows)
