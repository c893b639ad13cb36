"""First-order slow-manifold expansion x = h0(y) + eps*h1(y) on attracting branches.

h0 is the branch root of the critical-manifold cubic, selected by interval
membership rather than by a nested-radical closed form (the radical form
needs complex intermediates on most of the branch); h1 comes from the
invariance equation of the graph, which for this field reduces to
(h0 - b*y - c) / (4 - 3*h0^2)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SystemParams, f_scalar, fx, g_scalar, phi_roots_with_multiplicity
from .errors import OutOfValidityError
from .singular import FOLD_X, FOLD_Y, Branch

_FOLD_MARGIN = 1e-6


@dataclass(frozen=True)
class BranchGraph:
    """An attracting branch with the open y-interval on which it is a graph."""

    branch: Branch
    y_lo: float
    y_hi: float

    @classmethod
    def for_branch(cls, branch: Branch) -> "BranchGraph":
        """Admissible interval computed from the branch geometry.

        The left branch carries y in (-16/(3 sqrt 3), 10] and the right
        branch the mirror image; the adjacent fold ordinate is excluded by
        the 1e-6 margin.
        """
        if branch is Branch.LEFT_ATTRACTING:
            return cls(branch, -FOLD_Y + _FOLD_MARGIN, 10.0)
        if branch is Branch.RIGHT_ATTRACTING:
            return cls(branch, -10.0, FOLD_Y - _FOLD_MARGIN)
        raise ValueError("slow-manifold graphs are defined on attracting branches only")

    def contains(self, y: float) -> bool:
        return self.y_lo <= y <= self.y_hi


def h0(y: float, graph: BranchGraph) -> float:
    """Branch root of 4x - x^3 = y on graph.branch."""
    _require_valid(y, graph)
    if graph.branch is Branch.LEFT_ATTRACTING:
        picks = [r for r, _ in phi_roots_with_multiplicity(y) if r < -FOLD_X]
    else:
        picks = [r for r, _ in phi_roots_with_multiplicity(y) if r > FOLD_X]
    if len(picks) != 1:
        raise OutOfValidityError(f"no unique branch root at y={y!r}")
    return picks[0]


def h1(y: float, graph: BranchGraph, params: SystemParams) -> float:
    """First-order coefficient -f_y*g/f_x^2 - f_eps/f_x on the branch.

    With f_y = -1 and f_eps = 0 this is (h0(y) - b*y - c) / (4 - 3*h0(y)^2)^2.
    """
    x0 = h0(y, graph)
    denom = fx(x0)
    return g_scalar(x0, y, params.b, params.c) / (denom * denom)


def h_eps(y: float, graph: BranchGraph, params: SystemParams) -> float:
    """Graph of the slow manifold: h0(y) + eps*h1(y)."""
    return h0(y, graph) + params.eps * h1(y, graph, params)


def invariance_defect(y: float, graph: BranchGraph, params: SystemParams) -> float:
    """Residual eps * dh/dy * g - f evaluated on the truncated graph.

    Zero for an exactly invariant graph; O(eps^2) for the first-order
    truncation.  The graph slope is taken by central differences so the
    diagnostic stays independent of the analytic derivation of h1.
    """
    step = 1e-6 * max(1.0, abs(y))
    if y - step < graph.y_lo or y + step > graph.y_hi:
        raise OutOfValidityError(f"defect stencil leaves the validity interval at y={y!r}")
    x = h_eps(y, graph, params)
    slope = (h_eps(y + step, graph, params) - h_eps(y - step, graph, params)) / (2.0 * step)
    return params.eps * slope * g_scalar(x, y, params.b, params.c) - f_scalar(x, y)


def _require_valid(y: float, graph: BranchGraph) -> None:
    if not graph.contains(y):
        raise OutOfValidityError(
            f"y={y!r} outside validity interval [{graph.y_lo}, {graph.y_hi}]"
        )

