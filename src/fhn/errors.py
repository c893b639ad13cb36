"""Exception types shared across the toolkit."""


class FHNError(Exception):
    """Base class for all toolkit errors."""


class FoldSingularityError(FHNError):
    """Reduced slow flow evaluated at (or too close to) a fold abscissa."""


class NotAnEquilibriumError(FHNError):
    """Linearization requested at a point that is not a reduced-flow equilibrium."""


class OnManifoldError(FHNError):
    """Singular-orbit start point lies on the critical manifold."""


class EquilibriumInPathError(FHNError):
    """A slow transit hits an equilibrium, so no relaxation cycle exists."""


class OutOfValidityError(FHNError):
    """Slow-manifold graph evaluated outside its validity interval."""


class IntegrationError(FHNError):
    """The integrator could not carry a trajectory on; carries its partial
    trajectory and last state."""

    def __init__(self, message, last_state=None, trajectory=None):
        super().__init__(message)
        self.last_state = last_state
        self.trajectory = trajectory


class SearchError(FHNError):
    """A cycle search or a bisection ended without finding what it looked for."""


class StepSizeCollapseError(IntegrationError):
    """Adaptive integrator step size fell below the hard floor."""


class NonFiniteError(IntegrationError):
    """Integration state blew up; carries the last finite state."""


class NoCycleError(SearchError):
    """No periodic recurrence found within the time budget."""


class ConvergedToEquilibriumError(SearchError):
    """Cycle search converged to an equilibrium instead of a cycle."""


class DegenerateLoopError(FHNError):
    """Loop has too few samples or does not close."""


class BracketFailureError(SearchError):
    """Bisection bracket does not straddle the target discriminant."""

