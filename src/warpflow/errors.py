"""Exception types shared across the package."""


class DomainError(ValueError):
    """Raised when an operation receives inputs outside its mathematical domain."""


class DegeneratePlane(DomainError):
    """Raised when two vectors fail to span a 2-plane."""


class ConditionAViolated(ValueError):
    """Raised when a warp function fails the non-negativity condition on h = g'' + (g')^2."""


class IntegratorDrift(RuntimeError):
    """Raised when conserved quantities drift beyond the allowed tolerance.

    Carries the offending defect values in ``max_unit_defect`` and
    ``max_momentum_defect``.
    """

    def __init__(self, message, max_unit_defect=None, max_momentum_defect=None):
        super().__init__(message)
        self.max_unit_defect = max_unit_defect
        self.max_momentum_defect = max_momentum_defect


class ConjugatePointDetected(RuntimeError):
    """Raised when a two-point Jacobi problem turns out to be singular."""


class GreenNotConverged(RuntimeError):
    """Raised when no rung of the r-ladder for a stable/unstable solution is certified.

    The ladder ends after its last allowed doubling or sooner, once the
    bounds' decay cannot reach the tolerance in the doublings left (see
    ``jacobi._ladder``).  ``last_solution`` holds the final iterate,
    ``gaps`` the Dirichlet-Neumann bracket bound of each rung run (see
    ``jacobi._bracket_bound``).
    """

    def __init__(self, message, last_solution=None, gaps=None):
        super().__init__(message)
        self.last_solution = last_solution
        self.gaps = list(gaps) if gaps is not None else []


class VanishingJacobiField(RuntimeError):
    """Raised when a Jacobi field passes below the representable-norm floor."""
