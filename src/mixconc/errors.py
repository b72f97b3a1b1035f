"""Exception types shared across the package."""


class MixconcError(Exception):
    """Base class for all package errors."""


class InadmissibleN(MixconcError):
    """Sample size has a prime factor exceeding the lattice's largest prime."""


class DomainError(MixconcError):
    """An argument is outside the mathematical domain of the operation."""


class NonFinite(MixconcError):
    """An input or a numerical integral is not finite."""


class UnsupportedModel(MixconcError):
    """Closed-form bounds are not available for this mixing model."""


class ShapeMismatch(MixconcError):
    """Array dimensions of the inputs do not agree."""


class NonConvergence(MixconcError):
    """Solver failed to certify optimality within the iteration cap."""


class SingularDesign(MixconcError):
    """Design matrix is rank-deficient beyond tolerance."""


class UnsupportedDesign(MixconcError):
    """No analytic population formula for this design / loss combination."""


class OracleVariance(MixconcError):
    """Monte Carlo oracle too noisy for the requested quantity."""


class EmptyIdealSet(MixconcError):
    """No grid point has variance proxy at least the bias."""


class EmptyTestSet(MixconcError):
    """Pairwise-distance test rejected every grid point (s too small)."""


class NoSolution(MixconcError):
    """Fixed-point search failed even at the upper end of the bracket."""


class MonotonicityViolation(MixconcError):
    """A sampled monotonicity precondition does not hold."""
