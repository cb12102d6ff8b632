"""Exception and warning types shared across the package."""

__all__ = [
    "QubitRetroError",
    "NotHermitianError",
    "NotPSDError",
    "NotUnitalError",
    "NotCPTPError",
    "InternalCPViolationError",
    "SingularSError",
    "EigenvalueOnBoundaryError",
    "MonotonicityWarning",
]


class QubitRetroError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitianError(QubitRetroError):
    """Input matrix is not Hermitian within tolerance."""


class NotPSDError(QubitRetroError):
    """Matrix expected to be positive semidefinite has a negative eigenvalue."""


class NotUnitalError(QubitRetroError):
    """Channel does not preserve the maximally mixed state."""


class NotCPTPError(QubitRetroError):
    """Map is not completely positive and trace preserving."""


class InternalCPViolationError(QubitRetroError):
    """A channel left the Bloch ball, or a constructed inverse failed its certification: a bug."""


class SingularSError(QubitRetroError):
    """The contraction scalar S = sum_i lambda_i^2 r_i^2 is too close to 1."""


class EigenvalueOnBoundaryError(QubitRetroError):
    """Some |lambda_i| is too close to 1 for the interior construction."""


class MonotonicityWarning(UserWarning):
    """A feasibility column was not monotone in t; bisection fell back to a grid scan."""
