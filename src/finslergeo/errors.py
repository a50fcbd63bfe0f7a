"""Exception types shared across the package.

Everything raised on purpose derives from FinslerGeoError so callers can
catch one base class at the CLI boundary and map it to an exit code.
"""


class FinslerGeoError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(FinslerGeoError):
    """An input vector or matrix has the wrong dimension."""

    def __init__(self, expected: int, got: int, what: str = "vector"):
        self.expected = expected
        self.got = got
        super().__init__(f"{what} has dimension {got}, expected {expected}")


class ZeroVector(FinslerGeoError):
    """A direction argument was zero where a nonzero vector is required."""


class NonConvexNorm(FinslerGeoError):
    """A norm fails strong convexity; for Randers data this means ‖b‖_a ≥ 1."""

    def __init__(self, message: str, b_norm: float | None = None):
        self.b_norm = b_norm
        super().__init__(message)


class NotPositiveDefinite(FinslerGeoError):
    """A matrix that must be symmetric positive definite is not."""


class SingularTensor(FinslerGeoError):
    """A fundamental tensor is singular or indefinite at the evaluation point."""


class DegenerateVector(FinslerGeoError):
    """A tangent-space projection vanished where the criterion needs it nonzero."""


class ChartDomain(FinslerGeoError):
    """A coordinate left the validity region of the model's chart."""


class StepRejected(FinslerGeoError):
    """An integration step produced more norm drift than the per-step bound."""


class QuadratureDivergence(FinslerGeoError):
    """Sphere-grid refinement failed to contract; the integrand is suspect."""


class ParseError(FinslerGeoError):
    """A scenario file could not be parsed."""


class ValidationError(FinslerGeoError):
    """A scenario parsed but violates a declared constraint."""
