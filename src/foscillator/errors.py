"""Exception types shared across the package.

Validation failures (bad arguments, degenerate configurations) derive from
ValueError so callers can treat them uniformly; numeric-quality failures
(a computation that ran but missed its accuracy contract) derive from
RuntimeError and are kept distinct because they usually indicate a grid,
truncation, or tolerance problem rather than a bad input.
"""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateDeformationError(DomainError):
    """A deformation profile hit f(n) <= 0 where a positive value is required."""


class DegenerateRayError(ValueError):
    """Tomography ray with mu = nu = 0; the line integral is undefined."""


class TruncationError(ValueError):
    """Requested basis size too small for the state being represented."""


class SeriesDivergenceError(ValueError):
    """Thermal series terms stopped decaying; the weight map grows too fast."""


class NumericToleranceError(RuntimeError):
    """A computed quantity violated its accuracy contract."""
