"""Exception types shared across the package.

Validation failures (bad arguments, degenerate configurations) derive from
ValueError so callers can treat them uniformly; numeric-quality failures
(a computation that ran but missed its accuracy contract) derive from
RuntimeError and are kept distinct because they usually indicate a grid,
truncation, or tolerance problem rather than a bad input.
"""

import operator


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateDeformationError(DomainError):
    """A deformation profile hit f(n) <= 0 where a positive value is required."""


class DegenerateRayError(ValueError):
    """Tomography ray with mu = nu = 0; the line integral is undefined."""


class TruncationError(ValueError):
    """Requested basis size too small for the state being represented."""


class SeriesDivergenceError(ValueError):
    """A Gibbs sum diverges: the spectrum it sums is unbounded below."""


class NumericToleranceError(RuntimeError):
    """A computed quantity violated its accuracy contract."""


def _count(value, minimum: int, message: str) -> int:
    """``value`` as an int, the one rule for every size, level, order and
    padding: DomainError(``message``) below ``minimum``, and naming the value
    if it is a bool or anything else ``operator.index`` refuses, such as 2.5."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None:
        raise DomainError(f"{message}: {value!r} is not an integer")
    if n < minimum:
        raise DomainError(message)
    return n
