"""Exception types shared across the package.

Validation failures (bad arguments, degenerate configurations) derive from
ValueError so callers can treat them uniformly; numeric-quality failures
(a computation that ran but missed its accuracy contract) derive from
RuntimeError and are kept distinct because they usually indicate a grid,
truncation, or tolerance problem rather than a bad input.  The two input
rules live here too: ``_count`` for integers and ``_real`` for real numbers.
"""

import math
import operator

import numpy as np


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


def _real(value, name: str, array: bool = False, error: type = DomainError):
    """``value`` as a float, the one rule for every real argument: DomainError
    "``name`` must be a number, got ..." for a bool, a string, None, a
    complex number, an int past the float range or anything else, and
    ``error`` (rays pass DegenerateRayError) "``name`` must be finite, got ..."
    for nan and +-inf.  A finite Python float returns from this small frame;
    ``_read_real`` reads the rest.  With ``array``, an array or nested list
    of numbers is read as a float ndarray (a float64 array as itself), and a
    message names its first bad entry."""
    if type(value) is float and math.isfinite(value):
        return value
    return _read_real(value, name, array, error)


def _read_real(value, name: str, array: bool, error: type):
    """``_real`` for any value but a finite Python float."""
    x = None
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            pass
        if x is not None and math.isfinite(x):
            return x
    elif array and isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        x = value.astype(float, copy=False)
    elif array:
        items = np.asarray(value, dtype=object)
        x = np.array([_real(v, name, error=error) for v in items.flat]).reshape(items.shape)
    if x is None:
        raise DomainError(f"{name} must be a number, got {value!r}")
    finite = np.isfinite(x)
    if not finite.all():
        raise error(f"{name} must be finite, got {float(np.asarray(x)[~finite][0])!r}")
    return x


def _complex(value, name: str) -> complex:
    """``value`` as a complex number, its parts read by ``_real`` as Re ``name`` and Im ``name``."""
    if isinstance(value, (complex, np.complexfloating)):
        return complex(_real(value.real, f"Re {name}"), _real(value.imag, f"Im {name}"))
    return complex(_real(value, name))
