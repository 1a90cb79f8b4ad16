"""Exception types shared across the package.

Validation failures (bad arguments, degenerate configurations) derive from
ValueError so callers can treat them uniformly; numeric-quality failures
(a computation that ran but missed its accuracy contract) derive from
RuntimeError and are kept distinct because they usually indicate a grid,
truncation, or tolerance problem rather than a bad input.  The input rules
live here too: ``_count`` for integers; ``_real`` for real numbers and
arrays, in two halves, the type half ``_read_real`` that the kernels
``eval_f``, ``frequency`` and ``hermite_functions`` use alone, since their
domains hold infinities, and the finiteness half ``_finite``; and
``_complex`` for complex numbers and arrays, read by the same two halves.
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
    """``value`` as a float, the one rule for every real argument: ``_read_real``,
    then ``_finite``, which raises ``error`` (rays pass DegenerateRayError).  A
    finite Python float returns from this small frame."""
    if type(value) is float and math.isfinite(value):
        return value
    return _finite(_read_real(value, name, array), name, error)


def _read_real(value, name: str, array: bool = False):
    """The type half of the rule: ``value`` as a float, and with ``array`` an
    array or nested list of numbers as a float ndarray (an ``iuf`` array as
    itself).  DomainError "``name`` must be a number, got ..." for a bool, a
    string, None, a complex number, an int past the float range or anything
    else, naming the first bad entry.  NaN and +-inf pass."""
    if array and isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value.astype(float, copy=False)
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    elif array:
        items = np.asarray(value, dtype=object)
        return np.array([_read_real(v, name) for v in items.flat], dtype=float).reshape(items.shape)
    raise DomainError(f"{name} must be a number, got {value!r}")


def _finite(x, name: str, error: type = DomainError):
    """``x``, a number or a real or complex array; ``error`` "``name`` must be
    finite, got ..." naming its first NaN or infinite entry."""
    if math.isfinite(x) if type(x) is float else np.isfinite(x).all():
        return x
    bad = x if type(x) is float else x[~np.isfinite(x)][0].item()
    raise error(f"{name} must be finite, got {bad!r}")


def _complex(value, name: str, array: bool = False):
    """``value`` as a complex number, its parts read by ``_real`` as Re ``name``
    and Im ``name``; with ``array``, a complex ndarray (an ``iufc`` array as
    itself, a nested list entry by entry), each entry a complex number or
    read by ``_read_real``, then checked by ``_finite``."""
    if array and isinstance(value, np.ndarray) and value.dtype.kind in "iufc":
        return _finite(value.astype(complex, copy=False), name)
    if array:
        items = np.asarray(value, dtype=object)
        entries = [v if isinstance(v, (complex, np.complexfloating)) else _read_real(v, name)
                   for v in items.flat]
        return _finite(np.array(entries, dtype=complex).reshape(items.shape), name)
    if isinstance(value, (complex, np.complexfloating)):
        return complex(_real(value.real, f"Re {name}"), _real(value.imag, f"Im {name}"))
    return complex(_real(value, name))
