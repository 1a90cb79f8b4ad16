"""Exception types shared across the package, and the input rules.

Validation failures (bad arguments, degenerate configurations) derive from
ValueError so callers can treat them uniformly; numeric-quality failures
(a computation that ran but missed its accuracy contract) derive from
RuntimeError and are kept distinct because they usually indicate a grid,
truncation, or tolerance problem rather than a bad input.  Every input rule
of the package lives here:

* ``_count`` for sizes, levels, orders and padding;
* ``_real`` for real numbers and arrays, in two halves: the type half
  ``_read_real``, which the kernels ``eval_f``, ``frequency`` and
  ``hermite_functions`` and the densities use alone, since their domains hold
  infinities, and the finiteness half ``_finite``;
* ``_complex`` for complex numbers and arrays, read by the same two halves;
* ``_sign`` for a bound at 0: ``> 0`` for a support radius, a width and
  beta, ``>= 0`` for the levels and energies of a profile;
* ``_points`` for the q, p pairs of the Wigner maps, and its broadcast half
  ``_pair`` for the classical points and densities;
* ``_check_axis`` for the 1-D axes of tomograms and Wigner grids;
* ``_instance`` for the objects: a profile, a state, a density or a point.
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


def _sign(x, name: str, strict: bool = True):
    """``x``, a float or a float ndarray, the one sign rule: DomainError
    "``name`` must be > 0, got ..." (">= 0" unless ``strict``) naming its
    first entry in C order that is not, NaN among them.  +inf passes."""
    low = x if type(x) is float else x.min(initial=math.inf)
    if low > 0.0 if strict else low >= 0.0:
        return x
    flat = np.ravel(x)
    first = float(flat[np.argmin(flat > 0.0 if strict else flat >= 0.0)])
    raise DomainError(f"{name} must be {'>' if strict else '>='} 0, got {first!r}")


def _pair(a, b, names: str = "q and p"):
    """``a`` and ``b``, floats or float ndarrays read by a half of ``_real``,
    broadcast together, or as they are when their shapes are equal;
    DomainError "``names`` do not broadcast" naming both shapes otherwise."""
    if getattr(a, "shape", ()) == getattr(b, "shape", ()):
        return a, b
    try:
        return np.broadcast_arrays(a, b)
    except ValueError:
        shapes = f"{np.shape(a)} and {np.shape(b)}"
        raise DomainError(f"{names} do not broadcast: shapes {shapes}") from None


def _points(q, p) -> tuple:
    """The points of a Wigner map: q and p read by ``_real``, then ``_pair``."""
    return _pair(_real(q, "coordinate q", array=True), _real(p, "coordinate p", array=True))


def _check_axis(axis, name: str = "X") -> np.ndarray:
    """``axis`` as a 1-D float array, also for Wigner grids; DomainError naming it otherwise."""
    x = _real(axis, f"the {name} axis", array=True)
    if np.ndim(x) != 1:
        raise DomainError(f"the {name} axis must be 1-D, got shape {np.shape(x)}")
    return x


def _instance(value, kind: type, name: str):
    """``value`` if it is a ``kind`` (a subclass among them, such as a
    transported density), the one rule for every object argument;
    DomainError "``name`` must be a ``kind``, got ..." naming its type otherwise."""
    if isinstance(value, kind):
        return value
    raise DomainError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
