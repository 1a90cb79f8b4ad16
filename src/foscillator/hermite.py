"""Harmonic oscillator eigenfunctions on the line.

phi_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)), generated by the
normalized three-term recurrence so large n stays finite (the textbook
H_n * exp / factorial route overflows near n ~ 150).

The recurrence starts at phi_0 = pi^(-1/4) e^(-x^2/2), which is subnormal
past x^2/2 = 708 (|x| ~ 37.6) and 0 past |x| ~ 38.6, although phi_n is
O(0.1) out to its turning point sqrt(2n + 1).  At those points the
recurrence starts from pi^(-1/4) instead, divides by 2^500 whenever a value
passes 2^500, and puts the Gaussian and the divisions back in the exponent
of each value: sign(v) exp(log|v| + log scale - x^2/2).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, _count, _read_real

# e^(-x^2/2) is a normal double above this exponent.
_GAUSS_EXPONENT_MIN = -708.0
# Powers of two that keep the unweighted recurrence inside the double range.
_RESCALE = 2.0 ** 500
_LOG_RESCALE = 500.0 * math.log(2.0)
# Past this |x|, x^2/2 > 5e299 and every phi_n of order below 1e296
# underflows; x is clamped to it, since x^2, and x times a value near
# _RESCALE, overflow soon after.  The tables there are zeros with the sign
# of phi_n beyond its last zero, as the recurrence gives them.
_X_CLAMP = 1e150


def _scaled_columns(n_max: int, x: np.ndarray) -> np.ndarray:
    """phi_0 .. phi_n_max at the points x of a 1-D array, carried without
    the Gaussian e^(-x^2/2) that underflows there."""
    out = np.empty((n_max + 1, x.size))
    prev = np.zeros(x.size)
    cur = np.full(x.size, np.pi ** -0.25)
    log_scale = -0.5 * x * x
    for n in range(n_max + 1):
        with np.errstate(divide="ignore"):
            out[n] = np.sign(cur) * np.exp(np.log(np.abs(cur)) + log_scale)
        if n == n_max:
            break
        prev, cur = cur, np.sqrt(2.0 / (n + 1)) * x * cur - np.sqrt(n / (n + 1.0)) * prev
        big = np.abs(cur) > _RESCALE
        if big.any():
            cur[big] /= _RESCALE
            prev[big] /= _RESCALE
            log_scale[big] += _LOG_RESCALE
    return out


def hermite_functions(n_max: int, x) -> np.ndarray:
    """Stack phi_0 .. phi_n_max at x, NaN refused, +-inf clamped; shape (n_max+1,) + x.shape."""
    n_max = _count(n_max, 0, "n_max must be >= 0")
    xa = np.clip(_read_real(x, "x", array=True), -_X_CLAMP, _X_CLAMP)
    if np.isnan(xa).any():
        raise DomainError("x must not be NaN")
    out = np.empty((n_max + 1,) + xa.shape)
    exponent = -0.5 * xa * xa
    out[0] = np.pi ** -0.25 * np.exp(exponent)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * xa * out[0]
    for n in range(1, n_max):
        out[n + 1] = (
            np.sqrt(2.0 / (n + 1)) * xa * out[n]
            - np.sqrt(n / (n + 1.0)) * out[n - 1]
        )
    far = exponent < _GAUSS_EXPONENT_MIN
    if far.any():
        out[:, far] = _scaled_columns(n_max, xa[far])
    return out
