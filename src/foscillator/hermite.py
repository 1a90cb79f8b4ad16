"""Harmonic oscillator eigenfunctions on the line.

phi_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)), generated by the
normalized three-term recurrence so large n stays finite (the textbook
H_n * exp / factorial route overflows near n ~ 150).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def hermite_functions(n_max: int, x) -> np.ndarray:
    """Stack phi_0 .. phi_n_max evaluated at x; shape (n_max+1,) + x.shape."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    xa = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + xa.shape)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * xa * xa)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * xa * out[0]
    for n in range(1, n_max):
        out[n + 1] = (
            np.sqrt(2.0 / (n + 1)) * xa * out[n]
            - np.sqrt(n / (n + 1.0)) * out[n - 1]
        )
    return out

