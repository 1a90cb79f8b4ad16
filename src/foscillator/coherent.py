"""Deformed coherent states: eigenvectors of the deformed lowering operator.

Weights follow c_n ~ alpha^n / (F(n) sqrt(n!)) with the running profile
product F(n) = f(0) f(1) ... f(n).  Everything is assembled in log space:
for growing profiles the product overflows long before the state itself
stops being perfectly representable.

The two-mode construction shares one profile product over the total level
n1 + n2; for any non-identity profile that coupling is what entangles the
modes, and the Schmidt spectrum quantifies it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, TruncationError, _complex, _count, _real
from .fock import (DensityMatrix, _coherent_amplitudes, _log_factorials, _log_powers,
                   _normalized, density_from_amplitudes)
from .hermite import hermite_functions
from .nonlinearity import NonlinearitySpec, eval_f, log_f_factorial

_TOP_WEIGHT_TOL = 1e-12  # probability left on the top level (two modes: top row and column)
_SCHMIDT_SEPARABLE_TOL = 1e-9
_EDGE_LEVELS = 5  # top levels an eigen residual skips


@dataclass(frozen=True)
class CoherentStateVector:
    alpha: complex
    spec: NonlinearitySpec
    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> DensityMatrix:
        return density_from_amplitudes(self.amplitudes)


@dataclass(frozen=True)
class TwoModeState:
    alpha1: complex
    alpha2: complex
    spec: NonlinearitySpec
    coefficients: np.ndarray


@dataclass(frozen=True)
class SchmidtSpectrum:
    singular_values: np.ndarray
    entropy: float

    @property
    def sigma2(self) -> float:
        sv = self.singular_values
        return float(sv[1]) if sv.size > 1 else 0.0

    @property
    def separable(self) -> bool:
        return self.sigma2 < _SCHMIDT_SEPARABLE_TOL


def nonlinear_coherent_state(
    alpha: complex, spec: NonlinearitySpec, dim: int
) -> CoherentStateVector:
    """Normalized truncated eigenvector of A_f with eigenvalue alpha.

    The last retained weight must carry less than 1e-12 probability, so the
    truncation defect of the eigenvalue relation stays at the roundoff level.
    """
    amps = _coherent_amplitudes(alpha, spec, dim)
    if abs(amps[-1]) ** 2 >= _TOP_WEIGHT_TOL:
        raise TruncationError(
            f"top weight {abs(amps[-1])**2:.3e} exceeds the tail criterion; increase dim"
        )
    return CoherentStateVector(alpha=complex(alpha), spec=spec, amplitudes=amps)


def position_wavefunction(state: CoherentStateVector, x) -> np.ndarray:
    """psi(x) = sum_n c_n phi_n(x) in the oscillator eigenbasis."""
    phi = hermite_functions(state.dim - 1, _real(x, "x", array=True))
    vals = np.tensordot(state.amplitudes, phi, axes=(0, 0))
    return complex(vals) if np.ndim(x) == 0 else vals


def two_mode_coherent_state(
    alpha1: complex,
    alpha2: complex,
    spec: NonlinearitySpec,
    dims: Tuple[int, int],
) -> TwoModeState:
    """Joint weights c[n1, n2] ~ alpha1^n1 alpha2^n2 / (sqrt(n1! n2!) F(n1+n2)).

    The profile product couples the modes through the total level only; the
    identity profile factorizes into a product of two ordinary coherent
    states.
    """
    alpha1, alpha2 = _complex(alpha1, "alpha1"), _complex(alpha2, "alpha2")
    try:
        pair = np.shape(dims) == (2,)
    except ValueError:  # ragged, such as ([1, 2], 3)
        pair = False
    if not pair:
        raise DomainError("two-mode state needs a pair of dims")
    d1, d2 = (_count(v, 2, "two-mode state needs dims >= 2") for v in dims)
    logf = log_f_factorial(spec, d1 + d2 - 2)
    r1, ph1 = cmath.polar(alpha1)
    r2, ph2 = cmath.polar(alpha2)
    n1 = np.arange(d1, dtype=float)[:, None]
    n2 = np.arange(d2, dtype=float)[None, :]
    l1, l2 = _log_powers(r1, n1), _log_powers(r2, n2)
    total = (n1 + n2).astype(int)
    log_fact = _log_factorials(max(d1, d2) - 1)
    logmag = l1 + l2 - 0.5 * log_fact[:d1, None] - 0.5 * log_fact[None, :d2] - logf[total]
    coeff = _normalized(logmag, ph1 * n1 + ph2 * n2)
    edge = float(np.sum(np.abs(coeff[-1, :]) ** 2) + np.sum(np.abs(coeff[:, -1]) ** 2))
    if edge >= _TOP_WEIGHT_TOL:
        raise TruncationError(
            f"edge weight {edge:.3e} exceeds the tail criterion; increase dims"
        )
    return TwoModeState(
        alpha1=complex(alpha1), alpha2=complex(alpha2), spec=spec, coefficients=coeff
    )


def eigen_residual(state: CoherentStateVector) -> float:
    """Norm of A_f v - alpha v away from the truncation edge.

    The top few components always carry an O(|alpha| |c_top|) defect because
    the ladder has nowhere to lower from above the cut, so the top
    ``_EDGE_LEVELS`` are excluded from the residual.
    """
    resid = _lowering_residual(state.spec, state.amplitudes[:, None], state.alpha)
    return float(np.linalg.norm(resid[:max(1, state.dim - _EDGE_LEVELS)]))


def two_mode_eigen_residuals(state: TwoModeState):
    """Residuals of A_i c = alpha_i c for both modes, edges excluded.

    Each deformed mode operator lowers one index and evaluates the profile
    at the total level: (A_1 c)[n1, n2] = sqrt(n1+1) f(n1+n2+1) c[n1+1, n2].
    """
    c = state.coefficients
    k1, k2 = (max(1, d - _EDGE_LEVELS) for d in c.shape)
    r1 = _lowering_residual(state.spec, c, state.alpha1)
    # mode 2 lowers the column index: mode 1's formula on the transpose
    r2 = _lowering_residual(state.spec, c.T, state.alpha2)
    return float(np.linalg.norm(r1[:k1, :k2])), float(np.linalg.norm(r2[:k2, :k1]))


def _lowering_residual(spec: NonlinearitySpec, c: np.ndarray, alpha: complex) -> np.ndarray:
    """A c - alpha c for the mode that lowers the row index of ``c``."""
    n1 = np.arange(c.shape[0] - 1, dtype=float)[:, None]
    n2 = np.arange(c.shape[1], dtype=float)[None, :]
    ac = np.zeros_like(c)
    ac[:-1] = np.sqrt(n1 + 1.0) * eval_f(spec, (n1 + n2) + 1.0) * c[1:]
    return ac - alpha * c


def schmidt_spectrum(state: TwoModeState | np.ndarray) -> SchmidtSpectrum:
    """Singular values of the coefficient matrix and the entanglement entropy.

    ``state`` is a TwoModeState or a coefficient matrix, read as complex by
    the rule.  Entropy is -sum sigma^2 log sigma^2 over nonzero singular
    values; a second singular value below 1e-9 marks the state as separable.
    """
    coeff = (state.coefficients if isinstance(state, TwoModeState)
             else _complex(state, "coefficient matrix", array=True))
    if coeff.ndim != 2:
        raise DomainError("schmidt spectrum needs a two-index coefficient matrix")
    sv = np.linalg.svd(coeff, compute_uv=False)
    p = sv * sv
    p = p[p > 1e-300]
    entropy = float(-np.sum(p * np.log(p)))
    return SchmidtSpectrum(singular_values=sv, entropy=entropy)
