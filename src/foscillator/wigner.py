"""Wigner quasidistributions on truncated number bases.

The standard function is computed from the closed-form displacement matrix
elements (associated Laguerre polynomials, Cahill & Glauber 1969), evaluated
diagonal by diagonal with the three-term Laguerre recurrence, so only
density-matrix entries that are actually populated cost anything.

Two deformed variants are provided, differing in which parity enters the
trace against the exponential of the deformed ladder generator:

* ``usual_parity``     W = 2 Tr[P rho U_f(alpha)]; provably real, because
  the ordinary parity anticommutes with the deformed ladder operator.
* ``deformed_parity``  W = 2 Tr[P_f rho U_f(alpha)] with
  P_f = diag(exp(i pi n f(n)^2)); complex in general.

U_f is the exponential of 2 (alpha A_f+ - alpha* A_f), evaluated on a padded
basis and trimmed back, since the exponential mixes levels beyond any fixed
truncation.  With alpha = r e^(i phi) and D = diag(e^(i n phi)) the generator
is D 2r (A_f+ - A_f) D+, and H = i (A_f+ - A_f) is Hermitian and tridiagonal,
so one eigendecomposition of H gives U_f at every point of a grid
(Man'ko, Marmo, Sudarshan & Zaccaria, Phys. Scr. 55, 528 (1997)).

Both maps are batched numpy contractions over blocks of ``_BLOCK`` points,
which bounds their working memory whatever the grid size; neither starts
threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classical import _cos_sin
from .errors import DomainError, NumericToleranceError
from .fock import DensityMatrix, _log_factorials, deformed_lowering
from .nonlinearity import NonlinearitySpec, require_positive

WIGNER_VARIANTS = ("usual_parity", "deformed_parity")

# Entries below this magnitude contribute nothing at double precision.
_RHO_SKIP = 1e-16
# Absolute error allowed in the phases 2 r lambda of the deformed exponential.
_PHASE_TOL = 1e-10
# Phase-space points evaluated together by the batched maps.
_BLOCK = 8192


@dataclass(frozen=True)
class WignerGrid:
    """W sampled on a cartesian grid; values[i, j] = W(q_axis[i], p_axis[j])."""

    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray

    def normalization(self) -> float:
        """Integral of Re W over the grid with the dq dp / (2 pi) measure."""
        inner = np.trapezoid(self.values.real, self.p_axis, axis=1)
        return float(np.trapezoid(inner, self.q_axis) / (2.0 * math.pi))

    def max_imag(self) -> float:
        return float(np.max(np.abs(self.values.imag)))

    def min_real(self) -> float:
        return float(np.min(self.values.real))


def _in_blocks(evaluate, points: np.ndarray) -> np.ndarray:
    """``evaluate`` applied to consecutive blocks of ``_BLOCK`` points."""
    out = np.empty(points.shape, dtype=complex)
    for start in range(0, points.size, _BLOCK):
        out[start:start + _BLOCK] = evaluate(points[start:start + _BLOCK])
    return out


def _expi(theta: np.ndarray) -> np.ndarray:
    """exp(i theta), its cosine and sine from ``_cos_sin``."""
    c, s = _cos_sin(theta)
    out = np.empty(c.shape, dtype=complex)
    out.real = c
    out.imag = s
    return out


def _laguerre_diagonals(k, x, count: int) -> np.ndarray:
    """out[n] = sqrt(n!/(n+k)!) x^(k/2) e^(-x/2) L_n^(k)(x) for n < count.

    At x = |beta|^2 this is <n+k|D(beta)|n> stripped of its phase
    e^(i k arg beta), so every value is bounded by 1: carried in this
    normalisation, the three-term Laguerre recurrence
    (n+1) L_(n+1) = (2n+1+k-x) L_n - (n+k) L_(n-1) cannot overflow, and only
    its start needs factorials (as a log table).  ``k`` and ``x`` broadcast
    against each other.
    """
    k = np.asarray(k)
    x = np.asarray(x, dtype=float)
    out = np.empty((count,) + np.broadcast_shapes(k.shape, x.shape))
    log_factorial = _log_factorials(int(np.max(k)))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_power = np.where(k == 0, 0.0, 0.5 * k * np.log(x))
    out[0] = np.exp(log_power - 0.5 * x - 0.5 * log_factorial[k])
    levels = np.arange(count - 1).reshape((-1,) + (1,) * k.ndim)
    coefs = [2 * levels + 1 + k, np.sqrt(levels * (levels + k)),
             1.0 / np.sqrt((levels + 1) * (levels + k + 1))]
    # Python floats for a scalar k: the loop runs once per level, on every diagonal.
    a, b, c = (list(v) if k.ndim else v.ravel().tolist() for v in coefs)
    back_term = np.empty(out.shape[1:])
    for n in range(count - 1):
        nxt = out[n + 1]
        np.subtract(a[n], x, out=nxt)
        nxt *= out[n]
        if n:
            nxt -= np.multiply(b[n], out[n - 1], out=back_term)
        nxt *= c[n]
    return out


def displacement_matrix(beta: complex, dim: int) -> np.ndarray:
    """Number-basis matrix of the displacement operator D(beta).

    Exact infinite-space matrix elements restricted to the first dim levels:
    for m >= n, <m|D|n> = sqrt(n!/m!) beta^(m-n) e^(-|beta|^2/2) L_n^(m-n)(|beta|^2),
    and the upper triangle follows by replacing beta with -conj(beta).
    """
    if dim < 2:
        raise DomainError("operator truncation needs dim >= 2")
    beta = complex(beta)
    unit = beta / abs(beta) if beta else 1.0
    diagonals = _laguerre_diagonals(np.arange(dim), abs(beta) ** 2, dim)
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        rows = np.arange(dim - k)
        magnitude = diagonals[: dim - k, k]
        out[rows + k, rows] = magnitude * unit ** k
        if k > 0:
            out[rows, rows + k] = magnitude * (-unit.conjugate()) ** k
    return out


def _standard_block(m: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # Diagonal k of rho meets diagonal k of D(beta): the recurrence runs up to
    # the last populated entry of the diagonal, and a diagonal with none is
    # skipped.
    x = beta.real ** 2 + beta.imag ** 2
    unit = _expi(np.angle(beta))
    phase = np.ones_like(beta)
    sign = np.where(np.arange(m.shape[0]) % 2 == 0, 1.0, -1.0)
    acc = np.zeros_like(beta)
    for k in range(m.shape[0]):
        if k:
            phase *= unit
        lower = np.diagonal(m, -k)
        upper = np.diagonal(m, k)
        kept = np.nonzero(np.maximum(np.abs(lower), np.abs(upper)) >= _RHO_SKIP)[0]
        if kept.size == 0:
            continue
        count = kept[-1] + 1
        weight = np.zeros(count)
        weight[kept] = sign[kept]
        lo, up = weight * lower[:count], weight * upper[:count]
        sums = np.stack([lo.real, lo.imag, up.real, up.imag]) @ _laguerre_diagonals(k, x, count)
        if k == 0:
            acc += sums[0] + 1j * sums[1]
        else:
            acc += (sums[0] + 1j * sums[1]) * phase.conj() + (sums[2] + 1j * sums[3]) * phase
    return 2.0 * acc


def wigner_values(rho: DensityMatrix, q, p) -> np.ndarray:
    """W(q, p) = 2 Tr[P rho D(sqrt(2)(q + i p))], broadcast over q, p.

    No hermiticity of rho is assumed in the sum, so the imaginary part is a
    faithful diagnostic of the input rather than zero by construction.
    """
    qa, pa = np.broadcast_arrays(np.asarray(q, float), np.asarray(p, float))
    beta = (math.sqrt(2.0) * (qa + 1j * pa)).ravel()
    m = rho.matrix
    w = _in_blocks(lambda block: _standard_block(m, block), beta).reshape(qa.shape)
    return complex(w) if np.ndim(q) == 0 and np.ndim(p) == 0 else w


def _warn_if_grid_small(rho: DensityMatrix, q_axis: np.ndarray, p_axis: np.ndarray) -> None:
    # Support estimate from the level where cumulative population reaches
    # 1 - 1e-6; a grid stopping short of it cannot hold the tail mass.
    pops = np.real(np.diagonal(rho.matrix))
    covered = np.nonzero(np.cumsum(pops) >= 1.0 - 1e-6)[0]
    n_top = int(covered[0]) if covered.size else rho.dim - 1
    reach = math.sqrt(2.0 * n_top + 1.0) + 2.0
    extent = min(np.max(np.abs(q_axis)), np.max(np.abs(p_axis)))
    if extent < reach:
        warnings.warn(
            f"grid extent {extent:.2f} is below the state support estimate {reach:.2f}; "
            "tail mass may be lost",
            RuntimeWarning,
            stacklevel=3,
        )


def wigner_from_density(rho: DensityMatrix, q_axis, p_axis) -> WignerGrid:
    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    _warn_if_grid_small(rho, q_axis, p_axis)
    qq, pp = np.meshgrid(q_axis, p_axis, indexing="ij")
    return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=wigner_values(rho, qq, pp))


def deformed_parity_operator(spec: NonlinearitySpec, dim: int) -> np.ndarray:
    """diag(exp(i pi n f(n)^2)); reduces to (-1)^n for the identity profile."""
    fvals = require_positive(spec, dim - 1)
    n = np.arange(dim, dtype=float)
    return np.exp(1j * math.pi * n * fvals * fvals)


def _check_phase_precision(r_max: float, eigenvalues: np.ndarray) -> None:
    # U_f = V diag(e^(-2i r lambda)) V+: a phase of size s carries a rounding
    # error of eps * s, which no later step can recover.
    span = 2.0 * r_max * float(np.max(np.abs(eigenvalues)))
    error = np.finfo(float).eps * span
    if error > _PHASE_TOL:
        raise NumericToleranceError(
            f"deformed exponential lost phase precision: phases 2 r lambda reach {span:.3e} rad, "
            f"so they carry an absolute error of {error:.3e}"
        )


def _diagonal_weights(weighted: np.ndarray, vecs: np.ndarray):
    """Offsets d = 1-dim..dim-1 and T[d, k] = sum over j - m = d of weighted[m, j] V[j, k] V*[m, k]."""
    dim = weighted.shape[0]
    offsets = np.arange(1 - dim, dim)
    t = np.empty((offsets.size, vecs.shape[1]), dtype=complex)
    for i, d in enumerate(offsets):
        rows = np.arange(dim - abs(d))
        m, j = rows + max(-d, 0), rows + max(d, 0)
        t[i] = np.diagonal(weighted, d) @ (vecs[m].conj() * vecs[j])
    return offsets, t


def deformed_wigner_values(
    rho: DensityMatrix,
    spec: NonlinearitySpec,
    q,
    p,
    variant: str = "usual_parity",
    pad: int = 10,
    workers: int = None,
) -> np.ndarray:
    """Deformed transform at phase-space points, broadcast over q, p.

    One eigendecomposition H = i (A_f+ - A_f) = V diag(lambda) V+ on the
    padded basis (dim + pad) serves every point alpha = r e^(i phi):

        W(alpha) = 2 sum_k e^(-2i r lambda_k) sum_d e^(i d phi) T[d, k],

    with T[d, k] = sum over j - m = d (j, m < dim) of P_m rho_mj V_jk V*_mk.
    Raises NumericToleranceError when the phases 2 r lambda are too large to
    be carried at double precision.  ``workers`` is accepted for
    compatibility and has no effect: the evaluation starts no threads, and
    its result does not depend on it.
    """
    if variant not in WIGNER_VARIANTS:
        raise DomainError(f"unknown wigner variant {variant!r}")
    if pad < 0:
        raise DomainError("pad must be >= 0")
    dim = rho.dim
    a_f = deformed_lowering(spec, dim + pad)
    if variant == "usual_parity":
        pvec = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0).astype(complex)
    else:
        pvec = deformed_parity_operator(spec, dim)

    qa, pa = np.broadcast_arrays(np.asarray(q, float), np.asarray(p, float))
    alphas = ((qa + 1j * pa) / math.sqrt(2.0)).ravel()
    eigenvalues, vecs = np.linalg.eigh(1j * (a_f.conj().T - a_f))
    _check_phase_precision(float(np.max(np.abs(alphas), initial=0.0)), eigenvalues)
    offsets, t = _diagonal_weights(pvec[:, None] * rho.matrix, vecs[:dim])

    def block(a: np.ndarray) -> np.ndarray:
        terms = _expi(np.outer(np.angle(a), offsets)) @ t
        terms *= _expi(-2.0 * np.outer(np.abs(a), eigenvalues))
        return 2.0 * terms.sum(axis=1)

    w = _in_blocks(block, alphas).reshape(qa.shape)
    return complex(w) if np.ndim(q) == 0 and np.ndim(p) == 0 else w


def deformed_wigner(
    rho: DensityMatrix,
    spec: NonlinearitySpec,
    q_axis,
    p_axis,
    variant: str = "usual_parity",
    pad: int = 10,
    workers: int = None,
) -> WignerGrid:
    """Deformed transform on the cartesian grid q_axis x p_axis (see
    ``deformed_wigner_values``; ``workers`` has no effect)."""
    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    qq, pp = np.meshgrid(q_axis, p_axis, indexing="ij")
    vals = deformed_wigner_values(rho, spec, qq, pp, variant, pad, workers)
    return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=vals)
