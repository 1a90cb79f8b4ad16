"""Wigner quasidistributions on truncated number bases.

The standard function W(q, p) = 2 Tr[P rho D(sqrt2 (q + i p))] is expanded
in Hermite-Gauss modes: a product phi_m phi_n of oscillator eigenfunctions
along the diagonals q + y, q - y is a finite sum of products along the axes,
the Laguerre-Gauss <-> Hermite-Gauss mode decomposition of Beijersbergen et
al. (Opt. Commun. 96, 123 (1993)).  So

    W(q, p) = sum_jk C[j, k] phi_j(sqrt2 q) phi_k(sqrt2 p),

with C computed once per state through the orthogonal rotation matrices of
each order m + n, built by Risbo's stable recursion (J. Geodesy 70, 383
(1996)).  On a cartesian grid the map is two matrix products; orders past
the last populated entry of rho cost nothing.  ``displacement_matrix`` keeps
the closed Laguerre form of the displacement matrix elements (Cahill &
Glauber 1969), carried by the three-term Laguerre recurrence.

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

At scattered points both maps are batched numpy contractions over blocks
of ``_BLOCK`` points, which bounds their working memory whatever the number
of points; neither starts threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classical import _cos_sin
from .errors import DomainError, NumericToleranceError
from .fock import DensityMatrix, _log_factorials, deformed_lowering
from .hermite import hermite_functions
from .nonlinearity import NonlinearitySpec, require_positive

WIGNER_VARIANTS = ("usual_parity", "deformed_parity")

# Entries below this magnitude contribute nothing at double precision.
_RHO_SKIP = 1e-16
# Absolute error allowed in the phases 2 r lambda of the deformed exponential.
_PHASE_TOL = 1e-10
# Phase-space points evaluated together by the batched maps.
_BLOCK = 8192
# 2 sqrt(pi) (-i)^k: the transform of phi_k(sqrt2 y) over y, times the map's 2.
_FOURIER_PHASES = 2.0 * math.sqrt(math.pi) * np.array([1.0, -1j, -1.0, 1j])


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


def _laguerre_diagonals(x: float, dim: int) -> np.ndarray:
    """out[n, k] = sqrt(n!/(n+k)!) x^(k/2) e^(-x/2) L_n^(k)(x) for n, k < dim,
    the entries of ``displacement_matrix``.

    At x = |beta|^2 this is <n+k|D(beta)|n> stripped of its phase
    e^(i k arg beta), so every value is bounded by 1: carried in this
    normalisation, the three-term Laguerre recurrence
    (n+1) L_(n+1) = (2n+1+k-x) L_n - (n+k) L_(n-1) cannot overflow, and only
    its start needs factorials (as a log table).  Each step advances every
    diagonal k at once.
    """
    k = np.arange(dim)
    out = np.empty((dim, dim))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_power = np.where(k == 0, 0.0, 0.5 * k * np.log(x))
    out[0] = np.exp(log_power - 0.5 * x - 0.5 * _log_factorials(dim - 1))
    levels = np.arange(dim - 1)[:, None]
    a = 2 * levels + 1 + k
    b = np.sqrt(levels * (levels + k))
    c = 1.0 / np.sqrt((levels + 1) * (levels + k + 1))
    back_term = np.empty(dim)
    for n in range(dim - 1):
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
    diagonals = _laguerre_diagonals(abs(beta) ** 2, dim)
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        rows = np.arange(dim - k)
        magnitude = diagonals[: dim - k, k]
        out[rows + k, rows] = magnitude * unit ** k
        if k > 0:
            out[rows, rows + k] = magnitude * (-unit.conjugate()) ** k
    return out


def _rotation_step(r: np.ndarray, order: int, dim: int) -> np.ndarray:
    """R^order from R^(order-1), both kept on the columns a dim-level state uses.

    R^N[j, m] expands a product of oscillator eigenfunctions along the
    diagonals x + y, x - y in products along the axes:

        phi_m(x + y) phi_(N-m)(x - y) = sum_j R^N[j, m] phi_j(sqrt2 x) phi_(N-j)(sqrt2 y),

    the 50:50 beam splitter on the N-quantum subspace, an orthogonal
    (N+1) x (N+1) matrix.  Risbo's step (J. Geodesy 70, 383 (1996))

        N sqrt2 R^N[j, m] = sqrt(j m) R[j-1, m-1] + sqrt(j (N-m)) R[j-1, m]
                          + sqrt((N-j) m) R[j, m-1] - sqrt((N-j) (N-m)) R[j, m]

    averages two exact ladder-operator steps, so it is a contraction and its
    rounding grows only linearly with N.  Only the columns m in
    [max(0, N-dim+1), min(N, dim-1)], where rho[m, N-m] exists, are carried:
    those of R^N need no other columns of R^(N-1).  Both matrices hold one
    zero column on each side of the carried ones, which stands for a column
    of R^(N-1) that a step meets with a zero weight or that lies outside it.
    """
    lo_prev = max(0, order - dim)
    lo, hi = max(0, order - dim + 1), min(order, dim - 1)
    width = hi - lo + 1
    rows = np.sqrt(np.arange(order + 1.0))
    # sqrt(m / (2 N^2)) rounded once: orthogonal to 2.4e-15 at N = 398,
    # where sqrt(m) / (N sqrt2) drifts to 5.6e-14.
    cols = np.sqrt(np.arange(order + 1.0) / (2.0 * order * order))
    start = lo - lo_prev
    left = r[:, start:start + width] * cols[lo:hi + 1]
    right = r[:, start + 1:start + width + 1] * cols[::-1][lo:hi + 1]
    out = np.zeros((order + 1, width + 2))
    inner = out[:, 1:-1]
    np.multiply(left + right, rows[1:, None], out=inner[1:])
    left -= right
    left *= rows[:0:-1, None]
    inner[:-1] += left
    return out


def _hermite_gauss_coefficients(m: np.ndarray) -> np.ndarray:
    """C with W(q, p) = sum_jk C[j, k] phi_j(sqrt2 q) phi_k(sqrt2 p).

    <q+y|rho|q-y> is a sum over orders N = m + n of rho[m, n] times a 2-D
    Hermite function rotated by pi/4, which R^N expands in phi_j(sqrt2 q)
    phi_(N-j)(sqrt2 y); the transform over y takes phi_k to (-i)^k phi_k:

        C[j, N-j] = 2 sqrt(pi) (-i)^(N-j) sum_m R^N[j, m] rho[m, N-m].

    The orders stop at the largest m + n with |rho[m, n]| >= _RHO_SKIP.
    """
    dim = m.shape[0]
    levels, partners = np.nonzero(np.abs(m) >= _RHO_SKIP)
    top = int(np.max(levels + partners, initial=0))
    # by_order[N, j] = sum_m R^N[j, m] rho[m, N-m]; diagonal dim-1-N of the
    # column-reversed rho is rho[m, N-m] over the carried columns of R^N.
    anti = m[:, ::-1]
    by_order = np.zeros((top + 1, top + 1), dtype=complex)
    r = np.array([[0.0, 1.0, 0.0]])  # R^0 = [[1]] between its zero columns
    for order in range(top + 1):
        if order:
            r = _rotation_step(r, order, dim)
        by_order[order, :order + 1] = r[:, 1:-1] @ np.diagonal(anti, dim - 1 - order)
    orders, j = np.tril_indices(top + 1)
    c = np.zeros_like(by_order)
    c[j, orders - j] = by_order[orders, j]
    c *= _FOURIER_PHASES[np.arange(top + 1) % 4]
    return c


def wigner_values(rho: DensityMatrix, q, p) -> np.ndarray:
    """W(q, p) = 2 Tr[P rho D(sqrt(2)(q + i p))], broadcast over q, p.

    No hermiticity of rho is assumed in the sum, so the imaginary part is a
    faithful diagnostic of the input rather than zero by construction.
    """
    qa, pa = np.broadcast_arrays(np.asarray(q, float), np.asarray(p, float))
    c = _hermite_gauss_coefficients(rho.matrix)
    top = c.shape[0] - 1

    def block(z: np.ndarray) -> np.ndarray:
        # real products throughout: no complex copy of a (top + 1) x block table
        phi_q = hermite_functions(top, math.sqrt(2.0) * z.real)
        phi_p = hermite_functions(top, math.sqrt(2.0) * z.imag)
        out = np.empty(z.shape, dtype=complex)
        out.real = np.einsum("jb,jb->b", phi_q, c.real @ phi_p)
        out.imag = np.einsum("jb,jb->b", phi_q, c.imag @ phi_p)
        return out

    w = _in_blocks(block, (qa + 1j * pa).ravel()).reshape(qa.shape)
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
    c = _hermite_gauss_coefficients(rho.matrix)
    top = c.shape[0] - 1
    phi_q = hermite_functions(top, math.sqrt(2.0) * q_axis.ravel())
    phi_p = hermite_functions(top, math.sqrt(2.0) * p_axis.ravel())
    return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=phi_q.T @ c @ phi_p)


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
