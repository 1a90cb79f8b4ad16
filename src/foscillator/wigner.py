"""Wigner quasidistributions on truncated number bases.

The standard function W(q, p) = 2 Tr[P rho D(sqrt2 (q + i p))] is expanded
in Hermite-Gauss modes: a product phi_m phi_n of oscillator eigenfunctions
along the diagonals q + y, q - y is a finite sum of products along the axes,
the Laguerre-Gauss <-> Hermite-Gauss mode decomposition of Beijersbergen et
al. (Opt. Commun. 96, 123 (1993)).  So

    W(q, p) = sum_jk C[j, k] phi_j(sqrt2 q) phi_k(sqrt2 p),

with C computed once per state through the orthogonal rotation matrices of
each order m + n, built by Risbo's stable recursion (J. Geodesy 70, 383
(1996)).  These matrices do not depend on the state: those of orders up to
``_CACHED_ORDER`` (every order of a state of up to 64 levels) are built once
per process and kept read-only in stacks of 16 consecutive orders, 6.7 MB
at the cap, and a state's cached orders are contracted with its
anti-diagonals in one batched product per stack; higher orders are stepped
per state from the last cached one.  On a cartesian grid the map is two
matrix products with the Hermite tables of its axes.  A table depends only
on its axis, so one table per distinct axis (of up to ``_AXIS_POINTS``
points, the last ``_AXIS_TABLES`` axes) is built to the cap and kept for
the process.  Orders past the last populated entry of rho cost nothing.

Two deformed variants are provided, differing in which parity enters the
trace against the exponential of the deformed ladder generator:

* ``usual_parity``     W = 2 Tr[P rho U_f(alpha)]; provably real, because
  the ordinary parity anticommutes with the deformed ladder operator.
* ``deformed_parity``  W = 2 Tr[P_f rho U_f(alpha)] with
  P_f = diag(exp(i pi n f(n)^2)); complex in general.

U_f is the exponential of 2 (alpha A_f+ - alpha* A_f), evaluated on a padded
basis and trimmed back, since the exponential mixes levels beyond any fixed
truncation.  With alpha = r e^(i phi) and D_phi = diag(e^(i n phi)) the
generator is -2i r D_phi H D_phi+, where H = i (A_f+ - A_f) is Hermitian and
tridiagonal (Man'ko, Marmo, Sudarshan & Zaccaria, Phys. Scr. 55, 528 (1997)).
H is itself a diagonal similarity of a real matrix: S = D+ H D with
D = diag(i^n) is real, symmetric and tridiagonal, and its off-diagonal is
A_f's superdiagonal sqrt(n) f(n).  So one real eigendecomposition
S = V diag(lambda) V^T serves every point of a map, its eigenvectors are
real, and the factor i^d that D puts on offset d joins the angular factor:

    W(alpha) = 2 sum_d z^d sum_k e^(-2i r lambda_k) T[d, k],   z = i e^(i phi).

The powers z^d come from z = i alpha / |alpha| by repeated multiplication,
the negative ones as conjugates; each product adds at most a few eps, so
|z^d - (i e^(i phi))^d| <= 3 |d| eps (1.7 |d| eps is the worst seen over
random points).  The phases e^(-2i r lambda) depend on r alone and are
evaluated once per distinct radius of a block: the 441 points of a
square 21 x 21 grid centred on the origin have 106 distinct radii.

At scattered points both maps are batched numpy contractions over blocks
of ``_BLOCK`` points, which bounds their working memory whatever the number
of points; neither starts threads.  Grid axes must be 1-D, and scattered
q and p must broadcast, by the rules ``_check_axis`` and ``_points`` of
``errors``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .classical import _cos_sin
from .errors import DomainError, NumericToleranceError, _check_axis, _count, _instance, _points
from .fock import _DIM_RULE, DensityMatrix, deformed_lowering
from .hermite import hermite_functions
from .nonlinearity import NonlinearitySpec, require_positive

WIGNER_VARIANTS = ("usual_parity", "deformed_parity")

# Entries below this magnitude contribute nothing at double precision.
_RHO_SKIP = 1e-16
# Absolute error allowed in the phases 2 r lambda of the deformed exponential.
_PHASE_TOL = 1e-10
# Phase-space points evaluated together by the batched maps.
_BLOCK = 8192
# Highest order whose rotation matrix is kept for the life of the process;
# orders 0..126 cover dim <= 64.
_CACHED_ORDER = 126
# The cached orders in stacks of _GROUP consecutive orders: layer N % _GROUP
# of stack N // _GROUP holds R^N, between its two zero columns, in its
# top-left corner, and zeros elsewhere.  A stack whose last order is K has
# layers of (K + 1) x (K + 3) doubles: 6.7 MB over the 8 stacks.  A layer is
# written when its order is built, so only the pages of the orders in use
# are touched, and a map contracts a stack in one batched product.
_GROUP = 16
_STACKS = [np.zeros((last + 1 - first, last + 1, last + 3))
           for first in range(0, _CACHED_ORDER + 1, _GROUP)
           for last in [min(first + _GROUP, _CACHED_ORDER + 1) - 1]]
# Grid axes of at most this many points keep their Hermite tables, up to
# _AXIS_TABLES axes at a time: at most 4 x 127 x 1024 doubles, 4.2 MB.
_AXIS_POINTS = 1024
_AXIS_TABLES = 4
# 2 sqrt(pi) (-i)^k: the transform of phi_k(sqrt2 y) over y, times the map's 2.
_FOURIER_PHASES = 2.0 * math.sqrt(math.pi) * np.array([1.0, -1j, -1.0, 1j])


@dataclass(frozen=True)
class WignerGrid:
    """W sampled on a cartesian grid; values[i, j] = W(q_axis[i], p_axis[j])."""

    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray

    @np.errstate(over="ignore", invalid="ignore")
    def normalization(self) -> float:
        """Integral of Re W dq dp / (2 pi) over the grid; inf, unwarned, past the float range."""
        inner = np.trapezoid(self.values.real, self.p_axis, axis=1)
        return float(np.trapezoid(inner, self.q_axis) / (2.0 * math.pi))

    def max_imag(self) -> float:
        """max |Im W|; 0.0 on an empty grid."""
        return float(np.max(np.abs(self.values.imag), initial=0.0))

    def min_real(self) -> float:
        """min Re W; inf on an empty grid."""
        return float(np.min(self.values.real, initial=math.inf))


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


@cache
def _rotation(order: int) -> np.ndarray:
    """R^order on all its columns, between its two zero columns: a read-only
    view of its layer of ``_STACKS``, shared by every map.

    A state of order + 1 levels carries every column, so the step from
    R^(order-1) at dim = order + 1 builds the whole matrix.
    """
    r = _STACKS[order // _GROUP][order % _GROUP, :order + 1, :order + 3]
    r[...] = [[0.0, 1.0, 0.0]] if order == 0 else _rotation_step(_rotation(order - 1), order, order + 1)
    r.flags.writeable = False
    return r


def _cached_orders(m: np.ndarray, top: int) -> np.ndarray:
    """by[N, j] = sum_m R^N[j, m] rho[m, N-m] for N <= top <= _CACHED_ORDER,
    zero for j > N: one batched product per group of ``_STACKS``.

    rho's anti-diagonal of order N is laid out on the columns of R^N,
    anti[N, c] = rho[c-1, N+1-c], with zeros where rho has no entry and at
    the zero columns; the layers are zero past R^N, so every layer of a
    group meets the group's full width.
    """
    _rotation(top)  # builds R^0 .. R^top into the stacks
    stacks = _STACKS[:top // _GROUP + 1]
    width = stacks[-1].shape[2]
    d = min(m.shape[0], top + 1)
    levels = np.arange(d)
    # 2d - 1 >= top + 1 rows: top <= 2 (dim - 1), and d = top + 1 otherwise
    anti = np.zeros((2 * d - 1, width), dtype=complex)
    anti[levels[:, None] + levels, levels[:, None] + 1] = m[:d, :d]
    parts = anti.view(float).reshape(2 * d - 1, width, 2)
    by = np.zeros((top + 1, width - 2, 2))
    for first, stack in zip(range(0, top + 1, _GROUP), stacks):
        layers = stack[:top + 1 - first]
        n, rows, cols = layers.shape
        by[first:first + n, :rows] = layers @ parts[first:first + n, :cols]
    return by.view(complex)[..., 0]


def _hermite_gauss_coefficients(m: np.ndarray) -> np.ndarray:
    """C with W(q, p) = sum_jk C[j, k] phi_j(sqrt2 q) phi_k(sqrt2 p).

    <q+y|rho|q-y> is a sum over orders N = m + n of rho[m, n] times a 2-D
    Hermite function rotated by pi/4, which R^N expands in phi_j(sqrt2 q)
    phi_(N-j)(sqrt2 y); the transform over y takes phi_k to (-i)^k phi_k:

        C[j, N-j] = 2 sqrt(pi) (-i)^(N-j) sum_m R^N[j, m] rho[m, N-m].

    The orders stop at the largest m + n with |rho[m, n]| >= _RHO_SKIP.
    Orders N <= _CACHED_ORDER are read from the process-wide stacks that
    ``_rotation`` fills (at most 127 matrices, 6.7 MB) and summed a stack at
    a time by ``_cached_orders``; past the cap the carried columns are
    stepped on from the cached R^_CACHED_ORDER, one order at a time, and not
    kept.
    """
    dim = m.shape[0]
    levels, partners = np.nonzero(np.abs(m) >= _RHO_SKIP)
    top = int(np.max(levels + partners, initial=0))
    cached = min(top, _CACHED_ORDER)
    c = np.zeros((top + 1, top + 1), dtype=complex)
    orders, j = np.tril_indices(cached + 1)
    c[j, orders - j] = _cached_orders(m, cached)[orders, j]
    if top > _CACHED_ORDER:
        # carried columns lo..hi and a neighbour on each side; the step reads
        # a neighbour only where it is a zero column of the cached matrix
        lo, hi = max(0, _CACHED_ORDER - dim + 1), min(_CACHED_ORDER, dim - 1)
        r = _rotation(_CACHED_ORDER)[:, lo:hi + 3]
        # diagonal dim-1-N of the column-reversed rho is rho[m, N-m] over the
        # carried columns of R^N
        anti = m[:, ::-1]
        for order in range(_CACHED_ORDER + 1, top + 1):
            r = _rotation_step(r, order, dim)
            j = np.arange(order + 1)
            c[j, order - j] = r[:, 1:-1] @ np.diagonal(anti, dim - 1 - order)
    c *= _FOURIER_PHASES[np.arange(top + 1) % 4]
    return c


def wigner_values(rho: DensityMatrix, q, p) -> np.ndarray:
    """W(q, p) = 2 Tr[P rho D(sqrt(2)(q + i p))], broadcast over q, p.

    No hermiticity of rho is assumed in the sum, so the imaginary part is a
    faithful diagnostic of the input rather than zero by construction.
    """
    rho, (qa, pa) = _instance(rho, DensityMatrix, "rho"), _points(q, p)
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

    w = _in_blocks(block, np.ravel(qa + 1j * pa)).reshape(np.shape(qa))
    return complex(w) if np.ndim(q) == 0 and np.ndim(p) == 0 else w


def _warn_if_grid_small(rho: DensityMatrix, q_axis: np.ndarray, p_axis: np.ndarray) -> None:
    # Support estimate from the level where cumulative population reaches
    # 1 - 1e-6; a grid stopping short of it cannot hold the tail mass.  An
    # empty grid holds no mass to lose.
    if q_axis.size == 0 or p_axis.size == 0:
        return
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


@lru_cache(maxsize=_AXIS_TABLES)
def _hermite_table(axis: bytes) -> np.ndarray:
    """phi_0 .. phi_126 (_CACHED_ORDER) at sqrt2 x for the points x of an
    axis, given as the bytes of its doubles; shared read-only.

    The recurrence runs forward, so rows 0..top of this table are bit for
    bit the table built to top, the far-field columns of ``hermite``
    included.  At most _AXIS_TABLES tables of _AXIS_POINTS points: 4.2 MB.
    """
    table = hermite_functions(_CACHED_ORDER, math.sqrt(2.0) * np.frombuffer(axis))
    table.flags.writeable = False
    return table


def _axis_table(axis: np.ndarray, top: int) -> np.ndarray:
    """phi_0 .. phi_top at sqrt2 x for the points x of ``axis``, read from
    ``_hermite_table`` when the axis and the order are within its caps."""
    if top <= _CACHED_ORDER and axis.size <= _AXIS_POINTS:
        return _hermite_table(axis.tobytes())[:top + 1]
    return hermite_functions(top, math.sqrt(2.0) * axis.ravel())


def wigner_from_density(rho: DensityMatrix, q_axis, p_axis) -> WignerGrid:
    """W on the cartesian grid q_axis x p_axis; one Hermite table serves
    both axes when they are equal."""
    rho = _instance(rho, DensityMatrix, "rho")
    q_axis, p_axis = _check_axis(q_axis, "q"), _check_axis(p_axis, "p")
    _warn_if_grid_small(rho, q_axis, p_axis)
    c = _hermite_gauss_coefficients(rho.matrix)
    top = c.shape[0] - 1
    phi_q = _axis_table(q_axis, top)
    phi_p = phi_q if np.array_equal(p_axis, q_axis) else _axis_table(p_axis, top)
    return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=phi_q.T @ c @ phi_p)


def deformed_parity_operator(spec: NonlinearitySpec, dim: int) -> np.ndarray:
    """diag(exp(i pi n f(n)^2)); reduces to (-1)^n for the identity profile.

    Raises NumericToleranceError when the phases pi n f(n)^2 are too large
    to be carried at double precision.
    """
    dim = _count(dim, 2, _DIM_RULE)
    fvals = require_positive(spec, dim - 1)
    n = np.arange(dim, dtype=float)
    with np.errstate(over="ignore"):  # a phase past the float range is inf, and refused
        phases = math.pi * n * fvals * fvals
    _check_phase_precision(float(np.max(phases)), "deformed parity", "pi n f(n)^2")
    return np.exp(1j * phases)


def _check_phase_precision(span: float, operator: str, phases: str) -> None:
    """NumericToleranceError naming ``operator`` and its ``phases`` when
    angles of up to ``span`` rad carry a rounding error eps * span above
    _PHASE_TOL, which no later step can recover."""
    error = np.finfo(float).eps * span
    if error > _PHASE_TOL:
        raise NumericToleranceError(
            f"{operator} lost phase precision: phases {phases} reach {span:.3e} rad, "
            f"so they carry an absolute error of {error:.3e}"
        )


def _diagonal_weights(weighted: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """T[d + dim - 1, k] = sum over j - m = d of weighted[m, j] V[m, k] V[j, k],
    for d = 1-dim..dim-1 and real V, summed row by row: row m of
    ``weighted`` lands on offsets -m..dim-1-m."""
    dim = weighted.shape[0]
    t = np.zeros((2 * dim - 1, vecs.shape[1]), dtype=complex)
    kept = vecs[:dim]
    for m in range(dim):
        t[dim - 1 - m:2 * dim - 1 - m] += weighted[m][:, None] * (kept[m] * kept)
    return t


def deformed_wigner_values(
    rho: DensityMatrix,
    spec: NonlinearitySpec,
    q,
    p,
    variant: str = "usual_parity",
    pad: int = 10,
) -> np.ndarray:
    """Deformed transform at phase-space points, broadcast over q, p.

    One eigendecomposition of the real tridiagonal S = D+ H D on the padded
    basis (dim + pad), S = V diag(lambda) V^T with D = diag(i^n) and
    H = i (A_f+ - A_f), serves every point alpha = r e^(i phi):

        W(alpha) = 2 sum_d z^d Q[d](r),   Q[d](r) = sum_k e^(-2i r lambda_k) T[d, k],

    with z = i e^(i phi) and T[d, k] = sum over j - m = d (j, m < dim) of
    P_m rho_mj V_mk V_jk.  Q is formed once per distinct radius of a block;
    z^d by repeated multiplication (error at most 3 |d| eps), z^-d as its
    conjugate.  Levels past the last with an entry |rho_mj| >= 1e-16 are
    left out, as in the standard map.  Raises NumericToleranceError when
    the phases 2 r lambda are too large to be carried at double precision.
    """
    if variant not in WIGNER_VARIANTS:
        raise DomainError(f"unknown wigner variant {variant!r}")
    pad = _count(pad, 0, "pad must be >= 0")
    qa, pa = _points(q, p)
    dim = _instance(rho, DensityMatrix, "rho").dim
    upper = deformed_lowering(spec, dim + pad).real
    if variant == "usual_parity":
        pvec = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    else:
        pvec = deformed_parity_operator(spec, dim)

    alphas = np.ravel((qa + 1j * pa) / math.sqrt(2.0))
    eigenvalues, vecs = np.linalg.eigh(upper + upper.T)
    r_max = float(np.max(np.abs(alphas), initial=0.0))
    _check_phase_precision(2.0 * r_max * float(np.max(np.abs(eigenvalues))),
                           "deformed exponential", "2 r lambda")
    weighted = pvec[:, None] * rho.matrix
    levels, partners = np.nonzero(np.abs(weighted) >= _RHO_SKIP)
    top = int(np.max(np.maximum(levels, partners), initial=0))
    t = _diagonal_weights(weighted[:top + 1, :top + 1], vecs)

    def block(a: np.ndarray) -> np.ndarray:
        r = np.abs(a)
        radii, at_radius = np.unique(r, return_inverse=True)
        by_radius = t @ _expi(-2.0 * np.outer(eigenvalues, radii))
        z = 1j * np.divide(a, r, out=np.ones_like(a), where=r > 0)
        out = by_radius[top][at_radius]
        power = np.ones_like(z)
        for d in range(1, top + 1):
            power *= z
            out += power * by_radius[top + d][at_radius]
            out += power.conj() * by_radius[top - d][at_radius]
        return 2.0 * out

    w = _in_blocks(block, alphas).reshape(np.shape(qa))
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
    ``deformed_wigner_values``).

    ``workers`` does nothing: the evaluation starts no threads.  It is still
    accepted only because the benchmark harness (``foscbench``) passes it.
    """
    q_axis, p_axis = _check_axis(q_axis, "q"), _check_axis(p_axis, "p")
    qq, pp = np.meshgrid(q_axis, p_axis, indexing="ij")
    vals = deformed_wigner_values(rho, spec, qq, pp, variant, pad)
    return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=vals)
