"""Symplectic tomograms of classical densities and quantum states.

A tomogram slice is the distribution of the observable X = mu q + nu p at
fixed ray coefficients (mu, nu).  Classically it is the Radon transform of
the phase-space density along the family of lines mu q + nu p = X; for a
truncated state it is assembled from rotated-and-scaled oscillator
eigenfunctions.  Both satisfy the homogeneity w(sX, s mu, s nu) = w/|s| and
integrate to one over X.

Classical line integrals use nested Clenshaw-Curtis rules (Trefethen, SIAM
Rev. 50, 67 (2008)): 16, 32, 64, ... nodes per line, each doubling
evaluating the density only at the new nodes, until two successive levels
agree to 1e-11 relative to max(1, peak).  A density with filaments finer
than 4096 nodes per line resolve raises ``NumericToleranceError`` instead of
returning an unresolved slice.  The norm, the integral of the slice over X,
is by Fubini the integral of the density over its support disk; it runs in
polar coordinates, Clenshaw-Curtis in the radius and the periodic trapezoid
rule in the angle, where a density transported along the flow is its
initial one turned ring by ring, so its cost does not grow with the time.

A quantum slice's norm is a Gauss-Legendre sum over X, 240 to 360 nodes
for the dims in common use, of the bilinear form in rho.  Summed over the
nodes first, that is one contraction of rho_mn exp(i (m - n) theta) with the
Gram matrix of the truncated Hermite functions on that rule, which depends
on dim alone and is cached per dim: each call costs O(dim^2) instead of a
slice evaluation on every node.

Sign conventions: tiny negative values (above -1e-9) are floored to zero as
roundoff; anything more negative is left visible, since it signals a broken
input rather than a rounding artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .classical import (
    PhaseSpaceDistribution,
    _disk_quadrature,
    _row_integrals,
    propagate_distribution,
)
from .errors import DegenerateRayError, DomainError
from .fock import DensityMatrix
from .hermite import hermite_functions
from .nonlinearity import NonlinearitySpec

_NEG_FLOOR = 1e-9


@cache
def _leggauss(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only.

    Holds, for each node count asked for, its nodes and weights: two float
    arrays of that length.  Unbounded, since the counts in use track the
    state sizes (the quantum norm's Gram matrices take max(240, 6 dim),
    wavefunction norms max(240, 4 dim)): dims 25-60 keep ~0.1 MB.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=64)
def _norm_gram(dim: int) -> np.ndarray:
    """K[m, n] = s sum_g w_g phi_m(s x_g) phi_n(s x_g) for m, n < dim, on
    the Gauss-Legendre rule (x_g, w_g) of max(240, 6 dim) nodes, with
    s = sqrt(2 dim + 1) + 4; shared read-only.

    s bounds the support of the truncated Hermite functions in units of the
    ray's length, so K is the identity up to the quadrature's error and the
    tail beyond s, which is what the norm check measures.  Holds one
    dim x dim float matrix per dim, the 64 most recently used: dims 25-60
    keep ~0.55 MB.
    """
    s = math.sqrt(2.0 * dim + 1.0) + 4.0
    xg, wg = _leggauss(max(240, 6 * dim))
    phi = hermite_functions(dim - 1, s * xg)
    k = (s * phi * wg) @ phi.T
    k.flags.writeable = False
    return k


@dataclass(frozen=True)
class TomogramSlice:
    """Values of one tomogram ray on an X axis, with its quadrature norm.

    A classical slice's norm is the density's integral over its support
    disk, the same for every ray and computed apart from the values, so it
    checks the density's mass rather than the line integrals.  A quantum
    slice's is the Gauss-Legendre sum of the values' formula over X, taken
    as one contraction of rho with the cached Gram matrix of the Hermite
    functions on that rule (``_norm_gram``).  ``quadrature_error`` is the
    larger nested-rule estimate of a classical slice's values and norm,
    relative to max(1, peak); a quantum slice is a finite sum and leaves
    it 0.
    """

    mu: float
    nu: float
    x_axis: np.ndarray
    values: np.ndarray
    norm: float
    quadrature_error: float = 0.0

    def min_value(self) -> float:
        return float(np.min(self.values))


def _check_ray(mu: float, nu: float) -> float:
    r2 = mu * mu + nu * nu
    if r2 == 0.0:
        raise DegenerateRayError("mu = nu = 0 does not define a line family")
    if not (math.isfinite(mu) and math.isfinite(nu)):
        raise DegenerateRayError("ray coefficients must be finite")
    return math.sqrt(r2)


def ray_from_scale_angle(s: float, theta: float):
    """(mu, nu) = (s cos theta, sin theta / s); scaling then rotation."""
    if s == 0.0 or not math.isfinite(s):
        raise DegenerateRayError("scale must be nonzero and finite")
    return s * math.cos(theta), math.sin(theta) / s


def _floor_roundoff(vals: np.ndarray) -> np.ndarray:
    out = np.array(vals, dtype=float)
    tiny = (out < 0.0) & (out >= -_NEG_FLOOR)
    out[tiny] = 0.0
    return out


def _radon_lines(dist: PhaseSpaceDistribution, mu: float, nu: float, x: np.ndarray):
    """(1/r) integral of the density along each line mu q + nu p = X, and the
    error estimate of the nested rule.

    The line is clipped to the support disk and parametrized by arclength
    from the foot point, so the 1/r Jacobian of the delta function is
    explicit.
    """
    r = math.sqrt(mu * mu + nu * nu)
    radius = dist.support_radius
    half = np.sqrt(np.maximum(radius * radius - (x / r) ** 2, 0.0))
    q0, p0 = (mu / (r * r)) * x, (nu / (r * r)) * x
    dq, dp = (-nu / r) * half, (mu / r) * half

    def points(i, u):
        return q0[i, None] + dq[i, None] * u, p0[i, None] + dp[i, None] * u

    return _row_integrals(dist.density, points, half / r)


def radon_classical(dist: PhaseSpaceDistribution, mu: float, nu: float, x_axis) -> TomogramSlice:
    """Classical tomogram of a phase-space density along one ray.

    Each line integral runs on nested Clenshaw-Curtis rules that double
    until two successive levels agree to 1e-11 relative to max(1, peak); the
    norm is ``phase_space_integral`` of the density, which by Fubini equals
    the slice integrated over X.  ``quadrature_error`` carries the larger
    estimate.  A density too filamented for 4096 nodes per line raises
    ``NumericToleranceError`` instead of returning a wrong slice.
    """
    r = _check_ray(mu, nu)
    x_axis = np.asarray(x_axis, dtype=float)
    values, err = _radon_lines(dist, mu, nu, x_axis)
    norm, norm_err = _disk_quadrature(dist)
    return TomogramSlice(mu=float(mu), nu=float(nu), x_axis=x_axis,
                         values=_floor_roundoff(values), norm=float(norm),
                         quadrature_error=max(err, norm_err))


def classical_tomogram_evolved(
    dist: PhaseSpaceDistribution,
    spec: NonlinearitySpec,
    t: float,
    mu: float,
    nu: float,
    x_axis,
    law: str = "amplitude",
) -> TomogramSlice:
    """Tomogram of the density transported along the deformed flow."""
    moved = propagate_distribution(dist, spec, t, law)
    return radon_classical(moved, mu, nu, x_axis)


def _ray_phases(rho: DensityMatrix, mu: float, nu: float) -> np.ndarray:
    """exp(-i n theta), theta = atan2(nu, mu), for n < dim."""
    return np.exp(-1j * math.atan2(nu, mu) * np.arange(rho.dim))


def _quantum_eval(rho: DensityMatrix, mu: float, nu: float, x: np.ndarray) -> np.ndarray:
    r = math.sqrt(mu * mu + nu * nu)
    x = np.asarray(x, dtype=float)
    phi = hermite_functions(rho.dim - 1, x / r)
    phases = _ray_phases(rho, mu, nu)
    amp = (phases[:, None] * phi) / math.sqrt(r)
    # w(x) = sum_mn conj(amp_mx) rho_mn amp_nx: one matrix product, then a
    # column-wise dot product
    w = np.einsum("mx,mx->x", amp.conj(), rho.matrix @ amp)
    return w.real


def quantum_tomogram(
    rho: DensityMatrix,
    mu: float,
    nu: float,
    x_axis,
) -> TomogramSlice:
    """Tomogram of a truncated state along one ray.

    Built from the scaled-and-rotated eigenfunction overlap
    Phi_n(X) = (mu^2+nu^2)^(-1/4) phi_n(X/r) exp(-i n theta); the bilinear
    sum against rho is real up to roundoff for a hermitian state.  The norm
    integrates that sum over |X| <= r (sqrt(2 dim + 1) + 4) by Gauss-Legendre,
    summed over the nodes first: sum_mn conj(e_m) rho_mn e_n K_mn with
    e_n = exp(-i n theta) and K = ``_norm_gram(dim)``.
    """
    _check_ray(mu, nu)
    x_axis = np.asarray(x_axis, dtype=float)
    values = _floor_roundoff(_quantum_eval(rho, mu, nu, x_axis))
    e = _ray_phases(rho, mu, nu)
    norm = float((e.conj() @ (rho.matrix * _norm_gram(rho.dim)) @ e).real)
    return TomogramSlice(mu=float(mu), nu=float(nu), x_axis=x_axis, values=values, norm=norm)


def fock_tomogram_closed(n: int, mu: float, nu: float, x) -> np.ndarray:
    """Level-n tomogram in closed form: phi_n(X/r)^2 / r.

    Equals the Hermite-polynomial expression
    exp(-y^2) H_n(y)^2 / (2^n n! sqrt(pi) r) at y = X/r, written through the
    normalized eigenfunctions so large n cannot overflow.
    """
    if n < 0:
        raise DomainError("level index must be >= 0")
    r = _check_ray(mu, nu)
    y = np.asarray(x, dtype=float) / r
    vals = hermite_functions(n, y)[n] ** 2 / r
    return float(vals) if np.ndim(x) == 0 else vals
