"""Symplectic tomograms of classical densities and quantum states.

A tomogram slice is the distribution of the observable X = mu q + nu p at
fixed ray coefficients (mu, nu).  Classically it is the Radon transform of
the phase-space density along the family of lines mu q + nu p = X; for a
truncated state it is assembled from rotated-and-scaled oscillator
eigenfunctions.  Both satisfy the homogeneity w(sX, s mu, s nu) = w/|s| and
integrate to one over X.

Sign conventions: tiny negative values (above -1e-9) are floored to zero as
roundoff; anything more negative is left visible, since it signals a broken
input rather than a rounding artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import PhaseSpaceDistribution, _leggauss, propagate_distribution
from .errors import DegenerateRayError, DomainError
from .fock import DensityMatrix
from .hermite import hermite_functions
from .nonlinearity import NonlinearitySpec

_NEG_FLOOR = 1e-9


@dataclass(frozen=True)
class TomogramSlice:
    """Values of one tomogram ray on an X axis, with its quadrature norm."""

    mu: float
    nu: float
    x_axis: np.ndarray
    values: np.ndarray
    norm: float

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


def _radon_eval(
    dist: PhaseSpaceDistribution, mu: float, nu: float, x: np.ndarray, line_nodes: int
) -> np.ndarray:
    """(1/r) integral of the density along each line mu q + nu p = X.

    The line is clipped to the support disk; parametrized by arclength from
    the foot point, so the 1/r Jacobian of the delta function is explicit.
    """
    r = math.sqrt(mu * mu + nu * nu)
    radius = dist.support_radius
    u, w = _leggauss(int(line_nodes))
    x = np.asarray(x, dtype=float)
    half = np.sqrt(np.maximum(radius * radius - (x / r) ** 2, 0.0))
    s = half[:, None] * u[None, :]
    qq = (mu / (r * r)) * x[:, None] - (nu / r) * s
    pp = (nu / (r * r)) * x[:, None] + (mu / r) * s
    vals = np.asarray(dist.density(qq, pp), dtype=float)
    return (vals @ w) * half / r


def radon_classical(
    dist: PhaseSpaceDistribution,
    mu: float,
    nu: float,
    x_axis,
    line_nodes: int = 240,
    norm_nodes: int = 240,
) -> TomogramSlice:
    """Classical tomogram of a phase-space density along one ray."""
    r = _check_ray(mu, nu)
    x_axis = np.asarray(x_axis, dtype=float)
    values = _floor_roundoff(_radon_eval(dist, mu, nu, x_axis, line_nodes))
    span = r * dist.support_radius
    xg, wg = _leggauss(int(norm_nodes))
    norm = float(np.dot(wg, _radon_eval(dist, mu, nu, span * xg, line_nodes)) * span)
    return TomogramSlice(mu=float(mu), nu=float(nu), x_axis=x_axis, values=values, norm=norm)


def classical_tomogram_evolved(
    dist: PhaseSpaceDistribution,
    spec: NonlinearitySpec,
    t: float,
    mu: float,
    nu: float,
    x_axis,
    law: str = "amplitude",
    line_nodes: int = 240,
    norm_nodes: int = 240,
) -> TomogramSlice:
    """Tomogram of the density transported along the deformed flow."""
    moved = propagate_distribution(dist, spec, t, law)
    return radon_classical(moved, mu, nu, x_axis, line_nodes, norm_nodes)


def _quantum_eval(rho: DensityMatrix, mu: float, nu: float, x: np.ndarray) -> np.ndarray:
    r = math.sqrt(mu * mu + nu * nu)
    theta = math.atan2(nu, mu)
    x = np.asarray(x, dtype=float)
    phi = hermite_functions(rho.dim - 1, x / r)
    phases = np.exp(-1j * theta * np.arange(rho.dim))
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
    norm_nodes: int = None,
) -> TomogramSlice:
    """Tomogram of a truncated state along one ray.

    Built from the scaled-and-rotated eigenfunction overlap
    Phi_n(X) = (mu^2+nu^2)^(-1/4) phi_n(X/r) exp(-i n theta); the bilinear
    sum against rho is real up to roundoff for a hermitian state.
    """
    r = _check_ray(mu, nu)
    x_axis = np.asarray(x_axis, dtype=float)
    values = _floor_roundoff(_quantum_eval(rho, mu, nu, x_axis))
    if norm_nodes is None:
        norm_nodes = max(240, 6 * rho.dim)
    span = r * (math.sqrt(2.0 * rho.dim + 1.0) + 4.0)
    xg, wg = _leggauss(int(norm_nodes))
    norm = float(np.dot(wg, _quantum_eval(rho, mu, nu, span * xg)) * span)
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
