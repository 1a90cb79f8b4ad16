"""Symplectic tomograms of classical densities and quantum states.

A tomogram slice is the distribution of the observable X = mu q + nu p at
fixed ray coefficients (mu, nu).  Classically it is the Radon transform of
the phase-space density along the family of lines mu q + nu p = X; for a
truncated state it is the q distribution of the state turned by the free
oscillator.  Both satisfy the homogeneity w(sX, s mu, s nu) = w/|s| and
integrate to one over X.

Classical line integrals use nested trapezoid rules: 32, 64, 128, ...
uniform intervals per chord, each doubling evaluating the density only at
the new nodes, until two successive levels agree to 1e-11 relative to
max(1, peak); the first two levels come from one density call on the
nodes of the second.  The density is negligible at both chord ends, so the
rule converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 385
(2014)),
and its even spacing leaves no stretch of the chord sampled more coarsely
than another, unlike Clenshaw-Curtis, whose middle nodes are pi/2 wider
apart (Trefethen, SIAM Rev. 50, 67 (2008)).  A density with filaments finer
than 4096 intervals per line resolve raises ``NumericToleranceError``
instead of returning an unresolved slice.  The norm, the integral of the
slice over X, is by Fubini the integral of the density over its support
disk; it runs in polar coordinates, Clenshaw-Curtis in the radius and the
periodic trapezoid rule in the angle.  A density from
``propagate_distribution`` is integrated there as its initial density on
rings turned by omega(r^2/2) t, one frequency per ring, so its cost does
not grow with the time; its lines evaluate the transported density point
by point.

H = n takes q to q cos theta + p sin theta in time theta, so with
r = |(mu, nu)| and theta = atan2(nu, mu) a quantum slice is the q
distribution of rho_mn exp(-i (m - n) theta) at X / r, divided by r
(Mancini, Man'ko & Tombesi, Phys. Lett. A 213, 1 (1996)): the (0, 1) slice
is the p distribution.  Its norm is Re Tr rho, exact with no quadrature.

Sign conventions: tiny negative values (above -1e-9) are floored to zero as
roundoff; anything more negative is left visible, since it signals a broken
input rather than a rounding artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import (
    _LINE_START,
    PhaseSpaceDistribution,
    _disk_quadrature,
    _row_integrals,
    propagate_distribution,
)
from .errors import DegenerateRayError, DomainError, _count, _real
from .fock import DensityMatrix, evolve_density
from .hermite import hermite_functions
from .nonlinearity import NonlinearitySpec, identity

_NEG_FLOOR = 1e-9


@dataclass(frozen=True)
class TomogramSlice:
    """Values of one tomogram ray on an X axis, with the slice's integral
    over X.

    A classical slice's norm is the density's integral over its support
    disk, the same for every ray and computed apart from the values, so it
    checks the density's mass rather than the line integrals.  A quantum
    slice's is Re Tr rho, which orthonormality of the turned position
    eigenfunctions makes the exact integral.  ``quadrature_error`` is the
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
        """The least value; inf on an empty X axis."""
        return float(np.min(self.values, initial=math.inf))


def _check_ray(mu: float, nu: float) -> float:
    """r = |(mu, nu)|; a non-finite or zero ray defines no line family (DegenerateRayError)."""
    r = math.hypot(*(_real(v, "ray coefficients", error=DegenerateRayError) for v in (mu, nu)))
    if r == 0.0:
        raise DegenerateRayError("mu = nu = 0 does not define a line family")
    return r


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
    explicit.  A line that misses the disk gets exactly 0 and no density
    call; the chord's half-length is taken relative to the radius, so no
    square of X or of the radius is formed.
    """
    r = math.hypot(mu, nu)
    radius = dist.support_radius
    values = np.zeros(x.shape)
    rows = np.flatnonzero(np.abs(x) < radius * r)
    foot = x[rows] / r
    s = foot / radius
    half = radius * np.sqrt(np.maximum((1.0 - s) * (1.0 + s), 0.0))
    q0, p0 = (mu / r) * foot, (nu / r) * foot
    dq, dp = (-nu / r) * half, (mu / r) * half

    def points(i, u):
        return q0[i, None] + dq[i, None] * u, p0[i, None] + dp[i, None] * u

    values[rows], err = _row_integrals(dist.density, points, half / r, _LINE_START)
    return values, err


def _check_axis(axis, name: str = "X") -> np.ndarray:
    """``axis`` as a 1-D float array, also for Wigner grids; DomainError naming it otherwise."""
    x = _real(axis, f"the {name} axis", array=True)
    if np.ndim(x) != 1:
        raise DomainError(f"the {name} axis must be 1-D, got shape {np.shape(x)}")
    return x


def radon_classical(dist: PhaseSpaceDistribution, mu: float, nu: float, x_axis) -> TomogramSlice:
    """Classical tomogram of a phase-space density along one ray.

    Each line integral runs on nested trapezoid rules from 32 intervals that
    double until two successive levels agree to 1e-11 relative to
    max(1, peak); the norm is ``phase_space_integral`` of the density, which
    by Fubini equals the slice integrated over X.  ``quadrature_error``
    carries the larger estimate.  A density too filamented for 4096
    intervals per line raises ``NumericToleranceError`` instead of returning
    a wrong slice.  ``x_axis`` must be 1-D (``DomainError``).
    """
    _check_ray(mu, nu)
    x_axis = _check_axis(x_axis)
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


def _quantum_eval(rho: DensityMatrix, mu: float, nu: float, x: np.ndarray) -> np.ndarray:
    r = math.hypot(mu, nu)
    with np.errstate(over="ignore"):  # hermite_functions clamps an X / r past the float range
        y = x / r
    phi = hermite_functions(rho.dim - 1, y) / math.sqrt(r)
    turned = evolve_density(rho, identity(), math.atan2(nu, mu), "normal").matrix.real
    # w(X) = sum_mn phi_m turned_mn phi_n, each phi scaled by r^(-1/2): one
    # matrix product, then a column-wise dot product
    return np.einsum("mx,mx->x", phi, turned @ phi)


def quantum_tomogram(
    rho: DensityMatrix,
    mu: float,
    nu: float,
    x_axis,
) -> TomogramSlice:
    """Tomogram of a truncated state along one ray.

    The q marginal of rho turned by theta = atan2(nu, mu) under H = n, read
    at X / r and divided by r, so a coherent state's slice is centred at
    sqrt2 (mu Re alpha + nu Im alpha).  The norm is Re Tr rho.  ``x_axis``
    must be 1-D (``DomainError``).
    """
    _check_ray(mu, nu)
    x_axis = _check_axis(x_axis)
    values = _floor_roundoff(_quantum_eval(rho, mu, nu, x_axis))
    norm = float(np.trace(rho.matrix).real)
    return TomogramSlice(mu=float(mu), nu=float(nu), x_axis=x_axis, values=values, norm=norm)


def fock_tomogram_closed(n: int, mu: float, nu: float, x) -> np.ndarray:
    """Level-n tomogram in closed form: phi_n(X/r)^2 / r.

    Equals the Hermite-polynomial expression
    exp(-y^2) H_n(y)^2 / (2^n n! sqrt(pi) r) at y = X/r, written through the
    normalized eigenfunctions so large n cannot overflow.
    """
    n = _count(n, 0, "level index must be >= 0")
    r = _check_ray(mu, nu)
    with np.errstate(over="ignore"):  # as in _quantum_eval
        y = _real(x, "X", array=True) / r
    vals = hermite_functions(n, y)[n] ** 2 / r
    return float(vals) if np.ndim(x) == 0 else vals
