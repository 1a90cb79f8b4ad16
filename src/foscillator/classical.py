"""Classical amplitude flow and phase-space transport.

Conventions: alpha = (q + i p)/sqrt(2), energy E = |alpha|^2 = (q^2+p^2)/2.
The deformed flow rotates each amplitude at its own energy-dependent rate
omega(E), so circles of constant energy are invariant and any initial
distribution is transported by composing it with the inverse rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import DomainError
from .nonlinearity import NonlinearitySpec, frequency


@dataclass(frozen=True)
class PhasePoint:
    q: float
    p: float

    @property
    def energy(self) -> float:
        return 0.5 * (self.q * self.q + self.p * self.p)


@dataclass(frozen=True)
class PhaseSpaceDistribution:
    """Positive density on phase space, negligible outside support_radius.

    ``density`` must accept broadcastable q, p arrays and return values of
    the broadcast shape; normalization uses the plain dq dp measure.
    """

    density: Callable
    support_radius: float

    def __call__(self, q, p):
        return self.density(q, p)


def evolve_amplitude(
    spec: NonlinearitySpec, alpha0: complex, t: float, law: str = "amplitude"
) -> complex:
    """alpha(t) = alpha0 * exp(-i omega(|alpha0|^2) t).

    The modulus is carried through unchanged (polar construction), so energy
    is conserved identically rather than up to roundoff in a complex product.
    """
    alpha0 = complex(alpha0)
    r = abs(alpha0)
    if r == 0.0:
        return 0.0 + 0.0j
    omega = frequency(spec, r * r, law)
    theta = math.atan2(alpha0.imag, alpha0.real) - omega * float(t)
    return complex(r * math.cos(theta), r * math.sin(theta))


def amplitude_trajectory(
    spec: NonlinearitySpec, alpha0: complex, times, law: str = "amplitude"
) -> np.ndarray:
    """Sample the flow at an array of times; single frequency evaluation."""
    alpha0 = complex(alpha0)
    ts = np.asarray(times, dtype=float)
    r = abs(alpha0)
    if r == 0.0:
        return np.zeros(ts.shape, dtype=complex)
    omega = frequency(spec, r * r, law)
    theta = math.atan2(alpha0.imag, alpha0.real) - omega * ts
    return r * (np.cos(theta) + 1j * np.sin(theta))


def classical_invariants(
    spec: NonlinearitySpec, point: PhasePoint, t: float, law: str = "amplitude"
) -> PhasePoint:
    """Initial point recovered from the point reached at time t.

    The map is the rotation by +omega(E) t; since E is constant along the
    flow, evaluating omega at the current point equals evaluating it at the
    initial one.
    """
    omega = frequency(spec, point.energy, law)
    c = math.cos(omega * t)
    s = math.sin(omega * t)
    return PhasePoint(q=point.q * c - point.p * s, p=point.q * s + point.p * c)


def _invariant_arrays(spec, q, p, t, law):
    e = 0.5 * (q * q + p * p)
    omega = frequency(spec, e, law)
    c = np.cos(omega * t)
    s = np.sin(omega * t)
    return q * c - p * s, q * s + p * c


def propagate_distribution(
    dist: PhaseSpaceDistribution,
    spec: NonlinearitySpec,
    t: float,
    law: str = "amplitude",
) -> PhaseSpaceDistribution:
    """Transport a distribution along the flow for time t.

    The value at (q, p) is the initial density at the rotated-back point;
    nothing is sampled or integrated, so normalization is preserved by
    construction and the result can be composed further.
    """
    t = float(t)

    def moved(q, p, _f0=dist.density, _spec=spec, _t=t, _law=law):
        q0, p0 = _invariant_arrays(_spec, np.asarray(q, float), np.asarray(p, float), _t, _law)
        return _f0(q0, p0)

    return PhaseSpaceDistribution(density=moved, support_radius=dist.support_radius)


def gaussian_distribution(
    center_q: float = 0.0,
    center_p: float = 0.0,
    sigma: float = 1.0,
    support_radius: float = None,
) -> PhaseSpaceDistribution:
    """Isotropic normalized Gaussian blob, unit total mass."""
    if sigma <= 0.0:
        raise DomainError("sigma must be > 0")
    if support_radius is None:
        support_radius = math.hypot(center_q, center_p) + 8.5 * sigma
    norm = 1.0 / (2.0 * math.pi * sigma * sigma)

    def density(q, p):
        dq = np.asarray(q, float) - center_q
        dp = np.asarray(p, float) - center_p
        return norm * np.exp(-(dq * dq + dp * dp) / (2.0 * sigma * sigma))

    return PhaseSpaceDistribution(density=density, support_radius=float(support_radius))


@cache
def _leggauss(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only.

    Unbounded: the node counts in use track the state sizes (tomogram norms
    take max(240, 6 dim)), and an entry is two float arrays.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def phase_space_integral(dist: PhaseSpaceDistribution, nodes: int = 200) -> float:
    """Gauss-Legendre integral of the density over its support square."""
    x, w = _leggauss(int(nodes))
    r = dist.support_radius
    q = r * x
    wq = r * w
    qq, pp = np.meshgrid(q, q, indexing="ij")
    vals = np.asarray(dist.density(qq, pp), dtype=float)
    return float(wq @ vals @ wq)
