"""Classical amplitude flow and phase-space transport.

Conventions: alpha = (q + i p)/sqrt(2), energy E = |alpha|^2 = (q^2+p^2)/2.
The deformed flow turns each circle of constant energy at its own rate
omega(E), so the flow, its integrals of motion and the Liouville transport
are one map: (q, p) rotated by omega(E) t.  A positive t turns a point back
along the flow (the initial point as an integral of motion, and the point
whose initial density a transported density takes); a negative t runs the
flow forward (amplitudes and trajectories).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import DomainError, NumericToleranceError, _complex, _read_real, _real
from .nonlinearity import NonlinearitySpec, frequency

# Nested quadrature of densities: rules of a start level, twice that, ...
# intervals until two successive levels agree to _QUAD_TOL relative to
# max(1, peak); past _QUAD_CAP intervals the density is refused.
# _QUAD_START is the first Clenshaw-Curtis level in the radius of the disk
# integral; lines and rings start from their own levels below.
_QUAD_TOL = 1e-11
_QUAD_START = 16
_QUAD_CAP = 4096
# First level of a line integral, on the trapezoid rule.  The density
# vanishes at both chord ends, so the rule converges geometrically, and its
# nodes are evenly spread, so no stretch of the chord is sampled more
# coarsely than another.  A narrow blob that falls between the nodes of the
# first two levels reads as zero.  Of blobs of sigma 0.04 down to 0.0067 at
# radius 2, on supports of radius 3 to 8, none is read so from 32
# intervals; from 16, blobs of sigma 0.02 on radius 8 are.
_LINE_START = 32
# First angular level of a ring integral.  The rings of an untransported
# density share their angles, so a blob narrow in angle that falls between
# the nodes of the first two levels would read as zero on every ring.  From
# 64 points a blob of width down to about 1/500 of its radius is seen (and
# from 1/300 down refused as too fine), at no extra cost for the blobs
# whose rings need 128 anyway.
_RING_START = 64
# Points handed to a density in one call; at least _QUAD_CAP / 2, the new
# nodes of the finest level, so no call gets more.
_BLOCK = 8192
# Lines integrated as one group, which bounds the stored node values to
# _LINES (_QUAD_CAP + 1) floats however many lines a slice has.
_LINES = 512
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PhasePoint:
    """A phase-space point; q and p may be floats or broadcastable arrays."""

    q: float
    p: float


@dataclass(frozen=True)
class PhaseSpaceDistribution:
    """Positive density on phase space, negligible outside support_radius.

    ``density`` must accept broadcastable q, p arrays and return values of
    the broadcast shape; normalization uses the plain dq dp measure.  A radius
    R <= 0, or one where E = (q^2 + p^2)/2 overflows at |q| = |p| = R, is refused.
    """

    density: Callable
    support_radius: float

    def __post_init__(self):
        r = _real(self.support_radius, "support radius")
        if not r > 0.0:
            raise DomainError(f"support radius must be > 0, got {r!r}")
        if not math.isfinite(r * r + r * r):
            raise DomainError(f"support radius {r:.6g}: (q^2 + p^2)/2 leaves the float range")

    def __call__(self, q, p):
        return self.density(q, p)


def _cos_sin(theta):
    """cos theta and sin theta from one tangent of the half angle:
    h = tan(theta/2), cos = (1 - h^2)/(1 + h^2), sin = 2h/(1 + h^2).

    One vectorised tan costs a fraction of np.cos plus np.sin, and the
    result stays within 2.2e-16 of both.  At an odd multiple of pi, h is
    ~1e16 rather than infinite (pi is not a double), so the ratios still
    round to -1 and to the sine of the rounded angle.
    """
    h = np.tan(0.5 * theta)
    h2 = h * h
    d = 1.0 + h2
    return (1.0 - h2) / d, (2.0 * h) / d


@np.errstate(over="ignore")
def _rotate(spec, q, p, t, law):
    """(q, p) turned counterclockwise by omega(E) t, E = (q^2 + p^2)/2, for
    broadcastable q, p and t: the flow run back by t, or forward by -t.
    The cosine and sine of omega t come from one tangent of the half angle
    per point (``_cos_sin``).  Past |q|, |p| ~ 1.3e154, E overflows to inf
    unwarned: the identity flow turns the point all the same, and a deformed
    frequency refuses that E."""
    e = 0.5 * (q * q + p * p)
    c, s = _cos_sin(frequency(spec, e, law) * t)
    return q * c - p * s, q * s + p * c


def evolve_amplitude(
    spec: NonlinearitySpec, alpha0: complex, t: float, law: str = "amplitude"
) -> complex:
    """alpha(t) = alpha0 * exp(-i omega(|alpha0|^2) t)."""
    return complex(amplitude_trajectory(spec, alpha0, _real(t, "time t"), law))


def amplitude_trajectory(
    spec: NonlinearitySpec, alpha0: complex, times, law: str = "amplitude"
) -> np.ndarray:
    """Sample the flow at an array of times; single frequency evaluation."""
    alpha0 = _complex(alpha0, "alpha0")
    q, p = _rotate(spec, _SQRT2 * alpha0.real, _SQRT2 * alpha0.imag,
                   -np.asarray(_real(times, "times", array=True)), law)
    return (q + 1j * p) / _SQRT2


def classical_invariants(
    spec: NonlinearitySpec, point: PhasePoint, t: float, law: str = "amplitude"
) -> PhasePoint:
    """Initial point recovered from the point reached at time t.

    The map is the rotation by +omega(E) t; since E is constant along the
    flow, evaluating omega at the current point equals evaluating it at the
    initial one.  Array fields of ``point`` broadcast against t.
    """
    q, p = (_real(v, f"point {name}", array=True) for v, name in ((point.q, "q"), (point.p, "p")))
    return PhasePoint(*_rotate(spec, q, p, _real(t, "time t", array=True), law))


@dataclass(frozen=True)
class _Transported(PhaseSpaceDistribution):
    """A density transported along the flow for time t: ``density`` gives
    its values point by point, and ``initial``, ``spec``, ``t`` and ``law``
    let ``_disk_quadrature`` turn the rings of the initial density instead.
    """

    initial: PhaseSpaceDistribution
    spec: NonlinearitySpec
    t: float
    law: str


def propagate_distribution(
    dist: PhaseSpaceDistribution,
    spec: NonlinearitySpec,
    t: float,
    law: str = "amplitude",
) -> PhaseSpaceDistribution:
    """Transport a distribution along the flow for time t.

    The value at (q, p) is the initial density at the rotated-back point;
    nothing is sampled or integrated, so normalization is preserved by
    construction and the result can be composed further.  The result
    remembers ``dist``, ``spec``, ``t`` and ``law``: its disk integral
    (``phase_space_integral``, every classical slice norm) evaluates the
    initial density on rings turned by omega(r^2/2) t, one frequency per
    ring, while its line integrals and point values go through the
    transported density point by point.
    """
    t = _real(t, "time t")

    def moved(q, p):
        q, p = _read_real(q, "q", array=True), _read_real(p, "p", array=True)
        return dist.density(*_rotate(spec, q, p, t, law))

    return _Transported(density=moved, support_radius=dist.support_radius,
                        initial=dist, spec=spec, t=t, law=law)


def gaussian_distribution(
    center_q: float = 0.0,
    center_p: float = 0.0,
    sigma: float = 1.0,
    support_radius: float = None,
) -> PhaseSpaceDistribution:
    """Isotropic normalized Gaussian blob, unit total mass."""
    center_q, center_p, sigma = (_real(v, name) for v, name in
                                 ((center_q, "center_q"), (center_p, "center_p"), (sigma, "sigma")))
    if not sigma > 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma!r}")
    scale = 2.0 * math.pi * sigma * sigma
    norm = 1.0 / scale if scale > 0.0 else math.inf
    if norm == math.inf:
        raise DomainError(f"sigma = {sigma!r} is too small: 1/(2 pi sigma^2) overflows")
    if support_radius is None:
        support_radius = math.hypot(center_q, center_p) + 8.5 * sigma
    support_radius = _real(support_radius, "support radius")
    # the exponent below at its largest on the support disk, |dq|, |dp| <= R + |centre|
    span = support_radius + math.hypot(center_q, center_p)
    if not math.isfinite((span * span + span * span) / (2.0 * sigma * sigma)):
        raise DomainError(f"the blob at ({center_q:.6g}, {center_p:.6g}) of sigma {sigma:.6g} on "
                          f"the support radius {support_radius:.6g}: its exponent leaves the "
                          "float range")

    @np.errstate(over="ignore")  # far out the exponent overflows to -inf: the density reads 0
    def density(q, p):
        dq = _read_real(q, "q", array=True) - center_q
        dp = _read_real(p, "p", array=True) - center_p
        return norm * np.exp(-(dq * dq + dp * dp) / (2.0 * sigma * sigma))

    return PhaseSpaceDistribution(density=density, support_radius=support_radius)


@cache
def _clenshaw_curtis(n: int):
    """Nodes cos(k pi / n), k = 0..n, and weights of the n-interval
    Clenshaw-Curtis rule on [-1, 1], for even n; shared read-only.

    The nodes of rule n are the even-indexed nodes of rule 2n, bit for bit.
    The weights are a DCT-I of the even Chebyshev moments, taken by one FFT
    (Waldvogel, BIT Numer. Math. 46, 195 (2006)).
    """
    k = np.arange(n + 1)
    x = np.sin(np.pi * (n - 2 * k) / (2 * n))
    moments = np.zeros(n + 1)
    moments[0] = 1.0
    j = np.arange(1, n // 2 + 1)
    moments[2 * j] = -2.0 / (4.0 * j * j - 1.0)
    moments[n] *= 0.5
    even = np.concatenate((moments, moments[n - 1:0:-1]))
    w = 0.5 * (np.fft.rfft(even).real + moments[0] + moments[n] * (-1.0) ** k) / n
    w[1:n] *= 2.0
    w = 0.5 * (w + w[::-1])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@cache
def _periodic_trapezoid(n: int):
    """Nodes -1 + 2k/n, k = 0..n-1, and weights of the n-point trapezoid
    rule on the circle [-1, 1), for even n; shared read-only.

    As with Clenshaw-Curtis, the nodes of rule n are the even-indexed nodes
    of rule 2n.  The spacing is uniform, so no part of the circle is
    resolved worse than another, and the rule converges geometrically for
    smooth periodic integrands.
    """
    x = np.arange(n) * (2.0 / n) - 1.0
    w = np.full(n, 2.0 / n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _nested_integrals(rows_at, scale, rule=_clenshaw_curtis, start=_QUAD_START):
    """``scale`` times the integral over [-1, 1] of each row of ``rows_at``,
    on nested rules (``_clenshaw_curtis`` or ``_periodic_trapezoid``) of
    ``start``, 2 ``start``, ... intervals.

    ``rows_at(u)`` returns ``(values, estimate)``: values of shape
    (..., u.size) and the error estimate of any quadrature inside them.  The
    rule opens with one call on the nodes of level 2 ``start`` and reads
    level ``start`` off their even columns; a doubling asks only for the
    new odd-indexed nodes and reuses the rest.  The rule stops when two
    successive levels agree,
    max |I_2n - I_n| <= _QUAD_TOL max(1, max |I_2n|), and returns I_2n with
    the larger of that scaled difference and the inner estimates.
    """
    n = 2 * start
    u, w = rule(n)
    both, inner = rows_at(u)
    coarse = scale * (np.ascontiguousarray(both[..., 0::2]) @ rule(start)[1])
    while True:
        fine = scale * (both @ w)
        peak = max(1.0, float(np.max(np.abs(fine), initial=0.0)))
        estimate = float(np.max(np.abs(fine - coarse), initial=0.0)) / peak
        if not math.isfinite(estimate):
            raise DomainError("the density is not finite on its support")
        if estimate <= _QUAD_TOL:
            return fine, max(estimate, inner)
        if n >= _QUAD_CAP:
            raise NumericToleranceError(
                f"the density has filaments finer than {_QUAD_CAP} line nodes resolve")
        n *= 2
        u, w = rule(n)
        fresh, err = rows_at(u[1::2])
        inner = max(inner, err)
        vals, coarse = both, fine
        both = np.empty(vals.shape[:-1] + (w.size,))
        both[..., 0::2] = vals
        both[..., 1::2] = fresh


def _on_rows(density, points, rows, u) -> np.ndarray:
    """density(*points(rows, u)): one row per entry of the index array
    ``rows``, one column per u, evaluated in blocks of at most _BLOCK
    points."""
    out = np.empty((rows.size, u.size))
    step = max(1, _BLOCK // u.size)
    for lo in range(0, rows.size, step):
        out[lo:lo + step] = density(*points(rows[lo:lo + step], u))
    return out


def _row_integrals(density, points, scale, start):
    """``scale`` times the integral over u in [-1, 1] of
    density(*points(i, u)) for each row i = 0 .. scale.size - 1, and the
    largest error estimate of the nested periodic trapezoid rule from
    ``start`` intervals.
    ``points(i, u)`` maps an index array and the nodes to q, p arrays of
    shape (i.size, u.size).

    Rows go through the rule in groups of _LINES, each group doubling until
    its own rows agree.
    """
    out = np.empty(scale.shape)
    worst = 0.0
    for lo in range(0, scale.size, _LINES):
        rows = np.arange(lo, min(lo + _LINES, scale.size))
        out[rows], err = _nested_integrals(
            lambda u: (_on_rows(density, points, rows, u), 0.0), scale[rows],
            _periodic_trapezoid, start)
        worst = max(worst, err)
    return out, worst


def _ring_turns(dist: PhaseSpaceDistribution, e: np.ndarray):
    """The density under all of ``dist``'s transports, and the angle by which
    each ring of energy ``e`` is turned to reach it: the sum of omega(e) t
    over the transports, one frequency call each.  A plain density is its
    own and takes a zero turn."""
    turn = np.zeros(e.shape)
    while isinstance(dist, _Transported):
        turn += frequency(dist.spec, e, dist.law) * dist.t
        dist = dist.initial
    return dist.density, turn


def _disk_quadrature(dist: PhaseSpaceDistribution):
    """Integral of the density over its support disk, and its error
    estimate: Clenshaw-Curtis in the radius r, each r node a ring integral
    on the periodic trapezoid rule in the angle, dq dp = r dr dphi.  The
    radial nodes cluster at the rim, where an off-centre blob sits; the
    angular ones are spread evenly, so a narrow blob costs the same at any
    angle.

    The flow turns each circle of constant energy rigidly, so a transported
    density takes on each ring the values of the initial one, shifted in
    angle by omega(r^2/2) t.  Each batch of radii therefore costs one
    frequency call, and the rings evaluate the initial density at nodes
    turned by that angle: a periodic trapezoid rule integrates a turned ring
    as it does the unturned one, up to aliasing (Trefethen & Weideman, SIAM
    Rev. 56, 385 (2014)), so the ring integrals, and the work, do not grow
    with t.
    """
    radius = float(dist.support_radius)

    def rings(u):
        r = 0.5 * radius * (1.0 + u)
        density, turn = _ring_turns(dist, 0.5 * r * r)
        c, s = _cos_sin(turn)
        rc, rs = r * c, r * s

        def points(i, v):
            cv, sv = np.cos(math.pi * v), np.sin(math.pi * v)
            return rc[i, None] * cv - rs[i, None] * sv, rs[i, None] * cv + rc[i, None] * sv

        mass, err = _row_integrals(density, points, np.full(r.shape, math.pi), _RING_START)
        return r * mass, err

    total, err = _nested_integrals(rings, 0.5 * radius)
    return float(total), err


def phase_space_integral(dist: PhaseSpaceDistribution) -> float:
    """Integral of the density over its support disk, to a relative
    tolerance of _QUAD_TOL by nested rules in polar coordinates
    (Clenshaw-Curtis in the radius outside, the periodic trapezoid rule in
    the angle inside).

    Raises ``NumericToleranceError`` when the density has structure finer
    than _QUAD_CAP nodes per ring or radius resolve.
    """
    return _disk_quadrature(dist)[0]
