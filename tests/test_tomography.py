"""Tomographic slices: classical Radon route and Fock-basis route."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from foscillator import (
    DegenerateRayError,
    DensityMatrix,
    DomainError,
    NumericToleranceError,
    PhaseSpaceDistribution,
    classical_tomogram_evolved,
    coherent_density,
    evolve_density,
    fock_density,
    fock_tomogram_closed,
    gaussian_distribution,
    identity,
    kerr,
    phase_space_integral,
    propagate_distribution,
    q_oscillator,
    quantum_tomogram,
    radon_classical,
    ray_from_scale_angle,
    vacuum_density,
    wigner_values,
)
from foscillator.classical import _BLOCK
from foscillator.hermite import hermite_functions
from foscillator.tomography import _leggauss, _quantum_eval


def test_gaussian_marginal():
    dist = gaussian_distribution(0.0, 0.0, 1.0)
    x = np.linspace(-3.0, 3.0, 25)
    slice_ = radon_classical(dist, 1.0, 0.0, x)
    expected = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    np.testing.assert_allclose(slice_.values, expected, atol=1e-10)
    assert slice_.values[12] == pytest.approx(0.3989422804014327, rel=1e-9)
    assert slice_.norm == pytest.approx(1.0, abs=1e-6)


def test_rotational_symmetry_of_isotropic_density():
    dist = gaussian_distribution(0.0, 0.0, 1.0)
    x = np.linspace(-2.0, 2.0, 9)
    ref = radon_classical(dist, 1.0, 0.0, x).values
    for theta in (0.3, 1.2, 2.8):
        vals = radon_classical(dist, math.cos(theta), math.sin(theta), x).values
        np.testing.assert_allclose(vals, ref, atol=1e-10)


@pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
def test_classical_homogeneity(s):
    dist = gaussian_distribution(1.0, -0.5, 0.8)
    x = np.linspace(-2.0, 2.0, 11)
    base = radon_classical(dist, 0.7, 0.4, x).values
    scaled = radon_classical(dist, s * 0.7, s * 0.4, s * x).values
    np.testing.assert_allclose(scaled, base / abs(s), atol=1e-8)


@pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
def test_quantum_homogeneity(s):
    rho = coherent_density(0.8 + 0.3j, 25)
    x = np.linspace(-2.0, 2.0, 11)
    base = quantum_tomogram(rho, 0.7, 0.4, x).values
    scaled = quantum_tomogram(rho, s * 0.7, s * 0.4, s * x).values
    np.testing.assert_allclose(scaled, base / abs(s), atol=1e-8)


def _polar(r_min, r_max):
    return st.tuples(st.floats(r_min, r_max), st.floats(-math.pi, math.pi)).map(
        lambda ra: complex(ra[0] * math.cos(ra[1]), ra[0] * math.sin(ra[1])))


_RAYS = _polar(0.3, 2.5).map(lambda z: (z.real, z.imag))
_STATES = st.one_of(
    # |alpha| <= 1.5 keeps the tail of a dim-25 basis empty
    st.tuples(_polar(0.0, 1.5), st.integers(25, 60)).map(lambda ad: coherent_density(*ad)),
    st.tuples(st.integers(0, 10), st.integers(25, 60)).map(lambda nd: fock_density(*nd)),
)


@settings(max_examples=40)
@given(rho=_STATES, ray=_RAYS, s=st.floats(0.25, 4.0), flip=st.booleans())
def test_quantum_homogeneity_property(rho, ray, s, flip):
    s = -s if flip else s
    mu, nu = ray
    x = np.linspace(-5.0, 5.0, 21)
    base = quantum_tomogram(rho, mu, nu, x).values
    scaled = quantum_tomogram(rho, s * mu, s * nu, s * x).values
    np.testing.assert_allclose(scaled, base / abs(s), rtol=0.0, atol=1e-12)


@settings(max_examples=40)
@given(rho=_STATES, ray=_RAYS)
def test_quantum_unit_norm_property(rho, ray):
    assert quantum_tomogram(rho, *ray, np.array([0.0])).norm == pytest.approx(1.0, abs=1e-10)


def _three_operand_reference(rho, mu, nu, x):
    """The contraction as a single three-operand einsum, as first written."""
    r = math.hypot(mu, nu)
    phi = hermite_functions(rho.dim - 1, x / r)
    phases = np.exp(-1j * math.atan2(nu, mu) * np.arange(rho.dim))
    amp = (phases[:, None] * phi) / math.sqrt(r)
    return np.einsum("mn,mx,nx->x", rho.matrix, amp.conj(), amp).real


def test_contraction_matches_three_operand_einsum():
    rng = np.random.default_rng(20240611)
    x = np.linspace(-9.0, 9.0, 97)
    worst = 0.0
    for dim in range(2, 81):
        # random mixed state on the levels below the checked tail
        k = int(0.9 * (dim - 1)) + 1
        g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        m = np.zeros((dim, dim), dtype=complex)
        m[:k, :k] = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        mu, nu = rng.uniform(-2.0, 2.0, size=2)
        got = _quantum_eval(rho, mu, nu, x)
        worst = max(worst, float(np.max(np.abs(got - _three_operand_reference(rho, mu, nu, x)))))
    assert worst <= 1e-13


def test_norm_quadrature_nodes_stay_cached():
    def sweep():
        for dim in range(25, 61):
            quantum_tomogram(vacuum_density(dim), 1.0, 0.5, np.array([0.0]))

    sweep()
    misses = _leggauss.cache_info().misses
    sweep()
    assert _leggauss.cache_info().misses == misses
    nodes, weights = _leggauss(6 * 60)
    assert not nodes.flags.writeable and not weights.flags.writeable


def test_evolved_at_zero_time_is_plain_radon():
    dist = gaussian_distribution(1.5, 0.0, 0.7)
    x = np.linspace(-3.0, 3.0, 13)
    a = classical_tomogram_evolved(dist, q_oscillator(0.2), 0.0, 0.6, 0.8, x)
    b = radon_classical(dist, 0.6, 0.8, x)
    np.testing.assert_allclose(a.values, b.values, atol=1e-12)


def test_energy_only_density_is_stationary():
    dist = gaussian_distribution(0.0, 0.0, 1.0)
    x = np.linspace(-2.5, 2.5, 11)
    still = radon_classical(dist, 0.6, 0.8, x).values
    moved = classical_tomogram_evolved(dist, q_oscillator(0.3), 4.2, 0.6, 0.8, x).values
    np.testing.assert_allclose(moved, still, atol=1e-10)


def _filament(t):
    """A Gaussian sheared by the q flow into a spiral whose arms thin with t."""
    return propagate_distribution(gaussian_distribution(2.0, 0.5, 0.5), q_oscillator(0.2), t)


def _gauss_legendre_slice(dist, mu, nu, x, nodes):
    r = math.hypot(mu, nu)
    u, w = roots_legendre(nodes)
    half = np.sqrt(np.maximum(dist.support_radius ** 2 - (x / r) ** 2, 0.0))[:, None]
    q = (mu / r ** 2) * x[:, None] - (nu / r) * half * u
    p = (nu / r ** 2) * x[:, None] + (mu / r) * half * u
    return (dist.density(q, p) @ w) * half[:, 0] / r


@pytest.mark.parametrize("t", [3.0, 30.0])
def test_filamented_slice_matches_a_fine_reference(t):
    # at t = 30 a fixed 240-node rule misses this slice by 2e-3
    dist = _filament(t)
    x = np.linspace(-3.5, 3.5, 29)
    sl = radon_classical(dist, 0.6, 0.8, x)
    ref = _gauss_legendre_slice(dist, 0.6, 0.8, x, 3000)
    np.testing.assert_allclose(sl.values, ref, rtol=0.0, atol=1e-12)
    assert sl.norm == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= sl.quadrature_error <= 1e-11


def test_transported_norm_does_not_resolve_the_filaments():
    # at t = 30 the lines cross the spiral arms many times, but on each circle
    # of constant energy the moved density is the initial one turned, so the
    # disk rule needs no more points than at t = 0
    dist = _filament(30.0)
    points = []

    def counted(q, p):
        points.append(np.size(q))
        return dist.density(q, p)

    total = phase_space_integral(PhaseSpaceDistribution(counted, dist.support_radius))
    assert sum(points) <= 50_000
    assert total == pytest.approx(1.0, abs=1e-12)
    assert radon_classical(dist, 0.6, 0.8, np.array([0.0])).norm == pytest.approx(1.0, abs=1e-12)


def test_slice_values_integrate_to_the_norm():
    # the norm is a disk integral and the values are line integrals; by
    # Fubini the values integrated over the whole X span give the norm
    dist = _filament(3.0)
    mu, nu = 0.6, 0.8
    span = math.hypot(mu, nu) * dist.support_radius
    u, w = roots_legendre(2000)
    sl = radon_classical(dist, mu, nu, span * u)
    assert span * float(w @ sl.values) == pytest.approx(sl.norm, abs=1e-10)


def test_unresolved_filaments_are_refused():
    with pytest.raises(NumericToleranceError,
                       match="the density has filaments finer than 4096 line nodes resolve"):
        radon_classical(_filament(300.0), 0.6, 0.8, np.linspace(-3.5, 3.5, 29))


def test_non_finite_density_is_refused_at_once():
    calls = []

    def broken(q, p):
        calls.append(1)
        return np.where(np.hypot(q, p) < 0.5, np.nan, 0.0)

    with pytest.raises(DomainError, match="not finite"):
        radon_classical(PhaseSpaceDistribution(broken, 2.0), 1.0, 0.0, np.linspace(-1.0, 1.0, 5))
    assert len(calls) == 2  # the first two levels, not all the way to the cap


def test_density_calls_stay_within_one_block():
    # a narrow blob drives the line rule to 2048 nodes; every density call
    # still gets at most one block of points
    sigma = 0.005
    blob = gaussian_distribution(0.0, 0.0, sigma, support_radius=1.0)
    shapes = []

    def counted(q, p):
        shapes.append(np.shape(q))
        return blob.density(q, p)

    x = np.linspace(-3.0 * sigma, 3.0 * sigma, 41)
    sl = radon_classical(PhaseSpaceDistribution(counted, 1.0), 1.0, 0.0, x)
    assert max(cols for _, cols in shapes) >= 512  # new nodes of a level >= 1024
    assert max(rows * cols for rows, cols in shapes) <= _BLOCK
    closed = np.exp(-0.5 * (x / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)
    np.testing.assert_allclose(sl.values, closed, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("sigma", [0.01, 0.015])
@pytest.mark.parametrize("angle", [0.0, 0.3, math.pi / 4, 2.0])
def test_narrow_off_centre_blob_is_resolved_at_any_angle(sigma, angle):
    # a blob of width r0/200 .. r0/130 at radius r0 = 2 drives the rings to
    # 2048 or 4096 angular nodes; wherever it sits it is neither read as zero
    # nor refused, and every density call gets at most one block of points
    q0, p0 = 2.0 * math.cos(angle), 2.0 * math.sin(angle)
    blob = gaussian_distribution(q0, p0, sigma)
    shapes = []

    def counted(q, p):
        shapes.append(np.shape(q))
        return blob.density(q, p)

    dist = PhaseSpaceDistribution(counted, blob.support_radius)
    assert abs(phase_space_integral(dist) - 1.0) <= 1e-12
    assert max(cols for _, cols in shapes) >= 1024  # new nodes of a level >= 2048
    mean = 0.6 * q0 + 0.8 * p0
    x = np.linspace(mean - 3.0 * sigma, mean + 3.0 * sigma, 13)
    sl = radon_classical(dist, 0.6, 0.8, x)
    assert abs(sl.norm - 1.0) <= 1e-12
    closed = np.exp(-0.5 * ((x - mean) / sigma) ** 2) / math.sqrt(2.0 * math.pi) / sigma
    np.testing.assert_allclose(sl.values, closed, rtol=1e-9, atol=1e-9)
    assert max(math.prod(shape) for shape in shapes) <= _BLOCK


_PROFILE_SPECS = st.one_of(
    st.just(identity()),
    st.floats(0.01, 0.3).map(q_oscillator),
    st.floats(0.0, 0.3).map(kerr),
)


@settings(max_examples=25)
@given(sigma=st.floats(0.3, 1.0), spec=_PROFILE_SPECS, t=st.floats(0.0, 5.0), ray=_RAYS)
def test_centered_gaussian_slice_property(sigma, spec, t, ray):
    # an isotropic centered density is invariant under the energy-dependent rotation
    mu, nu = ray
    sr = sigma * math.hypot(mu, nu)
    x = np.linspace(-4.0 * sr, 4.0 * sr, 17)
    vals = classical_tomogram_evolved(gaussian_distribution(0.0, 0.0, sigma), spec, t, mu, nu, x).values
    closed = np.exp(-0.5 * (x / sr) ** 2) / (math.sqrt(2.0 * math.pi) * sr)
    np.testing.assert_allclose(vals, closed, rtol=0.0, atol=1e-10)


@settings(max_examples=25)
@given(center=_polar(0.0, 1.5), sigma=st.floats(0.3, 1.0), t=st.floats(-6.0, 6.0), ray=_RAYS)
def test_harmonic_transport_rotates_the_ray_property(center, sigma, t, ray):
    # for f = 1 the flow is a rigid rotation by t, so the slice of the moved
    # density along (mu, nu) is the slice of the initial one along the ray
    # rotated by t
    mu, nu = ray
    dist = gaussian_distribution(center.real, center.imag, sigma)
    x = np.linspace(-3.0, 3.0, 13) * math.hypot(mu, nu)
    moved = classical_tomogram_evolved(dist, identity(), t, mu, nu, x).values
    c, s = math.cos(t), math.sin(t)
    still = radon_classical(dist, mu * c - nu * s, mu * s + nu * c, x).values
    np.testing.assert_allclose(moved, still, rtol=0.0, atol=1e-10)


def test_peak_rides_the_classical_flow():
    # identity flow: center (2, 0) -> (2 cos t, -2 sin t); the slice peaks at
    # the projection mu*q(t) + nu*p(t)
    t, mu, nu = math.pi / 3.0, 0.6, 0.8
    expected = mu * 2.0 * math.cos(t) + nu * (-2.0 * math.sin(t))
    dist = gaussian_distribution(2.0, 0.0, 0.5)
    x = np.linspace(expected - 0.3, expected + 0.3, 601)
    vals = classical_tomogram_evolved(dist, identity(), t, mu, nu, x).values
    k = int(np.argmax(vals))
    # parabolic refinement around the sampled maximum
    num = vals[k - 1] - vals[k + 1]
    den = vals[k - 1] - 2.0 * vals[k] + vals[k + 1]
    x_star = x[k] + 0.5 * (x[k + 1] - x[k]) * num / den
    assert x_star == pytest.approx(expected, abs=1e-4)


def test_against_direct_two_dimensional_quadrature():
    # mollified-delta double integral as an independent route
    spec = q_oscillator(0.2)
    dist = gaussian_distribution(1.0, 0.0, 0.8)
    t, mu, nu = 1.5, 0.6, 0.8
    xs = np.array([-1.0, 0.0, 0.5, 1.5])
    slice_vals = classical_tomogram_evolved(dist, spec, t, mu, nu, xs).values

    from foscillator import propagate_distribution

    moved = propagate_distribution(dist, spec, t)
    nodes, weights = np.polynomial.legendre.leggauss(240)
    r = moved.support_radius
    q = r * nodes
    w = r * weights
    qq, pp = np.meshgrid(q, q, indexing="ij")
    density = moved(qq, pp)
    eps = 0.02
    for x, ref in zip(xs, slice_vals):
        kernel = np.exp(-0.5 * ((x - mu * qq - nu * pp) / eps) ** 2) / (
            eps * math.sqrt(2.0 * math.pi)
        )
        direct = w @ (density * kernel) @ w
        assert direct == pytest.approx(ref, abs=5e-4)


def test_vacuum_slice_closed_form():
    rho = vacuum_density(10)
    x = np.linspace(-3.0, 3.0, 31)
    for mu, nu in ((1.0, 0.0), (0.5, 0.5), (2.0, -1.0)):
        r2 = mu * mu + nu * nu
        expected = np.exp(-x * x / r2) / math.sqrt(math.pi * r2)
        vals = quantum_tomogram(rho, mu, nu, x).values
        np.testing.assert_allclose(vals, expected, atol=1e-10)
    assert quantum_tomogram(rho, 1.0, 0.0, np.array([0.0])).values[0] == pytest.approx(
        0.5641895835477563, rel=1e-12
    )


def test_first_excited_slice_values():
    rho = fock_density(1, 10)
    vals = quantum_tomogram(rho, 1.0, 0.0, np.array([0.0, 1.0])).values
    assert vals[0] == 0.0  # odd eigenfunction: exact node, floored clean
    assert vals[1] == pytest.approx(0.4151074974205947, rel=1e-10)


def test_coherent_marginal_closed_form():
    alpha = 0.9
    rho = coherent_density(alpha, 40)
    x = np.linspace(-3.0, 5.0, 41)
    expected = np.exp(-((x - math.sqrt(2.0) * alpha) ** 2)) / math.sqrt(math.pi)
    vals = quantum_tomogram(rho, 1.0, 0.0, x).values
    np.testing.assert_allclose(vals, expected, atol=1e-8)


def test_fock_closed_form_matches_basis_route():
    x = np.linspace(-4.0, 4.0, 33)
    for n in range(6):
        rho = fock_density(n, 12)
        for mu, nu in ((1.0, 0.0), (0.6, 0.8), (1.5, -0.7)):
            closed = fock_tomogram_closed(n, mu, nu, x)
            vals = quantum_tomogram(rho, mu, nu, x).values
            np.testing.assert_allclose(vals, closed, atol=1e-8)


def test_fock_slices_ignore_the_ray_angle():
    # level populations carry no phase: only r = |(mu, nu)| matters
    x = np.linspace(-3.0, 3.0, 13)
    rho = fock_density(2, 10)
    ref = quantum_tomogram(rho, 1.0, 0.0, x).values
    for theta in (0.7, 2.1):
        vals = quantum_tomogram(rho, math.cos(theta), math.sin(theta), x).values
        np.testing.assert_allclose(vals, ref, atol=1e-12)


def test_radon_of_wigner_matches_basis_route():
    rho = coherent_density(1.0, 20)

    def w_density(q, p):
        return wigner_values(rho, q, p).real / (2.0 * math.pi)

    dist = PhaseSpaceDistribution(density=w_density, support_radius=8.0)
    x = np.linspace(-3.0, 4.0, 15)
    rays = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (1.2, -0.5), (0.9, 0.9)]
    for mu, nu in rays:
        via_wigner = radon_classical(dist, mu, nu, x).values
        via_basis = quantum_tomogram(rho, mu, nu, x).values
        np.testing.assert_allclose(via_wigner, via_basis, atol=1e-5)


def test_diagonal_states_have_static_tomograms():
    rho = fock_density(3, 12)
    evolved = evolve_density(rho, kerr(0.3), 2.7)
    x = np.linspace(-3.0, 3.0, 13)
    np.testing.assert_allclose(
        quantum_tomogram(evolved, 0.8, 0.6, x).values,
        quantum_tomogram(rho, 0.8, 0.6, x).values,
        atol=1e-12,
    )


def test_normalization_both_routes():
    assert radon_classical(
        gaussian_distribution(1.0, 0.5, 0.8), 0.3, -1.1, np.array([0.0])
    ).norm == pytest.approx(1.0, abs=1e-6)
    assert quantum_tomogram(
        coherent_density(1.0 + 0.5j, 30), 0.3, -1.1, np.array([0.0])
    ).norm == pytest.approx(1.0, abs=1e-6)


def test_values_never_dip_below_floor():
    slice_ = quantum_tomogram(fock_density(4, 12), 1.0, 0.0, np.linspace(-4, 4, 201))
    assert slice_.min_value() >= 0.0


def test_scale_angle_parametrization():
    mu, nu = ray_from_scale_angle(2.0, 0.0)
    assert (mu, nu) == pytest.approx((2.0, 0.0))
    mu, nu = ray_from_scale_angle(1.0, math.pi / 2.0)
    assert mu == pytest.approx(0.0, abs=1e-15)
    assert nu == pytest.approx(1.0)
    with pytest.raises(DegenerateRayError):
        ray_from_scale_angle(0.0, 1.0)


def test_degenerate_ray_rejected():
    with pytest.raises(DegenerateRayError):
        radon_classical(gaussian_distribution(), 0.0, 0.0, np.array([0.0]))
    with pytest.raises(DegenerateRayError):
        quantum_tomogram(vacuum_density(6), 0.0, 0.0, np.array([0.0]))
