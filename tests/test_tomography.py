"""Tomographic slices: classical Radon route and Fock-basis route."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foscillator import (
    DegenerateRayError,
    DensityMatrix,
    PhaseSpaceDistribution,
    classical_tomogram_evolved,
    coherent_density,
    evolve_density,
    fock_density,
    fock_tomogram_closed,
    gaussian_distribution,
    identity,
    kerr,
    q_oscillator,
    quantum_tomogram,
    radon_classical,
    ray_from_scale_angle,
    vacuum_density,
    wigner_values,
)
from foscillator.classical import _leggauss
from foscillator.hermite import hermite_functions
from foscillator.tomography import _quantum_eval


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


@settings(derandomize=True, deadline=None, max_examples=40)
@given(rho=_STATES, ray=_RAYS, s=st.floats(0.25, 4.0), flip=st.booleans())
def test_quantum_homogeneity_property(rho, ray, s, flip):
    s = -s if flip else s
    mu, nu = ray
    x = np.linspace(-5.0, 5.0, 21)
    base = quantum_tomogram(rho, mu, nu, x).values
    scaled = quantum_tomogram(rho, s * mu, s * nu, s * x).values
    np.testing.assert_allclose(scaled, base / abs(s), rtol=0.0, atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=40)
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
