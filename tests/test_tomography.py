"""Tomographic slices: classical Radon route and Fock-basis route."""

import functools
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
    PhasePoint,
    PhaseSpaceDistribution,
    classical_invariants,
    classical_tomogram_evolved,
    coherent_density,
    custom,
    evolve_density,
    fock_density,
    fock_tomogram_closed,
    frequency,
    gaussian_distribution,
    identity,
    kerr,
    phase_space_integral,
    propagate_distribution,
    q_oscillator,
    quantum_tomogram,
    radon_classical,
    vacuum_density,
    wigner_from_density,
    wigner_values,
)
import foscillator.classical as classical_module
from foscillator.classical import _BLOCK, _clenshaw_curtis, _periodic_trapezoid, _radon_lines
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


def _random_mixed_state(rng, dim):
    """A random complex mixed state on the levels below the checked tail."""
    k = int(0.9 * (dim - 1)) + 1
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    m = np.zeros((dim, dim), dtype=complex)
    m[:k, :k] = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def _three_operand_reference(rho, mu, nu, x):
    """The slice as one three-operand einsum over the ray's eigenfunction
    overlaps <n|X> = exp(+i n theta) phi_n(X / r) / sqrt(r)."""
    r = math.hypot(mu, nu)
    phi = hermite_functions(rho.dim - 1, x / r)
    phases = np.exp(1j * math.atan2(nu, mu) * np.arange(rho.dim))
    amp = (phases[:, None] * phi) / math.sqrt(r)
    return np.einsum("mn,mx,nx->x", rho.matrix, amp.conj(), amp).real


def test_contraction_matches_three_operand_einsum():
    rng = np.random.default_rng(20240611)
    x = np.linspace(-9.0, 9.0, 97)
    worst = 0.0
    for dim in range(2, 81):
        rho = _random_mixed_state(rng, dim)
        mu, nu = rng.uniform(-2.0, 2.0, size=2)
        got = _quantum_eval(rho, mu, nu, x)
        worst = max(worst, float(np.max(np.abs(got - _three_operand_reference(rho, mu, nu, x)))))
    assert worst <= 1e-13


def test_gram_norm_equals_the_direct_node_sum():
    # the trace that orthonormality gives, against the slice formula summed
    # on Gauss-Legendre nodes over |X| <= r (sqrt(2 dim + 1) + 4)
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for dim in range(2, 81):
        rho = _random_mixed_state(rng, dim)
        xg, wg = np.polynomial.legendre.leggauss(max(240, 6 * dim))
        for _ in range(3):
            mu, nu = rng.uniform(-3.0, 3.0, size=2)
            span = math.hypot(mu, nu) * (math.sqrt(2.0 * dim + 1.0) + 4.0)
            direct = float(np.dot(wg, _quantum_eval(rho, mu, nu, span * xg)) * span)
            got = quantum_tomogram(rho, mu, nu, np.array([0.0])).norm
            worst = max(worst, abs(got - direct))
    assert worst <= 1e-13


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


_legendre_rule = functools.cache(roots_legendre)


def _gauss_legendre_slice(dist, mu, nu, x, nodes):
    r = math.hypot(mu, nu)
    u, w = _legendre_rule(nodes)
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
    # both first levels come in one call, and the rule stops at their
    # comparison, not at the cap
    assert len(calls) == 1


def test_density_calls_stay_within_one_block():
    # a narrow blob drives the line rule to 1024 intervals; every density call
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


@pytest.mark.parametrize("k", range(22))
def test_narrow_blob_on_a_wide_support_is_not_read_as_zero(k):
    # sigma = r0/50 on a support of radius 8, at the angle 2 pi k / 22:
    # Clenshaw-Curtis lines from 16 nodes read 26 of these 66 slices as ~0
    # with two agreeing coarse levels and a correct norm; the trapezoid rule
    # from 32 intervals sees the blob
    angle = 2.0 * math.pi * k / 22
    q0, p0, sigma = 2.0 * math.cos(angle), 2.0 * math.sin(angle), 0.04
    dist = gaussian_distribution(q0, p0, sigma, support_radius=8.0)
    for mu, nu in [(0.6, 0.8), (1.0, 0.0), (0.3, -1.1)]:
        sr = sigma * math.hypot(mu, nu)
        mean = mu * q0 + nu * p0
        x = np.linspace(mean - 3.0 * sr, mean + 3.0 * sr, 13)
        closed = np.exp(-0.5 * ((x - mean) / sr) ** 2) / (math.sqrt(2.0 * math.pi) * sr)
        np.testing.assert_allclose(radon_classical(dist, mu, nu, x).values, closed,
                                   rtol=0.0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(centre=_polar(0.0, 2.0), sigma=st.floats(0.05, 1.0),
       widen=st.one_of(st.none(), st.floats(0.0, 1.0)),
       spec=st.one_of(st.floats(0.01, 0.3).map(q_oscillator), st.floats(0.0, 0.3).map(kerr)),
       t=st.floats(0.0, 3.0), ray=_RAYS)
def test_transported_blob_slice_is_right_or_flagged_property(centre, sigma, widen, spec, t, ray):
    # the default support radius, or one widened up to 8; lines across the
    # whole support and across the blob's transported centre.  A slice is
    # refused, carries a norm that shows the miss, or matches a fixed
    # 3000-node Gauss-Legendre rule
    support = gaussian_distribution(centre.real, centre.imag, sigma).support_radius
    if widen is not None:
        support += widen * max(0.0, 8.0 - support)
    blob = gaussian_distribution(centre.real, centre.imag, sigma, support_radius=support)
    dist = propagate_distribution(blob, spec, t)
    mu, nu = ray
    r = math.hypot(mu, nu)
    moved = classical_invariants(spec, PhasePoint(centre.real, centre.imag), -t)
    mean = mu * moved.q + nu * moved.p
    x = np.concatenate([np.linspace(-r * support, r * support, 17),
                        mean + np.linspace(-4.0, 4.0, 16) * sigma * r])
    try:
        sl = radon_classical(dist, mu, nu, x)
    except NumericToleranceError:
        return
    if abs(sl.norm - 1.0) > 1e-6:
        return
    ref = _gauss_legendre_slice(dist, mu, nu, x, 3000)
    np.testing.assert_allclose(sl.values, ref, rtol=0.0, atol=1e-10)


def _table_profile(ab):
    # 120 samples cover the energies of every support disk drawn below
    return custom(table=[1.0 + ab[0] * math.sin(ab[1] * k) for k in range(120)])


_TRANSPORT_PROFILES = st.one_of(
    st.floats(0.01, 0.5).map(q_oscillator),
    st.floats(0.0, 0.3).map(kerr),
    st.tuples(st.floats(-0.2, 0.2), st.floats(0.0, 3.0)).map(_table_profile),
)


def _slice_or_refusal(dist, mu, nu, x):
    try:
        return radon_classical(dist, mu, nu, x).values.tolist()
    except NumericToleranceError as exc:
        return str(exc)


@settings(max_examples=60)
@given(centre=_polar(0.0, 2.0), sigma=st.floats(0.05, 1.0), spec=_TRANSPORT_PROFILES,
       law=st.sampled_from(["amplitude", "canonical"]), t=st.floats(-30.0, 30.0),
       then=st.one_of(st.none(), st.tuples(_TRANSPORT_PROFILES, st.floats(-30.0, 30.0))),
       ray=_RAYS)
def test_turned_rings_match_the_transported_density_property(centre, sigma, spec, law, t, then, ray):
    # the disk of a transported density turns the rings of the initial one;
    # the same density behind a plain distribution is evaluated point by
    # point.  Both give the same integral, and the lines, which evaluate
    # the transported density either way, the same values
    blob = gaussian_distribution(centre.real, centre.imag, sigma)
    moved = propagate_distribution(blob, spec, t, law)
    if then is not None:
        moved = propagate_distribution(moved, *then, law)
    plain = PhaseSpaceDistribution(moved.density, moved.support_radius)
    assert abs(phase_space_integral(moved) - phase_space_integral(plain)) <= 1e-13
    mu, nu = ray
    x = np.linspace(-1.0, 1.0, 9) * math.hypot(mu, nu) * moved.support_radius
    assert _slice_or_refusal(moved, mu, nu, x) == _slice_or_refusal(plain, mu, nu, x)


def test_transported_disk_evaluates_the_initial_density_once_per_ring_group():
    # the README blob: the disk asks the initial density for its 65 turned
    # rings in at most 3 calls, and the profile for one frequency per ring
    blob = gaussian_distribution(1.0, 0.0, 0.5)
    calls, energies = [], []

    def counted(q, p):
        calls.append(np.shape(q))
        return blob.density(q, p)

    def frequency_counted(spec, e, law):
        energies.append(np.size(e))
        return frequency(spec, e, law)

    moved = propagate_distribution(PhaseSpaceDistribution(counted, blob.support_radius),
                                   q_oscillator(0.2), 1.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classical_module, "frequency", frequency_counted)
        assert phase_space_integral(moved) == pytest.approx(1.0, abs=1e-12)
    assert len(calls) <= 3
    assert sum(energies) == sum(rows for rows, _ in calls) == 65


@pytest.mark.parametrize("transports", [
    [(q_oscillator(0.2), 1.5, "amplitude")],
    [(q_oscillator(0.2), 1.5, "amplitude"), (kerr(0.1), -0.7, "canonical")],
], ids=["one", "composed"])
def test_disk_evaluates_the_initial_density_on_turned_rings(transports):
    # a ring's integral does not see its turn, so the nodes are checked: the
    # first disk call takes the 33 radii of 32 Clenshaw-Curtis intervals
    # times the 128 angles of the ring rule, each node where the transported
    # density would read the initial one
    blob = gaussian_distribution(1.0, 0.0, 0.5)
    seen = []

    def recorded(q, p):
        seen.append((q, p))
        return blob.density(q, p)

    moved = PhaseSpaceDistribution(recorded, blob.support_radius)
    for spec, t, law in transports:
        moved = propagate_distribution(moved, spec, t, law)
    phase_space_integral(moved)
    r = 0.5 * blob.support_radius * (1.0 + _clenshaw_curtis(32)[0])
    v = _periodic_trapezoid(128)[0]
    at = PhasePoint(r[:, None] * np.cos(math.pi * v), r[:, None] * np.sin(math.pi * v))
    for spec, t, law in reversed(transports):
        at = classical_invariants(spec, at, t, law)
    q, p = seen[0]
    # a few ulp of the radius: the turn is summed per ring, not taken per point
    np.testing.assert_allclose(q, at.q, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(p, at.p, rtol=0.0, atol=1e-13)


def test_line_rule_cost():
    # a typical benchmark slice: 401 lines and the disk take 33,984 density
    # points (25,664 on the lines); Clenshaw-Curtis lines from 16 nodes took
    # 60,049
    dist = propagate_distribution(gaussian_distribution(1.0, 0.5, 0.5), q_oscillator(0.1), 2.0)
    points = []

    def counted(q, p):
        points.append(np.size(q))
        return dist.density(q, p)

    x = np.linspace(-1.0, 1.0, 401) * (math.hypot(1.0, 0.5) + 3.0)
    sl = radon_classical(PhaseSpaceDistribution(counted, dist.support_radius), 0.6, 0.8, x)
    assert sum(points) <= 34_000
    assert abs(sl.norm - 1.0) <= 1e-12


def test_lines_outside_the_support_are_exact_zeros_without_density_calls():
    # |X| / r >= R: no chord, so the row is 0 and the density is not asked;
    # at |X| ~ 1e300 neither X^2 nor (X / r)^2 is formed, so nothing
    # overflows (a RuntimeWarning is an error here)
    blob = gaussian_distribution(0.3, -0.2, 0.7)
    shapes = []

    def counted(q, p):
        shapes.append(np.shape(q))
        return blob.density(q, p)

    x = np.array([-1e300, -5e299, 0.0, 5e299, 1e300])
    values, _ = _radon_lines(PhaseSpaceDistribution(counted, blob.support_radius), 0.6, 0.8,
                             math.hypot(0.6, 0.8), x)
    assert shapes and all(rows == 1 for rows, _ in shapes)  # the line through X = 0 only
    assert values[[0, 1, 3, 4]].tolist() == [0.0] * 4
    ref = _gauss_legendre_slice(blob, 0.6, 0.8, np.array([0.0]), 200)
    assert values[2] == pytest.approx(ref[0], abs=1e-13)
    sl = radon_classical(blob, 1e-3, 0.0, x)
    assert sl.values[[0, 1, 3, 4]].tolist() == [0.0] * 4


@pytest.mark.parametrize("x", [np.zeros((2, 3)), np.zeros((1, 1)), 0.0])
def test_x_axis_must_be_one_dimensional(x):
    # a TomogramSlice holds one ray on an X axis; a 2-D axis was an
    # IndexError (classical) or a broadcasting ValueError (quantum)
    with pytest.raises(DomainError, match="the X axis must be 1-D"):
        radon_classical(gaussian_distribution(), 1.0, 0.0, x)
    with pytest.raises(DomainError, match="the X axis must be 1-D"):
        quantum_tomogram(vacuum_density(5), 1.0, 0.0, x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_x_axis_must_be_finite(bad):
    x = np.array([0.0, bad])
    with pytest.raises(DomainError, match="the X axis must be finite"):
        radon_classical(gaussian_distribution(), 1.0, 0.0, x)
    with pytest.raises(DomainError, match="the X axis must be finite"):
        quantum_tomogram(vacuum_density(5), 1.0, 0.0, x)


def test_quantum_slice_far_out_is_zero():
    # the Hermite tables were nan past |x| ~ 1e154
    assert quantum_tomogram(vacuum_density(5), 1.0, 0.0, [1e200]).values.tolist() == [0.0]
    x = np.linspace(-1e300, 1e300, 5)
    values = quantum_tomogram(coherent_density(0.5, 12), 0.6, 0.8, x).values
    assert values[[0, 1, 3, 4]].tolist() == [0.0] * 4
    assert np.isfinite(values).all()


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
    # a Gaussian of variance r^2 / 2 centred at sqrt2 (mu Re alpha + nu Im alpha)
    cases = [(0.9, 1.0, 0.0), (0.6 + 0.9j, 0.0, 1.0), (0.6 + 0.9j, 0.6, 0.8),
             (-0.4 + 1.1j, 1.3, -0.4)]
    for alpha, mu, nu in cases:
        rho = coherent_density(alpha, 40)
        r = math.hypot(mu, nu)
        mean = math.sqrt(2.0) * (mu * alpha.real + nu * alpha.imag)
        x = mean + np.linspace(-4.0, 4.0, 41) * r
        expected = np.exp(-(((x - mean) / r) ** 2)) / (math.sqrt(math.pi) * r)
        vals = quantum_tomogram(rho, mu, nu, x).values
        np.testing.assert_allclose(vals, expected, atol=1e-8)


@settings(max_examples=20)
@given(alpha=_polar(0.0, 1.5))
def test_position_marginal_of_wigner_is_the_position_slice(alpha):
    # int W dp / 2 pi is the (mu, nu) = (1, 0) slice and int W dq / 2 pi the
    # (0, 1) slice; a complex alpha puts the state off both axes.  The
    # trapezoid rule is spectrally accurate on a grid far past the state's
    # support
    rho = coherent_density(alpha, 40)
    near = np.linspace(-9.0, 9.0, 37)
    far = np.linspace(-9.0, 9.0, 1201)
    q_marginal = np.trapezoid(wigner_from_density(rho, near, far).values.real, far, axis=1)
    p_marginal = np.trapezoid(wigner_from_density(rho, far, near).values.real, far, axis=0)
    for marginal, (mu, nu) in [(q_marginal, (1.0, 0.0)), (p_marginal, (0.0, 1.0))]:
        slice_ = quantum_tomogram(rho, mu, nu, near).values
        assert np.max(np.abs(marginal / (2.0 * math.pi) - slice_)) < 1e-12


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
    # the complex alpha puts the state off both axes, where the ray's sign shows
    x = np.linspace(-3.0, 4.0, 15)
    rays = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (1.2, -0.5), (0.9, 0.9)]
    for alpha in (1.0, 0.6 + 0.9j):
        rho = coherent_density(alpha, 20)
        dist = PhaseSpaceDistribution(
            density=lambda q, p: wigner_values(rho, q, p).real / (2.0 * math.pi),
            support_radius=8.0)
        for mu, nu in rays:
            via_wigner = radon_classical(dist, mu, nu, x).values
            via_basis = quantum_tomogram(rho, mu, nu, x).values
            np.testing.assert_allclose(via_wigner, via_basis, atol=1e-5)


def _state_from_tomograms(rho, x):
    """rho back from its unit-ray slices on one X axis.

    On K = 2 top + 1 rays theta_k = 2 pi k / K, the slice is
    sum_d g_d(X) exp(-i d theta_k) with g_d = sum_n rho_{n+d,n} phi_{n+d} phi_n
    over the offsets |d| <= top, so an inverse DFT over k isolates each g_d
    without aliasing, and one least-squares solve per offset on the products
    phi_{n+d} phi_n returns that diagonal of rho.
    """
    top = rho.dim - 1
    thetas = 2.0 * math.pi * np.arange(2 * top + 1) / (2 * top + 1)
    slices = np.array([quantum_tomogram(rho, math.cos(t), math.sin(t), x).values for t in thetas])
    g = np.fft.ifft(slices, axis=0)
    phi = hermite_functions(top, x)
    out = np.zeros((rho.dim, rho.dim), dtype=complex)
    for d in range(-top, top + 1):
        n = np.arange(max(0, -d), rho.dim - max(0, d))
        products = (phi[n + d] * phi[n]).T
        out[n + d, n] = np.linalg.lstsq(products, g[d], rcond=None)[0]
    return out


def test_tomograms_return_the_state():
    # random complex mixed states; the slices of the conjugate sign would
    # return rho transposed
    rng = np.random.default_rng(20261019)
    x = np.linspace(-10.0, 10.0, 601)
    worst = 0.0
    for dim in range(2, 17):
        for _ in range(3):
            rho = _random_mixed_state(rng, dim)
            worst = max(worst, float(np.max(np.abs(_state_from_tomograms(rho, x) - rho.matrix))))
    assert worst <= 1e-12


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


def test_min_value_of_an_empty_slice_is_inf():
    # numpy's untyped ValueError on a zero-size minimum, where WignerGrid.min_real gives inf
    quantum = quantum_tomogram(vacuum_density(6), 1.0, 0.0, [])
    classical = radon_classical(gaussian_distribution(), 1.0, 0.0, [])
    assert (quantum.min_value(), classical.min_value()) == (math.inf, math.inf)


def test_degenerate_ray_rejected():
    with pytest.raises(DegenerateRayError):
        radon_classical(gaussian_distribution(), 0.0, 0.0, np.array([0.0]))
    with pytest.raises(DegenerateRayError):
        quantum_tomogram(vacuum_density(6), 0.0, 0.0, np.array([0.0]))


@pytest.mark.parametrize("mu, nu", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0)])
def test_non_finite_ray_rejected(mu, nu):
    with pytest.raises(DegenerateRayError, match="ray coefficients must be finite"):
        radon_classical(gaussian_distribution(), mu, nu, np.array([0.0]))
    with pytest.raises(DegenerateRayError, match="ray coefficients must be finite"):
        quantum_tomogram(vacuum_density(6), mu, nu, np.array([0.0]))


def test_closed_fock_tomogram_refuses_a_negative_level():
    with pytest.raises(DomainError, match="level index must be >= 0"):
        fock_tomogram_closed(-1, 1.0, 0.0, np.array([0.0]))


def test_tiny_ray_is_not_degenerate():
    # mu^2 + nu^2 underflowed to 0 at mu = 1e-200: a false DegenerateRayError
    tiny = radon_classical(gaussian_distribution(), 1e-200, 0.0, [0.0]).values
    unit = radon_classical(gaussian_distribution(), 1.0, 0.0, [0.0]).values
    assert tiny[0] == pytest.approx(unit[0] * 1e200, rel=1e-12)


def test_huge_ray_keeps_its_scale():
    # mu^2 overflowed at mu = 1e200, so r was inf and the slice read 0
    values = quantum_tomogram(vacuum_density(5), 1e200, 0.0, [0.0]).values
    assert values[0] == pytest.approx(hermite_functions(0, 0.0)[0] ** 2 / 1e200, rel=1e-12, abs=0.0)


def test_x_over_a_short_ray_past_the_float_range_reads_zero():
    # X / r overflowed for r < 1 with a numpy RuntimeWarning, an error here
    assert quantum_tomogram(vacuum_density(5), 0.5, 0.0, [1e308]).values.tolist() == [0.0]
    assert fock_tomogram_closed(0, 0.5, 0.0, [1e308]).tolist() == [0.0]
