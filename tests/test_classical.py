"""Classical deformed flow: amplitudes, invariants, distribution transport."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import foscillator
from foscillator import (
    DomainError,
    PhasePoint,
    PhaseSpaceDistribution,
    amplitude_trajectory,
    classical_invariants,
    custom,
    evolve_amplitude,
    frequency,
    gaussian_distribution,
    identity,
    kerr,
    phase_space_integral,
    propagate_distribution,
    q_oscillator,
)
from foscillator.classical import _cos_sin


def test_harmonic_half_period():
    assert evolve_amplitude(identity(), 1.0 + 0.0j, math.pi) == pytest.approx(
        -1.0 + 0.0j, abs=1e-12
    )


def test_linear_profile_flow():
    # f(E) = E/2 makes omega = E; |alpha0|^2 = pi flips the sign at t = 1
    spec = custom(table=[k / 2.0 for k in range(5)])
    alpha0 = complex(math.sqrt(math.pi), 0.0)
    assert evolve_amplitude(spec, alpha0, 1.0) == pytest.approx(-alpha0, abs=1e-8)


def test_flow_against_ode_integrator():
    # d alpha/dt = -i omega(|alpha|^2) alpha, integrated blind
    spec = q_oscillator(0.1)
    alpha0 = 1.0 + 0.0j

    def rhs(_t, y):
        a = y[0] + 1j * y[1]
        w = frequency(spec, abs(a) ** 2)
        d = -1j * w * a
        return [d.real, d.imag]

    sol = solve_ivp(
        rhs, (0.0, 10.0), [alpha0.real, alpha0.imag], rtol=1e-12, atol=1e-13
    )
    ref = sol.y[0, -1] + 1j * sol.y[1, -1]
    assert abs(evolve_amplitude(spec, alpha0, 10.0) - ref) < 1e-8


def test_trajectory_matches_single_steps():
    spec = q_oscillator(0.2)
    ts = np.linspace(0.0, 7.0, 15)
    traj = amplitude_trajectory(spec, 0.4 + 0.8j, ts)
    for t, a in zip(ts, traj):
        assert a == pytest.approx(evolve_amplitude(spec, 0.4 + 0.8j, t), abs=1e-13)


def test_modulus_is_conserved():
    # a rotation: the radius moves by roundoff only
    spec = q_oscillator(0.3)
    traj = amplitude_trajectory(spec, 1.1 - 0.3j, np.linspace(0.0, 50.0, 101))
    np.testing.assert_allclose(np.abs(traj), abs(1.1 - 0.3j), rtol=0, atol=1e-14)


def test_invariants_at_zero_time():
    pt = PhasePoint(q=0.7, p=-1.2)
    back = classical_invariants(q_oscillator(0.1), pt, 0.0)
    assert (back.q, back.p) == (pt.q, pt.p)
    q, p = np.random.default_rng(7).uniform(-4.0, 4.0, size=(2, 500))
    for spec in (q_oscillator(0.1), kerr(0.2), identity()):
        for law in ("amplitude", "canonical"):
            for t in (0.0, -0.0):
                back = classical_invariants(spec, PhasePoint(q, p), t, law)
                np.testing.assert_array_equal(back.q, q)
                np.testing.assert_array_equal(back.p, p)


def test_half_angle_rotation_matches_cos_and_sin():
    rng = np.random.default_rng(20261018)
    odd = (2.0 * np.arange(-2000, 2000) + 1.0) * np.pi
    theta = np.concatenate((rng.uniform(-1e7, 1e7, 200_000), rng.uniform(-10.0, 10.0, 50_000),
                            odd, [0.0, -0.0, np.pi, -np.pi, 1e7, -1e7]))
    c, s = _cos_sin(theta)
    assert np.max(np.abs(c - np.cos(theta))) <= 4.5e-16
    assert np.max(np.abs(s - np.sin(theta))) <= 4.5e-16
    c, s = _cos_sin(np.array([0.0, -0.0]))
    assert np.all(c == 1.0) and np.all(s == 0.0)


def test_invariants_quarter_period_identity():
    # omega = 1, t = pi/2: (q0, p0) = (-p, q)
    pt = PhasePoint(q=0.3, p=0.9)
    back = classical_invariants(identity(), pt, math.pi / 2.0)
    assert back.q == pytest.approx(-0.9, abs=1e-15)
    assert back.p == pytest.approx(0.3, abs=1e-15)


def test_invariants_undo_the_flow():
    spec = q_oscillator(0.15)
    alpha0 = 0.9 + 0.5j
    for t in (0.3, 2.0, 11.0):
        a = evolve_amplitude(spec, alpha0, t)
        pt = PhasePoint(q=math.sqrt(2.0) * a.real, p=math.sqrt(2.0) * a.imag)
        back = classical_invariants(spec, pt, t)
        assert back.q == pytest.approx(math.sqrt(2.0) * alpha0.real, abs=1e-10)
        assert back.p == pytest.approx(math.sqrt(2.0) * alpha0.imag, abs=1e-10)


def test_invariants_constant_along_trajectory():
    spec = q_oscillator(0.1)
    ts = np.linspace(0.0, 100.0, 100)
    traj = amplitude_trajectory(spec, 1.0 + 0.0j, ts)
    qs, ps = [], []
    for t, a in zip(ts, traj):
        pt = PhasePoint(q=math.sqrt(2.0) * a.real, p=math.sqrt(2.0) * a.imag)
        back = classical_invariants(spec, pt, t)
        qs.append(back.q)
        ps.append(back.p)
    assert np.max(np.abs(np.asarray(qs) - qs[0])) < 1e-10
    assert np.max(np.abs(np.asarray(ps) - ps[0])) < 1e-10


def test_invariant_map_preserves_energy():
    pt = PhasePoint(q=1.4, p=-0.6)
    back = classical_invariants(q_oscillator(0.2), pt, 5.0)
    assert back.q ** 2 + back.p ** 2 == pytest.approx(pt.q ** 2 + pt.p ** 2, rel=1e-13)


def test_flow_composition():
    spec = q_oscillator(0.2)
    alpha0 = 0.8 + 0.1j
    a12 = evolve_amplitude(spec, evolve_amplitude(spec, alpha0, 1.3), 2.4)
    assert a12 == pytest.approx(evolve_amplitude(spec, alpha0, 3.7), abs=1e-10)


@pytest.mark.parametrize("center_q, center_p, sigma", [
    (0.0, 0.0, math.nan),
    (0.0, 0.0, math.inf),
    (math.inf, 0.0, 1.0),
    (0.0, -math.inf, 1.0),
    (math.nan, 0.0, 1.0),
])
def test_gaussian_distribution_refuses_non_finite_parameters(center_q, center_p, sigma):
    with pytest.raises(DomainError):
        gaussian_distribution(center_q, center_p, sigma)


@pytest.mark.parametrize("sigma", [1e-155, 1e-300])
def test_gaussian_distribution_refuses_a_sigma_whose_norm_overflows(sigma):
    # 2 pi sigma^2 is subnormal at 1e-155 and 0.0 at 1e-300
    with pytest.raises(DomainError, match="1/\\(2 pi sigma\\^2\\) overflows"):
        gaussian_distribution(0.0, 0.0, sigma)


def test_gaussian_exponent_stays_in_the_float_range_on_its_support():
    # at sigma = 1 the exponent's numerator dq^2 + dp^2 reaches 8 R^2 at
    # |dq| = |dp| = 2R, finite below R = sqrt(max / 8); the support radius of
    # a blob that far out is its centre's distance
    edge = math.sqrt(np.finfo(float).max / 8.0)
    with pytest.raises(DomainError, match=r"blob at \(4\.74\d*e\+153, 0\) of sigma 1 on the "
                                          r"support radius 4\.74\d*e\+153"):
        gaussian_distribution(edge * (1.0 + 1e-12), 0.0, 1.0)
    blob = gaussian_distribution(edge * (1.0 - 1e-12), 0.0, 1.0)
    r = blob.support_radius
    with np.errstate(over="raise"):
        assert blob.density(-r, 2.0 * r) == 0.0


def test_support_radius_keeps_the_energy_in_the_float_range():
    # (q^2 + p^2)/2 at |q| = |p| = R is R^2, finite below R = sqrt(max / 2)
    edge = math.sqrt(np.finfo(float).max / 2.0)
    with pytest.raises(DomainError, match=r"support radius 9\.48\d*e\+153"):
        PhaseSpaceDistribution(lambda q, p: 0.0 * q, edge * (1.0 + 1e-12))
    PhaseSpaceDistribution(lambda q, p: 0.0 * q, edge * (1.0 - 1e-12))


@pytest.mark.parametrize("radius", [-1.0, 0.0, -0.0])
def test_support_radius_must_be_positive(radius):
    # a radius of -1 integrated to 0.3935 and one of 0 to 0.0, with no error
    with pytest.raises(DomainError, match=rf"^support radius must be > 0, got {radius!r}$"):
        gaussian_distribution(0.0, 0.0, 1.0, support_radius=radius)
    with pytest.raises(DomainError, match=rf"^support radius must be > 0, got {radius!r}$"):
        PhaseSpaceDistribution(lambda q, p: 0.0 * q, radius)


def test_point_values_far_out_read_0_or_are_refused_without_warnings():
    # past |q| ~ 1.3e154 the energy and the Gaussian exponent overflow: the
    # blob and its identity flow read 0 there, a deformed flow refuses E = inf,
    # and numpy printed overflow warnings before each
    src = os.path.dirname(os.path.dirname(os.path.abspath(foscillator.__file__)))
    probe = "\n".join([
        "from foscillator import *",
        "blob = gaussian_distribution()",
        "print(blob.density(1e200, 0.0))",
        "print(propagate_distribution(blob, identity(), 1.0).density(1e200, 0.0))",
        "try:",
        "    propagate_distribution(blob, kerr(0.1), 1.0).density(1e200, 0.0)",
        "except DomainError as exc:",
        "    print(exc)",
    ])
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", probe],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.splitlines() == ["0.0", "0.0",
                                       "profile evaluated to a non-finite value at n = inf"]


def test_stationary_isotropic_gaussian():
    # density a function of energy alone: a fixed point of any deformed flow
    dist = gaussian_distribution(0.0, 0.0, 1.0)
    moved = propagate_distribution(dist, q_oscillator(0.2), 2.7)
    qs = np.linspace(-3.0, 3.0, 13)
    qq, pp = np.meshgrid(qs, qs, indexing="ij")
    np.testing.assert_allclose(moved(qq, pp), dist(qq, pp), rtol=0, atol=1e-12)


def test_offset_gaussian_rides_the_rotation():
    # identity flow, quarter period: center (2, 0) -> (0, -2)
    dist = gaussian_distribution(2.0, 0.0, 0.5)
    moved = propagate_distribution(dist, identity(), math.pi / 2.0)
    peak = 1.0 / (2.0 * math.pi * 0.25)
    assert moved(0.0, -2.0) == pytest.approx(peak, rel=1e-12)
    # old center now sits 2*sqrt(2) away: e^{-16} of the peak
    assert moved(2.0, 0.0) == pytest.approx(peak * math.exp(-16.0), rel=1e-10)


def test_transport_preserves_normalization():
    dist = gaussian_distribution(1.0, 0.5, 0.8)
    moved = propagate_distribution(dist, q_oscillator(0.2), 3.0)
    assert phase_space_integral(moved) == pytest.approx(1.0, abs=1e-6)


def test_transport_composes():
    spec = q_oscillator(0.25)
    dist = gaussian_distribution(1.0, 0.0, 0.7)
    once = propagate_distribution(dist, spec, 3.1)
    twice = propagate_distribution(propagate_distribution(dist, spec, 1.4), spec, 1.7)
    qs = np.linspace(-2.0, 2.0, 9)
    qq, pp = np.meshgrid(qs, qs, indexing="ij")
    np.testing.assert_allclose(twice(qq, pp), once(qq, pp), rtol=0, atol=1e-12)


def test_transport_satisfies_continuity_equation():
    # residual of d rho/dt + omega(E) (p dq - q dp) rho by central differences
    spec = q_oscillator(0.2)
    dist = gaussian_distribution(1.0, 0.0, 0.8)
    t, h = 1.0, 1e-4
    qs = np.linspace(-2.5, 2.5, 21)
    qq, pp = np.meshgrid(qs, qs, indexing="ij")
    omega = frequency(spec, 0.5 * (qq * qq + pp * pp))

    def at(tt, dq=0.0, dp=0.0):
        return propagate_distribution(dist, spec, tt)(qq + dq, pp + dp)

    d_t = (at(t + h) - at(t - h)) / (2.0 * h)
    d_q = (at(t, dq=h) - at(t, dq=-h)) / (2.0 * h)
    d_p = (at(t, dp=h) - at(t, dp=-h)) / (2.0 * h)
    residual = d_t + omega * (pp * d_q - qq * d_p)
    assert np.max(np.abs(residual)) < 1e-4


_PROFILES = st.one_of(
    st.just(identity()),
    st.floats(0.01, 0.5).map(q_oscillator),
    st.floats(0.0, 0.5).map(kerr),
)


@settings(max_examples=60)
@given(spec=_PROFILES, law=st.sampled_from(["amplitude", "canonical"]),
       radius=st.floats(0.01, 3.0), angle=st.floats(-math.pi, math.pi),
       times=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8))
def test_invariants_undo_the_trajectory_property(spec, law, radius, angle, times):
    # the flow is the rotation by -omega(E) t, the invariants the rotation by +omega(E) t
    q0, p0 = radius * math.cos(angle), radius * math.sin(angle)
    ts = np.asarray(times)
    alphas = amplitude_trajectory(spec, complex(q0, p0) / math.sqrt(2.0), ts, law)
    at = PhasePoint(math.sqrt(2.0) * alphas.real, math.sqrt(2.0) * alphas.imag)
    back = classical_invariants(spec, at, ts, law)
    assert np.max(np.hypot(back.q - q0, back.p - p0)) <= 1e-12 * radius


def test_array_invariants_equal_the_per_point_calls():
    spec = q_oscillator(0.3)
    q = np.array([1.4, -0.2, 0.0, 2.5, -1.1])
    p = np.array([0.3, 0.9, 0.0, -1.7, -0.4])
    ts = np.array([[0.0], [1.5], [-7.25]])
    back = classical_invariants(spec, PhasePoint(q, p), ts, "canonical")
    assert back.q.shape == back.p.shape == (3, 5)
    # a few ulp: numpy may take other SIMD paths for arrays than for scalars
    for i, t in enumerate(ts[:, 0]):
        for j in range(q.size):
            one = classical_invariants(spec, PhasePoint(float(q[j]), float(p[j])), float(t), "canonical")
            assert back.q[i, j] == pytest.approx(one.q, rel=1e-15, abs=1e-15)
            assert back.p[i, j] == pytest.approx(one.p, rel=1e-15, abs=1e-15)


def test_invariants_refuse_a_time_that_does_not_broadcast():
    # numpy's untyped ValueError, from the product omega(E) t
    message = r"^the point and t do not broadcast: shapes \(2,\) and \(3,\)$"
    with pytest.raises(DomainError, match=message):
        classical_invariants(kerr(0.1), PhasePoint([1.0, 2.0], [0.5, 0.5]), [0.0, 1.0, 2.0])


def test_flow_on_a_table_knot_turns_at_the_rate_above_it():
    # E = (2^2 + 0^2)/2 = 2 exactly, the knot between the segments of slope
    # 0.2 and -0.1: the point turns at f(2) + 2 (1.2 - 1.3), the rate of the
    # segment above, at every time
    spec = custom(table=[1.0, 1.1, 1.3, 1.2])
    omega = 1.3 + 2.0 * (1.2 - 1.3)
    assert frequency(spec, 2.0) == omega
    ts = np.linspace(0.0, 10.0, 21)
    back = classical_invariants(spec, PhasePoint(2.0, 0.0), ts)
    c, s = _cos_sin(omega * ts)
    assert back.q.tolist() == (2.0 * c).tolist()
    assert back.p.tolist() == (2.0 * s).tolist()


def test_frequency_overflow_is_a_domain_error():
    # lam E = 1000: f is finite, f^2 is not, so the canonical frequency overflows
    with pytest.raises(DomainError, match="the canonical frequency overflows at E = 1000"):
        evolve_amplitude(q_oscillator(1.0), math.sqrt(1000.0), 1.0, "canonical")
    with pytest.raises(DomainError, match="the canonical frequency overflows"):
        classical_invariants(q_oscillator(1.0), PhasePoint(np.array([1.0, 44.8]), 0.0), 1.0, "canonical")
