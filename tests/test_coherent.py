"""Deformed coherent states: single mode, two-mode, Schmidt structure."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from foscillator import (
    CoherentStateVector,
    DomainError,
    TruncationError,
    deformed_lowering,
    eigen_residual,
    identity,
    kerr,
    nonlinear_coherent_state,
    position_wavefunction,
    q_oscillator,
    schmidt_spectrum,
    two_mode_coherent_state,
    two_mode_eigen_residuals,
)
from foscillator.nonlinearity import log_f_factorial


def _gammaln_weights(logmag, phase):
    mag = np.exp(logmag - logmag.max())
    mag /= np.linalg.norm(mag)
    return mag * np.exp(1j * phase)


def test_zero_amplitude_is_vacuum():
    st = nonlinear_coherent_state(0.0, kerr(0.3), 10)
    expected = np.zeros(10, dtype=complex)
    expected[0] = 1.0
    np.testing.assert_array_equal(st.amplitudes, expected)


def test_identity_profile_gives_poisson_amplitudes():
    alpha = 1.0
    st = nonlinear_coherent_state(alpha, identity(), 40)
    n = np.arange(40, dtype=float)
    expected = np.exp(n * math.log(alpha) - 0.5 * gammaln(n + 1.0) - 0.5)
    np.testing.assert_allclose(st.amplitudes.real, expected, atol=1e-12)
    assert st.amplitudes[0].real == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert np.max(np.abs(st.amplitudes.imag)) == 0.0


def test_kerr_weights_tie_at_unit_profile():
    # f(1) = 1 for every chi, so c_1/c_0 = alpha: equal weights at alpha = 1
    st = nonlinear_coherent_state(1.0, kerr(0.1), 40)
    assert st.amplitudes[0].real == pytest.approx(0.6191053719393739, rel=1e-12)
    assert st.amplitudes[1].real == pytest.approx(st.amplitudes[0].real, rel=1e-14)


def test_amplitudes_are_normalized():
    for spec in (identity(), kerr(0.1), q_oscillator(0.1)):
        st = nonlinear_coherent_state(0.7 + 0.7j, spec, 40)
        assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("spec", [kerr(0.1), q_oscillator(0.1)])
def test_eigen_residual_small(spec):
    st = nonlinear_coherent_state(1.0, spec, 40)
    assert eigen_residual(st) < 1e-8


def test_truncation_artifact_is_localized_at_top():
    st = nonlinear_coherent_state(1.0, q_oscillator(0.1), 20)
    resid = deformed_lowering(st.spec, st.dim) @ st.amplitudes - st.alpha * st.amplitudes
    # the top five rows, which eigen_residual skips, carry the truncation defect
    assert np.linalg.norm(resid) > np.linalg.norm(resid[:-5]) == eigen_residual(st)


def test_tail_weight_shrinks_with_dim():
    tails = [
        abs(nonlinear_coherent_state(1.0, kerr(0.1), d).amplitudes[-1]) ** 2
        for d in (20, 40, 60)
    ]
    assert tails[0] > tails[1] > tails[2]
    residuals = [
        eigen_residual(nonlinear_coherent_state(1.0, kerr(0.1), d))
        for d in (20, 40, 60)
    ]
    assert max(residuals) < 1e-12


def test_truncation_error_when_dim_too_small():
    with pytest.raises(TruncationError):
        nonlinear_coherent_state(3.0, identity(), 12)
    with pytest.raises(DomainError):
        nonlinear_coherent_state(1.0, identity(), 1)


def test_vacuum_wavefunction_value():
    st = nonlinear_coherent_state(0.0, identity(), 8)
    assert position_wavefunction(st, 0.0) == pytest.approx(
        math.pi ** -0.25, rel=1e-12
    )


def test_identity_wavefunction_closed_form():
    alpha = 0.7 + 0.4j
    st = nonlinear_coherent_state(alpha, identity(), 40)
    x = np.linspace(-4.0, 4.0, 33)
    q0 = math.sqrt(2.0) * alpha.real
    p0 = math.sqrt(2.0) * alpha.imag
    closed = np.pi ** -0.25 * np.exp(
        -0.5 * (x - q0) ** 2 + 1j * (p0 * x - 0.5 * q0 * p0)
    )
    np.testing.assert_allclose(position_wavefunction(st, x), closed, atol=1e-8)


def test_even_superpositions_have_even_wavefunctions():
    c = np.zeros(9, dtype=complex)
    c[0], c[2], c[4] = 0.8, 0.5, 0.33166247903554
    c /= np.linalg.norm(c)
    st = CoherentStateVector(alpha=0.0, spec=identity(), amplitudes=c)
    x = np.linspace(0.1, 3.1, 7)
    np.testing.assert_allclose(
        position_wavefunction(st, x), position_wavefunction(st, -x), atol=1e-14
    )


@pytest.mark.parametrize("spec", [identity(), kerr(0.1)])
def test_wavefunction_norm(spec):
    st = nonlinear_coherent_state(1.0, spec, 40)
    x = np.linspace(-8.0, 8.0, 1601)
    density = np.abs(position_wavefunction(st, x)) ** 2
    assert np.trapezoid(density, x) == pytest.approx(1.0, abs=1e-6)


def test_two_mode_vacuum():
    st = two_mode_coherent_state(0.0, 0.0, kerr(0.2), (8, 8))
    assert st.coefficients[0, 0] == pytest.approx(1.0)
    assert np.sum(np.abs(st.coefficients) ** 2) == pytest.approx(1.0, abs=1e-14)


def test_identity_two_mode_factorizes():
    a1, a2 = 0.8, 0.5 + 0.3j
    st = two_mode_coherent_state(a1, a2, identity(), (30, 30))
    c1 = nonlinear_coherent_state(a1, identity(), 30).amplitudes
    c2 = nonlinear_coherent_state(a2, identity(), 30).amplitudes
    np.testing.assert_allclose(st.coefficients, np.outer(c1, c2), atol=1e-12)


def test_two_mode_eigen_residuals_small():
    st = two_mode_coherent_state(1.0, 1.0, kerr(0.1), (40, 40))
    r1, r2 = two_mode_eigen_residuals(st)
    assert r1 < 1e-8 and r2 < 1e-8


def test_schmidt_identity_separable():
    st = two_mode_coherent_state(1.0, 0.7, identity(), (30, 30))
    sp = schmidt_spectrum(st)
    assert sp.sigma2 < 1e-10
    assert sp.entropy < 1e-8
    assert sp.separable


def test_schmidt_kerr_entangled():
    st = two_mode_coherent_state(1.0, 1.0, kerr(0.1), (40, 40))
    sp = schmidt_spectrum(st)
    assert sp.sigma2 == pytest.approx(0.033355349293226345, rel=1e-8)
    assert sp.sigma2 > 1e-3
    assert sp.entropy == pytest.approx(0.008687732959582292, rel=1e-8)
    assert not sp.separable


def test_schmidt_spectrum_is_a_distribution():
    st = two_mode_coherent_state(0.9, 1.1, kerr(0.2), (40, 40))
    sp = schmidt_spectrum(st)
    assert np.sum(sp.singular_values ** 2) == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(sp.singular_values) <= 0)


def test_schmidt_spectrum_swap_invariant():
    a = schmidt_spectrum(two_mode_coherent_state(1.0, 0.6, kerr(0.1), (40, 40)))
    b = schmidt_spectrum(two_mode_coherent_state(0.6, 1.0, kerr(0.1), (40, 40)))
    np.testing.assert_allclose(a.singular_values, b.singular_values, atol=1e-12)


def test_entanglement_fades_with_the_deformation():
    ref = two_mode_coherent_state(1.0, 1.0, identity(), (40, 40)).coefficients
    dist, s2, ent = [], [], []
    for chi in (0.1, 0.05, 0.01):
        st = two_mode_coherent_state(1.0, 1.0, kerr(chi), (40, 40))
        sp = schmidt_spectrum(st)
        dist.append(np.linalg.norm(st.coefficients - ref))
        s2.append(sp.sigma2)
        ent.append(sp.entropy)
    assert dist[0] > dist[1] > dist[2]
    assert s2[0] > s2[1] > s2[2]
    assert ent[0] > ent[1] > ent[2]


def test_two_mode_truncation_guard():
    with pytest.raises(TruncationError):
        two_mode_coherent_state(2.5, 2.5, identity(), (12, 12))


@pytest.mark.parametrize("dims, message", [
    ((1, 8), "two-mode state needs dims >= 2"),
    ((8, 0), "two-mode state needs dims >= 2"),
    (8, "two-mode state needs a pair of dims"),
    ((8, 8, 8), "two-mode state needs a pair of dims"),
    # ragged: numpy's untyped ValueError came first
    (([1, 2], 3), "two-mode state needs a pair of dims"),
])
def test_two_mode_refuses_bad_dims(dims, message):
    with pytest.raises(DomainError, match=message):
        two_mode_coherent_state(0.5, 0.5, identity(), dims)


def test_schmidt_coefficients_are_numbers_by_the_rule():
    # numpy's UFuncTypeError from the SVD of a matrix of strings
    with pytest.raises(DomainError, match="^coefficient matrix must be a number, got '1'$"):
        schmidt_spectrum([["1", "0"], ["0", "0"]])


@pytest.mark.parametrize("coeff", [np.ones(3), np.ones((2, 2, 2))], ids=["1-D", "3-D"])
def test_schmidt_spectrum_needs_a_matrix(coeff):
    with pytest.raises(DomainError, match="schmidt spectrum needs a two-index coefficient matrix"):
        schmidt_spectrum(coeff)


@pytest.mark.parametrize("spec", [kerr(0.1), q_oscillator(0.1)])
@pytest.mark.parametrize("alpha", [0.6, 1.4 - 0.9j])
def test_nonlinear_weights_match_gammaln_reference(spec, alpha):
    dim = 60
    n = np.arange(dim, dtype=float)
    r, phase = abs(alpha), math.atan2(complex(alpha).imag, complex(alpha).real)
    logmag = n * math.log(r) - log_f_factorial(spec, dim - 1) - 0.5 * gammaln(n + 1.0)
    st = nonlinear_coherent_state(alpha, spec, dim)
    np.testing.assert_allclose(st.amplitudes, _gammaln_weights(logmag, phase * n),
                               rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("spec", [identity(), kerr(0.1)])
def test_two_mode_weights_match_gammaln_reference(spec):
    a1, a2, dims = 1.2, 0.8 - 0.5j, (34, 27)
    n1 = np.arange(dims[0], dtype=float)[:, None]
    n2 = np.arange(dims[1], dtype=float)[None, :]
    logf = log_f_factorial(spec, sum(dims) - 2)
    logmag = (n1 * math.log(abs(a1)) + n2 * math.log(abs(a2)) - 0.5 * gammaln(n1 + 1.0)
              - 0.5 * gammaln(n2 + 1.0) - logf[(n1 + n2).astype(int)])
    phase = n1 * math.atan2(0.0, a1) + n2 * math.atan2(a2.imag, a2.real)
    st = two_mode_coherent_state(a1, a2, spec, dims)
    np.testing.assert_allclose(st.coefficients, _gammaln_weights(logmag, phase),
                               rtol=0.0, atol=1e-13)
