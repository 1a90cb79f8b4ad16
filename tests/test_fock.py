"""Truncated ladder algebra, diagonal Hamiltonians, exact phase evolution."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammaln

from foscillator import (
    DensityMatrix,
    DomainError,
    TruncationError,
    coherent_density,
    commutator_defect,
    custom,
    deformed_lowering,
    density_from_amplitudes,
    eval_f,
    evolve_density,
    expectation,
    fock_density,
    hamiltonian_diagonal,
    heisenberg_invariant,
    identity,
    kerr,
    lowering_operator,
    nonlinear_coherent_state,
    q_oscillator,
    vacuum_density,
)
from foscillator import fock, nonlinearity
from foscillator.fock import HAMILTONIAN_FORMS, _coherent_weights, _hermiticity_residual, _log_factorials
from foscillator.nonlinearity import require_positive


def test_lowering_dim2():
    np.testing.assert_array_equal(lowering_operator(2), [[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("dim", [0, 1])
def test_lowering_needs_two_levels(dim):
    with pytest.raises(DomainError, match="operator truncation needs dim >= 2"):
        lowering_operator(dim)


@pytest.mark.parametrize("matrix", [np.eye(2, 3), np.ones(3), np.ones((2, 2, 2))],
                         ids=["2x3", "1-D", "3-D"])
def test_density_matrix_must_be_square(matrix):
    with pytest.raises(DomainError, match="density matrix must be square"):
        DensityMatrix(matrix)


@pytest.mark.parametrize("data, message", [
    ([[1.0, 0.0], [0.0, 0.0]], "density description needs dim, re, im fields"),
    ({"dim": 1, "re": [[1.0]]}, "density description needs dim, re, im fields"),
    ({"dim": 2, "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]}, "re/im blocks must be dim x dim"),
    ({"dim": 2, "re": [[1.0]], "im": [[0.0]]}, "re/im blocks must be dim x dim"),
], ids=["list", "no-im", "short-rows", "wrong-dim"])
def test_density_from_dict_refuses_malformed_input(data, message):
    with pytest.raises(DomainError, match=message):
        DensityMatrix.from_dict(data)


@pytest.mark.parametrize("field, value, message", [
    ("dim", "x", "density field 'dim' must be an integer"),
    ("dim", None, "density field 'dim' must be an integer"),
    ("dim", math.inf, "density field 'dim' must be an integer"),
    ("dim", 2.9, "density field 'dim' must be an integer"),
    ("re", [["x", 0.0], [0.0, 0.0]], "density field 're' must be a number, got 'x'"),
    ("im", [[0.0], [0.0, 0.0]], "density field 'im' must be a number, got [0.0]"),
    ("dim", True, "density field 'dim' must be an integer"),
    ("re", [[True, False], [False, False]], "density field 're' must be a number, got True"),
    ("im", [[0.0, 0.0], [0.0, False]], "density field 'im' must be a number, got False"),
    # read as 2 by int(): a size is an integer by one rule
    ("dim", 2.0, "density field 'dim' must be an integer"),
    ("dim", "2", "density field 'dim' must be an integer"),
], ids=["dim-string", "dim-null", "dim-inf", "dim-fraction", "re-string", "im-ragged",
        "dim-bool", "re-bool", "im-bool", "dim-float", "dim-integer-text"])
def test_density_from_dict_names_a_field_it_cannot_convert(field, value, message):
    data = {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]], field: value}
    with pytest.raises(DomainError, match=re.escape(message)):
        DensityMatrix.from_dict(data)


def test_lowering_action_on_columns():
    a = lowering_operator(6)
    for n in range(1, 6):
        col = np.zeros(6)
        col[n] = 1.0
        out = a @ col
        expected = np.zeros(6)
        expected[n - 1] = math.sqrt(n)
        np.testing.assert_allclose(out, expected, rtol=1e-15)


def test_commutator_defect_localizes_at_truncation():
    d = commutator_defect(4)
    np.testing.assert_allclose(d[:3, :3], 0.0, atol=1e-14)
    assert d[3, 3] == pytest.approx(-4.0, rel=1e-14)
    assert np.max(np.abs(d) * (1.0 - np.eye(4))) < 1e-14


@settings(max_examples=60)
@given(r=st.floats(0.0, 3.0), phi=st.floats(-math.pi, math.pi), dim=st.integers(2, 200))
def test_identity_profile_gives_the_harmonic_ladder_and_coherent_state(r, phi, dim):
    np.testing.assert_array_equal(lowering_operator(dim), deformed_lowering(identity(), dim))
    alpha = r * complex(math.cos(phi), math.sin(phi))
    try:
        harmonic = coherent_density(alpha, dim).matrix
        deformed = nonlinear_coherent_state(alpha, identity(), dim).density().matrix
    except TruncationError:
        return  # each builder keeps its own truncation rule
    # Both are unit vectors of the weights exp(lambda_n + i n phi), with
    # lambda_n = n log r - log(n!)/2 formed in log space: each lambda_n to
    # within (dim + 4) eps (1 + L), L = max_n |n log r| + log(n!)/2, and the
    # exponential and the normalisation keep that relative error per weight,
    # so an entry c_m conj(c_n), |c| <= 1, is off by at most twice it in each
    # builder, and the two differ by at most four times it.
    n = np.arange(dim)
    big = np.max(n * abs(math.log(r)) + 0.5 * _log_factorials(dim - 1)) if r > 0.0 else 0.0
    bound = 4.0 * (dim + 4) * np.finfo(float).eps * (1.0 + big)
    assert np.max(np.abs(harmonic - deformed)) <= bound


def test_deformed_lowering_kerr_entry():
    a_f = deformed_lowering(kerr(0.1), 5)
    assert a_f[1, 2] == pytest.approx(math.sqrt(2.0) * math.sqrt(1.1), rel=1e-14)


def test_deformed_number_diagonal():
    spec = q_oscillator(0.3)
    a_f = deformed_lowering(spec, 10)
    fvals = eval_f(spec, np.arange(10, dtype=float))
    np.testing.assert_allclose(
        np.diag(a_f.conj().T @ a_f).real, np.arange(10.0) * fvals ** 2, rtol=1e-13
    )


def test_hamiltonian_forms_identity_profile():
    n = np.arange(7, dtype=float)
    np.testing.assert_allclose(hamiltonian_diagonal(identity(), 7, "normal"), n)
    np.testing.assert_allclose(
        hamiltonian_diagonal(identity(), 7, "normal_half"), n + 0.5
    )
    np.testing.assert_allclose(
        hamiltonian_diagonal(identity(), 7, "symmetric"), n + 0.5
    )


def test_hamiltonian_kerr_form():
    h = hamiltonian_diagonal(kerr(0.5), 5, "kerr")
    assert h[2] == pytest.approx(3.0, rel=1e-14)  # n + chi n (n-1)
    np.testing.assert_allclose(h, hamiltonian_diagonal(kerr(0.5), 5, "normal"), rtol=1e-13)


def test_hamiltonian_kerr_form_needs_kerr_profile():
    with pytest.raises(DomainError):
        hamiltonian_diagonal(identity(), 5, "kerr")
    with pytest.raises(DomainError):
        hamiltonian_diagonal(kerr(0.1), 5, "vortex")


def test_hamiltonian_symmetric_form():
    spec = kerr(0.2)
    n = np.arange(6, dtype=float)
    f = eval_f(spec, n)
    f_up = eval_f(spec, n + 1.0)
    expected = 0.5 * (n * f ** 2 + (n + 1.0) * f_up ** 2)
    np.testing.assert_allclose(
        hamiltonian_diagonal(spec, 6, "symmetric"), expected, rtol=1e-13
    )


def test_invariant_identity_profile_is_rotating_ladder():
    t = 0.9
    q = heisenberg_invariant(identity(), 6, t, form="normal")
    np.testing.assert_allclose(q, lowering_operator(6) * np.exp(1j * t), rtol=1e-13)


def test_invariant_at_zero_time_is_deformed_lowering():
    spec = kerr(0.3)
    np.testing.assert_array_equal(
        heisenberg_invariant(spec, 9, 0.0), deformed_lowering(spec, 9)
    )


@pytest.mark.parametrize("spec, form", [
    (identity(), "symmetric"), (kerr(0.2), "normal"), (kerr(0.2), "kerr"),
    (q_oscillator(0.1), "symmetric"), (q_oscillator(0.1), "normal_half"),
    (custom(table=np.linspace(1.0, 2.0, 41)), "symmetric"),
])
def test_invariant_matches_the_dense_construction(spec, form):
    dim = 40
    for t in (0.0, 1.7, -3.1, 1e6):
        dense = deformed_lowering(spec, dim).copy()
        h = hamiltonian_diagonal(spec, dim, form)
        idx = np.arange(dim - 1)
        dense[idx, idx + 1] *= np.exp(1j * (h[1:] - h[:-1]) * t)
        np.testing.assert_array_equal(heisenberg_invariant(spec, dim, t, form), dense)


def test_invariant_evaluates_the_profile_once(monkeypatch):
    calls = []

    def counting(spec, top):
        calls.append(top)
        return require_positive(spec, top)

    monkeypatch.setattr(fock, "require_positive", counting)
    fock._level_energies.cache_clear()
    heisenberg_invariant(custom(table=[math.sqrt(1.0 + 0.1 * k) for k in range(13)]), 12, 0.7)
    assert calls == [12]


def test_one_level_table_serves_every_evolution_and_invariant(monkeypatch):
    # an evolve op of the benchmark: the invariant at t = 0, then an evolution
    # and an invariant at each of three times, all from one profile evaluation
    calls = []

    def counting(spec, top):
        calls.append(top)
        return require_positive(spec, top)

    monkeypatch.setattr(fock, "require_positive", counting)
    fock._level_energies.cache_clear()
    spec, rho = custom(table=[1.0 + 0.01 * k for k in range(45)]), coherent_density(1.0, 40)
    heisenberg_invariant(spec, 40, 0.0)
    for t in (0.5, 1.7, 4.2):
        evolve_density(rho, spec, t)
        heisenberg_invariant(spec, 40, t)
    assert calls == [40]


def test_hamiltonian_diagonal_is_a_writable_copy():
    spec = q_oscillator(0.1)
    h = hamiltonian_diagonal(spec, 8)
    expected = h.copy()
    h[:] = 0.0
    np.testing.assert_array_equal(hamiltonian_diagonal(spec, 8), expected)


def test_invariant_matches_conjugation():
    spec = kerr(0.2)
    dim, t = 12, 1.7
    h = np.diag(hamiltonian_diagonal(spec, dim))
    u = expm(-1j * h * t)
    direct = u @ deformed_lowering(spec, dim) @ u.conj().T
    np.testing.assert_allclose(heisenberg_invariant(spec, dim, t), direct, atol=1e-12)


def test_invariant_expectation_is_frozen():
    spec = kerr(0.1)
    dim = 60
    rho0 = coherent_density(1.0, dim)
    ref = expectation(rho0, deformed_lowering(spec, dim))
    for t in (0.5, 1.0, 2.0):
        rho_t = evolve_density(rho0, spec, t)
        q_t = heisenberg_invariant(spec, dim, t)
        assert abs(expectation(rho_t, q_t) - ref) < 1e-10


def test_diagonal_states_are_stationary():
    pops = np.array([0.5, 0.3, 0.15, 0.05, 0.0, 0.0])
    rho = DensityMatrix(np.diag(pops).astype(complex))
    out = evolve_density(rho, kerr(0.4), 2.3)
    np.testing.assert_array_equal(out.matrix, rho.matrix)


def test_harmonic_full_period_revival():
    rho0 = coherent_density(1.0, 30)
    out = evolve_density(rho0, identity(), 2.0 * math.pi, form="normal")
    assert np.max(np.abs(out.matrix - rho0.matrix)) < 1e-12


def test_evolution_satisfies_von_neumann_equation():
    spec = kerr(0.1)
    dim, t, h = 14, 0.7, 1e-4
    rho = coherent_density(0.6, dim)
    ham = np.diag(hamiltonian_diagonal(spec, dim))
    rp = evolve_density(rho, spec, t + h).matrix
    rm = evolve_density(rho, spec, t - h).matrix
    rc = evolve_density(rho, spec, t).matrix
    resid = (rp - rm) / (2.0 * h) + 1j * (ham @ rc - rc @ ham)
    assert np.max(np.abs(resid)) < 1e-6


def test_evolution_group_property():
    spec = q_oscillator(0.2)
    rho = coherent_density(0.8, 25)
    a = evolve_density(evolve_density(rho, spec, 1.1), spec, 2.2)
    b = evolve_density(rho, spec, 3.3)
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12


def test_evolution_preserves_purity_and_trace():
    rho = coherent_density(1.0, 30)
    out = evolve_density(rho, kerr(0.3), 5.1)
    assert out.purity() == pytest.approx(rho.purity(), abs=1e-12)
    assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_density_matrix_validation():
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[1.0]]))  # dim 1
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[0.5, 0.1], [0.4, 0.5]]))  # not hermitian
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[0.8, 0.0], [0.0, 0.1]]))  # trace != 1
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative weight
    heavy_top = np.diag([0.5, 0.0, 0.0, 0.0, 0.5]).astype(complex)
    with pytest.raises(TruncationError):
        DensityMatrix(heavy_top)


def test_non_finite_entries_are_refused_by_name():
    nan, inf = float("nan"), float("inf")
    pair = np.array([[0.5, nan], [nan, 0.5]])
    inf_entry = np.diag([0.5, 0.5, 0.0]).astype(complex)
    inf_entry[1, 0] = inf
    imag_pair = np.diag([0.5, 0.5, 0.0]).astype(complex)
    imag_pair[0, 1], imag_pair[1, 0] = complex(0.0, inf), complex(0.0, -inf)
    for m in (np.diag([nan, nan]), pair, inf_entry, np.diag([inf, 0.0]), imag_pair):
        with pytest.raises(DomainError, match="^density matrix must be finite, got "):
            DensityMatrix(m)
    # the same entries from the package's own builder: amplitudes that put a
    # NaN or an inf on the diagonal, in a row and its column, or in an
    # imaginary part, refused before any division can warn
    for c in ([nan, nan], [1.0, nan], [1.0, inf, 0.0], [inf, 0.0], [1.0, complex(0.0, inf), 0.0]):
        with pytest.raises(DomainError, match="^amplitudes must be finite, got "):
            density_from_amplitudes(c)
    # a single amplitude is refused for its value first, as the matrix is
    with pytest.raises(DomainError, match=r"^amplitudes must be finite, got \(nan\+0j\)$"):
        density_from_amplitudes([nan])
    with pytest.raises(DomainError, match=r"^density matrix must be finite, got \(nan\+0j\)$"):
        DensityMatrix([[nan]])


@pytest.mark.parametrize("call, message", [
    (lambda: density_from_amplitudes(["1", "0", "0"]), "amplitudes must be a number, got '1'"),
    (lambda: density_from_amplitudes([True, False, False]), "amplitudes must be a number, got True"),
    (lambda: DensityMatrix([["1", "0"], ["0", "0"]]), "density matrix must be a number, got '1'"),
    (lambda: expectation(vacuum_density(3), [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
     "operator must be a number, got '1'"),
    (lambda: expectation(vacuum_density(3), np.full((3, 3), math.nan)),
     "operator must be finite, got (nan+0j)"),
], ids=["amplitude-strings", "amplitude-bools", "matrix-strings", "operator-strings", "operator-nan"])
def test_complex_arrays_are_numbers_by_the_rule(call, message):
    # strings and bools were read as numbers and gave the projector on level
    # 0, an operator of strings raised numpy's einsum TypeError, and a NaN
    # operator gave nan+nanj
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("amplitudes, shape", [(np.ones((2, 3)), (2, 3)), (1.0, ())],
                         ids=["matrix", "scalar"])
def test_amplitudes_must_be_a_vector(amplitudes, shape):
    # a 2 x 3 array was flattened into a 6-level state
    with pytest.raises(DomainError, match=f"^amplitudes must be a 1-D vector, got shape {re.escape(str(shape))}$"):
        density_from_amplitudes(amplitudes)


@pytest.mark.parametrize("t, message", [
    (math.nan, "time t must be finite, got nan"),
    (math.inf, "time t must be finite, got inf"),
    (-math.inf, "time t must be finite, got -inf"),
    (1e308, "phase angles H t are not finite at t = 1e+308"),
    (-1e308, "phase angles H t are not finite at t = -1e+308"),
], ids=str)
def test_non_finite_time_is_refused_by_name(t, message):
    # the invariant returned a NaN superdiagonal without a word, and the
    # evolution warned before blaming non-finite entries
    rho = coherent_density(0.5, 20)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        heisenberg_invariant(kerr(0.1), 20, t)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        evolve_density(rho, kerr(0.1), t)


def test_overflowing_asymmetry_is_reported_as_not_hermitian():
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1], m[1, 0] = 1e308, -1e308
    with pytest.raises(DomainError, match="not hermitian: max deviation inf"):
        DensityMatrix(m)


def test_density_matrix_is_read_only():
    rho = vacuum_density(4)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


def test_density_matrix_never_aliases_its_input():
    a = _pure(np.eye(6)[1] + 0.5j * np.eye(6)[0])
    rho = DensityMatrix(a)
    kept = rho.matrix.copy()
    a[:] = 0.0
    np.testing.assert_array_equal(rho.matrix, kept)
    assert not np.shares_memory(rho.matrix, a)


def test_trusted_states_own_their_matrix_read_only(monkeypatch):
    built = []
    outer = np.outer

    def recording(a, b):
        built.append(outer(a, b))
        return built[-1]

    monkeypatch.setattr(np, "outer", recording)
    rho = density_from_amplitudes(np.eye(6)[2])
    assert rho.matrix is built[-1]  # ownership passes, no copy
    assert not rho.matrix.flags.writeable
    real = density_from_amplitudes([0.5, math.sqrt(0.75), 0.0, 0.0, 0.0, 0.0])
    assert real.matrix.dtype == complex and not real.matrix.flags.writeable
    rho0 = coherent_density(0.8 - 0.2j, 20)
    assert evolve_density(rho0, kerr(0.1), 1.7).matrix is built[-1]
    for out in (evolve_density(rho0, kerr(0.1), 1.7), evolve_density(rho0, identity(), 0.0),
                vacuum_density(5), nonlinear_coherent_state(0.5, kerr(0.1), 20).density()):
        assert not out.matrix.flags.writeable
        assert not np.shares_memory(out.matrix, rho0.matrix)


@pytest.mark.parametrize("dim", [2, 17, 60, 130, 201])
def test_hermiticity_residual_equals_the_direct_formula(dim):
    rng = np.random.default_rng(dim)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for a in (m, m + m.conj().T, 0.5 * (m + m.conj().T) + 1e-13 * rng.normal(size=(dim, dim))):
        assert _hermiticity_residual(a) == np.max(np.abs(a - a.conj().T))


def test_density_json_round_trip():
    rho = evolve_density(coherent_density(0.7 + 0.2j, 16), kerr(0.2), 1.3)
    back = DensityMatrix.from_dict(rho.to_dict())
    np.testing.assert_array_equal(back.matrix, rho.matrix)


def test_fock_and_vacuum_densities():
    assert vacuum_density(5).matrix[0, 0] == 1.0
    rho = fock_density(2, 5)
    assert rho.matrix[2, 2] == 1.0
    assert rho.purity() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        fock_density(7, 5)


def test_empty_basis_is_a_domain_error():
    with pytest.raises(DomainError, match="outside the truncated basis of dim 0"):
        vacuum_density(0)


def test_coherent_density_poisson_weights():
    rho = coherent_density(1.0, 30)
    assert rho.matrix[0, 0].real == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert expectation(rho, np.diag(np.arange(30.0))).real == pytest.approx(1.0, rel=1e-10)


def test_log_factorials_match_gammaln():
    table = _log_factorials(5000)
    expected = gammaln(np.arange(5001) + 1.0)
    assert table.shape == (5001,)
    assert table[0] == table[1] == 0.0
    np.testing.assert_allclose(table[2:], expected[2:], rtol=1e-14, atol=0.0)


def _check_harmonic_against_poisson(alpha, dim):
    """coherent_density, and nonlinear_coherent_state of the identity
    profile where its tail criterion lets it build the state, against the
    Poisson amplitudes from gammaln, independent of the log-factorial table.
    Each weight is the exponential of a log of a few hundred at most, rounded
    to a few eps of its size; 1e-13 bounds what that leaves on an entry
    (4.8e-15 is the largest seen, at |alpha| = 6.5)."""
    n = np.arange(dim, dtype=float)
    r, phase = abs(alpha), math.atan2(complex(alpha).imag, complex(alpha).real)
    c = np.exp(n * math.log(r) - 0.5 * gammaln(n + 1.0) - 0.5 * r * r) * np.exp(1j * phase * n)
    c /= np.linalg.norm(c)
    rho = coherent_density(alpha, dim)
    np.testing.assert_allclose(rho.matrix, np.outer(c, c.conj()), rtol=0.0, atol=1e-13)
    if abs(c[-1]) ** 2 < 1e-13:  # nonlinear_coherent_state refuses a top weight >= 1e-12
        amps = nonlinear_coherent_state(alpha, identity(), dim).amplitudes
        np.testing.assert_allclose(amps, c, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("alpha, dim", [(0.7, 12), (1.5 + 0.8j, 40), (-3.0 + 2.0j, 90), (6.0 - 2.5j, 160)])
def test_coherent_density_matches_gammaln_reference(alpha, dim):
    _check_harmonic_against_poisson(alpha, dim)


@settings(max_examples=60, deadline=None)
@given(r=st.floats(1e-3, 6.5), phase=st.floats(-math.pi, math.pi), extra=st.integers(0, 60))
def test_harmonic_coherent_states_match_gammaln_reference_for_drawn_alpha_and_dim(r, phase, extra):
    # a dim whose top levels hold a Poisson population far below both
    # builders' tail criteria
    dim = math.ceil(r * r + 8.0 * r + 12.0) + extra
    _check_harmonic_against_poisson(complex(r * math.cos(phase), r * math.sin(phase)), dim)


def test_coherent_density_evaluates_no_profile(monkeypatch):
    # F(n) = 1: the harmonic state took log F from log_f_factorial(identity(), dim - 1)
    def refuse(*args):
        raise AssertionError("a profile was evaluated")

    monkeypatch.setattr(nonlinearity, "eval_f", refuse)
    with pytest.raises(AssertionError, match="a profile was evaluated"):
        nonlinear_coherent_state(1.0 + 0.5j, identity(), 40)
    rho = coherent_density(1.0 + 0.5j, 40)
    assert rho.matrix[0, 0].real == pytest.approx(math.exp(-1.25), rel=1e-12)


def test_density_from_amplitudes_scales_a_vector_whose_norm_overflows():
    # the sum of squares overflowed (a warning) and the state was refused as
    # "trace 0.0 is not 1"; finite norms keep their own path
    zeros = [0.0] * 10
    for big, unit in (([1e200, 1e200], [1.0, 1.0]),
                      ([complex(1.5e308, -1.5e308), 0.0], [complex(1.0, -1.0), 0.0]),
                      ([3.0 * 2.0 ** 1020, 4.0 * 2.0 ** 1020], [0.75, 1.0])):
        np.testing.assert_array_equal(density_from_amplitudes(big + zeros).matrix,
                                      density_from_amplitudes(unit + zeros).matrix)
    finite = [1e150, 1e150] + zeros
    assert density_from_amplitudes(finite).matrix.tobytes() == _pure(finite).tobytes()


def test_density_from_amplitudes_scales_a_vector_whose_sum_of_squares_underflows():
    # the sum of squares fell to 0 ("amplitude vector is zero") or to a
    # subnormal ("trace 1.0000111329... is not 1"); dividing by the largest
    # part gives the projector of [1, 1] bit for bit
    zeros = [0.0] * 10
    for tiny, unit in (([1e-200, 1e-200], [1.0, 1.0]), ([1e-160, 1e-160], [1.0, 1.0]),
                       ([complex(0.0, 1e-170), 1e-170], [1j, 1.0])):
        np.testing.assert_array_equal(density_from_amplitudes(tiny + zeros).matrix,
                                      density_from_amplitudes(unit + zeros).matrix)
    # a norm in the normal range keeps its path
    normal = [1e-150, 1e-150] + zeros
    assert density_from_amplitudes(normal).matrix.tobytes() == _pure(normal).tobytes()
    with pytest.raises(DomainError, match="^amplitude vector is zero$"):
        density_from_amplitudes([0.0] * 12)


def test_trace_refusal_prints_a_plain_float():
    # under numpy 2 it read "trace np.float64(1.0000111329) is not 1"
    with pytest.raises(DomainError, match=r"^trace 1\.0000111329 is not 1$"):
        DensityMatrix(np.diag([1.0000111329] + [0.0] * 11))


def test_density_from_amplitudes_normalizes():
    c = np.zeros(12)
    c[0], c[1] = 3.0, 4.0
    rho = density_from_amplitudes(c)
    assert rho.matrix[0, 0].real == pytest.approx(0.36, rel=1e-14)
    with pytest.raises(DomainError):
        density_from_amplitudes(np.zeros(12))


def test_expectation_shape_guard():
    with pytest.raises(DomainError):
        expectation(vacuum_density(4), np.eye(5))


# --- validation at the boundary: trusted builders vs full validation ---


def _pure(c):
    c = np.asarray(c, dtype=complex)
    c = c / np.linalg.norm(c)
    return np.outer(c, c.conj())


def _trusted_builds():
    """(name, trusted build, matrix the fully validated route starts from)."""
    cases = [
        ("vacuum", lambda: vacuum_density(20), _pure(np.eye(20)[0])),
        ("fock", lambda: fock_density(5, 20), _pure(np.eye(20)[5])),
        ("coherent", lambda: coherent_density(1.1 + 0.6j, 40),
         _pure(_coherent_weights(1.1 + 0.6j, 0j, np.zeros(40), 40, 1)[:, 0])),
    ]
    for spec in (kerr(0.1), q_oscillator(0.1)):
        amps = nonlinear_coherent_state(1.2 - 0.3j, spec, 40).amplitudes
        cases.append((f"nl-{spec.kind}",
                      lambda spec=spec: nonlinear_coherent_state(1.2 - 0.3j, spec, 40).density(),
                      _pure(amps)))
    rho = DensityMatrix(0.6 * coherent_density(0.9 - 0.4j, 30).matrix + 0.4 * fock_density(3, 30).matrix)
    cases.append(("evolve-mixed", lambda: evolve_density(rho, kerr(0.2), 2.7),
                  _congruence(rho, kerr(0.2), 2.7, "symmetric")))
    return cases


def _congruence(rho, spec, t, form):
    """evolve_density's matrix, built without its checks."""
    e = np.exp(-1j * (hamiltonian_diagonal(spec, rho.dim, form) * t))
    phase = np.outer(e, e.conj())
    np.fill_diagonal(phase, 1.0)
    return rho.matrix * phase


def _outcome(build):
    """The matrix ``build()`` returns, or the type of the error it raises."""
    try:
        return build().matrix
    except (DomainError, TruncationError) as exc:
        return type(exc)


def _assert_same_outcome(got, want):
    """Both the same error type, or both matrices equal bit for bit."""
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


@pytest.fixture
def residual_calls(monkeypatch):
    calls = []
    real = fock._hermiticity_residual

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(fock, "_hermiticity_residual", counting)
    return calls


def test_trusted_builders_match_full_validation():
    for name, build, raw in _trusted_builds():
        trusted = build()
        full = DensityMatrix(raw)
        np.testing.assert_array_equal(trusted.matrix, full.matrix, err_msg=name)
        assert not trusted.matrix.flags.writeable
        assert np.linalg.eigvalsh(trusted.matrix).min() > -1e-14, name


def test_trusted_builders_skip_the_dense_checks(eigvalsh_calls, residual_calls):
    # no eigendecomposition and no O(dim^2) hermiticity pass: the builders
    # check in O(dim) what their inputs can break
    cases = _trusted_builds()
    for name, build, _ in cases:
        eigvalsh_calls.clear()
        residual_calls.clear()
        build()
        assert (len(eigvalsh_calls), len(residual_calls)) == (0, 0), name
    for name, _, raw in cases:
        eigvalsh_calls.clear()
        residual_calls.clear()
        rho = DensityMatrix(raw)
        assert (len(eigvalsh_calls), len(residual_calls)) == (1, 1), name
        eigvalsh_calls.clear()
        residual_calls.clear()
        DensityMatrix.from_dict(rho.to_dict())
        assert (len(eigvalsh_calls), len(residual_calls)) == (1, 1), name


def test_trusted_builders_keep_the_tail_check():
    with pytest.raises(TruncationError):
        coherent_density(3.0, 12)
    with pytest.raises(TruncationError):
        fock_density(9, 10)


def test_evolve_past_phase_precision_stays_valid(eigvalsh_calls):
    # At t = 1e7 the angles (H_m - H_n) t of a dim-60 Kerr state have lost
    # their low digits, but the phases exp(-i H_m t) are still unit numbers:
    # the congruence keeps the spectrum, so nothing is re-diagonalised and
    # the state passes full validation.
    rho = coherent_density(1.0, 60)
    out = evolve_density(rho, kerr(0.1), 1e7)
    assert len(eigvalsh_calls) == 0
    np.testing.assert_array_equal(DensityMatrix(out.matrix).matrix, out.matrix)
    np.testing.assert_allclose(np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix),
                               rtol=0.0, atol=1e-13)


def test_evolving_a_state_at_the_hermiticity_tolerance_refuses_as_full_validation():
    # a residual of exactly _HERM_TOL passes, and the rounding of an evolution
    # pushes it past the tolerance at some times: there the carried bound
    # sends the result to the residual check, which refuses it as
    # DensityMatrix would
    m = np.diag([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    m[0, 1] = fock._HERM_TOL
    rho = DensityMatrix(m)
    refused = 0
    for t in np.linspace(0.1, 50.0, 200):
        got = _outcome(lambda: evolve_density(rho, kerr(0.1), t))
        _assert_same_outcome(got, _outcome(lambda: DensityMatrix(_congruence(rho, kerr(0.1), t, "symmetric"))))
        refused += got is DomainError
    assert 0 < refused < 200


def test_chained_evolutions_measure_the_residual_when_the_bound_passes_the_tolerance(residual_calls):
    # the carried bound grows by about 16 eps a step and passes 1e-12 after
    # 282 steps; the measured residual then replaces it
    rho = coherent_density(0.5, 10)
    for _ in range(300):
        rho = evolve_density(rho, kerr(0.1), 0.7)
    assert len(residual_calls) == 1
    np.testing.assert_array_equal(DensityMatrix(rho.matrix).matrix, rho.matrix)


def test_full_validation_check_order():
    # fails both hermiticity and positivity: hermiticity is reported
    with pytest.raises(DomainError, match="not hermitian"):
        DensityMatrix(np.array([[1.5, 0.1], [0.4, -0.5]]))
    # fails both positivity and the tail: positivity is reported
    bad = np.diag([1.2, 0.0, 0.0, 0.0, -0.2]).astype(complex)
    with pytest.raises(DomainError, match="negative eigenvalue"):
        DensityMatrix(bad)


_PROFILES = st.one_of(
    st.floats(0.0, 0.3).map(kerr),
    st.floats(0.01, 0.3).map(q_oscillator),
    st.just(identity()),
)


@settings(max_examples=60)
@given(
    dim=st.integers(20, 90),
    t=st.floats(-20.0, 20.0),
    spec=_PROFILES,
    form=st.sampled_from(["symmetric", "normal", "normal_half"]),
    weights=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
)
def test_evolution_keeps_populations_and_spectrum(dim, t, spec, form, weights):
    top = int(0.9 * (dim - 1))  # highest level below the checked tail
    parts = (vacuum_density(dim), fock_density(top, dim), coherent_density(0.8 - 0.5j, dim))
    rho = DensityMatrix(sum(w * p.matrix for w, p in zip(weights, parts)) / sum(weights))
    out = evolve_density(rho, spec, t, form)
    np.testing.assert_array_equal(np.diag(out.matrix), np.diag(rho.matrix))
    np.testing.assert_allclose(np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix),
                               rtol=0.0, atol=1e-13)


@settings(max_examples=60)
@given(
    dim=st.integers(20, 90),
    t=st.floats(1e3, 1e8),
    sign=st.sampled_from([1.0, -1.0]),
    spec=_PROFILES,
    form=st.sampled_from(["symmetric", "normal", "normal_half"]),
    weights=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
)
def test_long_time_evolution_is_a_congruence(dim, t, sign, spec, form, weights):
    # however many digits the angles (H_m - H_n) t lose, populations stay
    # bit-equal, the spectrum stays put, and each entry sits within the
    # rounding of its two level phases of the exact-angle formula
    t = sign * t
    top = int(0.9 * (dim - 1))
    parts = (vacuum_density(dim), fock_density(top, dim), coherent_density(0.8 - 0.5j, dim))
    rho = DensityMatrix(sum(w * p.matrix for w, p in zip(weights, parts)) / sum(weights))
    out = evolve_density(rho, spec, t, form).matrix
    np.testing.assert_array_equal(np.diag(out), np.diag(rho.matrix))
    np.testing.assert_allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho.matrix),
                               rtol=0.0, atol=1e-13)
    h = hamiltonian_diagonal(spec, dim, form)
    angle = (h[:, None] - h[None, :]) * t
    exact = rho.matrix * np.exp(-1j * angle)
    ht = np.abs(h * t)
    bound = np.finfo(float).eps * np.abs(rho.matrix) * (ht[:, None] + ht[None, :] + np.abs(angle) + 8.0)
    assert np.all(np.abs(out - exact) <= bound)


@settings(max_examples=60)
@given(
    dim=st.integers(2, 250),
    seed=st.integers(0, 2**32 - 1),
    log_tail=st.floats(-10.0, -6.0),
    log_scale=st.floats(-100.0, 100.0),
    spec=_PROFILES,
    form=st.sampled_from(HAMILTONIAN_FORMS),
    t=st.floats(-1e7, 1e7),
)
def test_builders_answer_and_refuse_as_full_validation(dim, seed, log_tail, log_scale, spec, form, t):
    # complex amplitudes whose top tenth holds a share 10^log_tail of the
    # weight, about the 1e-8 the tail check allows: the builder's matrix is
    # DensityMatrix(raw) bit for bit, or both refuse with one error type; so
    # is the evolution of the builder's state and of a mixed state
    rng = np.random.default_rng(seed)
    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    top = np.arange(dim) > 0.9 * (dim - 1)
    c[top] *= math.sqrt(10.0 ** log_tail * np.sum(np.abs(c[~top]) ** 2) / np.sum(np.abs(c[top]) ** 2))
    c *= 10.0 ** log_scale
    built = _outcome(lambda: density_from_amplitudes(c))
    _assert_same_outcome(built, _outcome(lambda: DensityMatrix(_pure(c))))
    if isinstance(built, type):
        return
    pure = density_from_amplitudes(c)
    mixed = DensityMatrix(0.5 * pure.matrix + 0.5 * vacuum_density(dim).matrix)
    for rho in (pure, mixed):
        _assert_same_outcome(_outcome(lambda: evolve_density(rho, spec, t, form)),
                             _outcome(lambda: DensityMatrix(_congruence(rho, spec, t, form))))
