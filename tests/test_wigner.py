"""Phase-space quasidistributions: standard and deformed variants."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import comb, eval_laguerre, gammaln

import foscillator
from foscillator import (
    DensityMatrix,
    NumericToleranceError,
    coherent_density,
    coherent_truncation_dim,
    custom,
    deformed_lowering,
    deformed_parity_operator,
    deformed_wigner,
    deformed_wigner_values,
    displacement_matrix,
    fock_density,
    hermite_functions,
    identity,
    kerr,
    nonlinear_coherent_state,
    q_oscillator,
    vacuum_density,
    wigner_from_density,
    wigner_values,
)
from foscillator import wigner as wigner_module


def _grid(extent, n):
    ax = np.linspace(-extent, extent, n)
    qq, pp = np.meshgrid(ax, ax, indexing="ij")
    return ax, qq, pp


def test_vacuum_is_a_gaussian():
    _, qq, pp = _grid(4.0, 17)
    w = wigner_values(vacuum_density(30), qq, pp)
    np.testing.assert_allclose(
        w.real, 2.0 * np.exp(-(qq * qq + pp * pp)), atol=1e-8
    )
    assert np.max(np.abs(w.imag)) < 1e-12


def test_origin_values():
    assert wigner_values(vacuum_density(20), 0.0, 0.0) == pytest.approx(2.0, abs=1e-8)
    assert wigner_values(fock_density(1, 20), 0.0, 0.0) == pytest.approx(-2.0, abs=1e-8)


def test_fock_one_changes_sign():
    # negative lobe at the origin, positive ring near the classical radius
    rho = fock_density(1, 25)
    assert wigner_values(rho, 1.3, 0.0).real > 0.0
    assert wigner_values(rho, 0.0, 0.0).real < 0.0


def test_normalization_on_grid():
    ax, _, _ = _grid(7.0, 141)
    grid = wigner_from_density(coherent_density(1.0, 25), ax, ax)
    assert grid.normalization() == pytest.approx(1.0, abs=1e-4)


def test_hermitian_state_gives_real_values():
    rho = coherent_density(0.6 + 0.3j, 20)
    _, qq, pp = _grid(3.0, 9)
    w = wigner_values(rho, qq, pp)
    assert np.max(np.abs(w.imag)) < 1e-12


def test_grid_coverage_warning():
    rho = coherent_density(1.5, 30)
    with pytest.warns(RuntimeWarning):
        wigner_from_density(rho, np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))


def test_displacement_matrix_closed_entries():
    beta = 0.4 + 0.3j
    d = displacement_matrix(beta, 25)
    g = math.exp(-0.5 * abs(beta) ** 2)
    assert d[0, 0] == pytest.approx(g, rel=1e-12)
    assert d[1, 0] == pytest.approx(beta * g, rel=1e-12)
    assert d[0, 1] == pytest.approx(-np.conj(beta) * g, rel=1e-12)
    for m in (2, 5):
        assert d[m, m] == pytest.approx(g * eval_laguerre(m, abs(beta) ** 2), rel=1e-10)


def test_displacement_matrix_is_nearly_unitary_inside():
    # truncation spoils only the highest levels for moderate |beta|
    d = displacement_matrix(0.7 - 0.2j, 40)
    gram = d.conj().T @ d
    np.testing.assert_allclose(gram[:20, :20], np.eye(20), atol=1e-10)


def test_deformed_parity_identity_profile():
    p = deformed_parity_operator(identity(), 8)
    np.testing.assert_allclose(p, (-1.0) ** np.arange(8), atol=1e-12)


def test_identity_profile_reduces_to_standard():
    rho = coherent_density(0.8, 12)
    _, qq, pp = _grid(1.5, 7)
    w_std = wigner_values(rho, qq, pp)
    for variant in ("usual_parity", "deformed_parity"):
        w_f = deformed_wigner_values(rho, identity(), qq, pp, variant)
        assert np.max(np.abs(w_f - w_std)) < 1e-8


def test_deformed_parity_vacuum_origin():
    rho = vacuum_density(8)
    for spec in (identity(), kerr(0.1)):
        v = deformed_wigner_values(rho, spec, 0.0, 0.0, "deformed_parity")
        assert v == pytest.approx(2.0, abs=1e-10)


def test_usual_parity_values_are_real():
    rho = coherent_density(1.0, 14)
    _, qq, pp = _grid(2.0, 5)
    w = deformed_wigner_values(rho, kerr(0.1), qq, pp, "usual_parity", pad=12)
    assert np.max(np.abs(w.imag)) < 1e-9


def test_small_kerr_perturbs_weakly():
    # deviation from the standard function stays O(chi) on the sampled square
    rho = vacuum_density(8)
    _, qq, pp = _grid(3.0, 9)
    w_std = wigner_values(rho, qq, pp).real
    for chi in (0.01, 0.02, 0.05):
        w_f = deformed_wigner_values(rho, kerr(chi), qq, pp, "usual_parity", pad=55).real
        assert np.max(np.abs(w_f - w_std)) < 10.0 * chi


def test_deformation_vanishes_monotonically():
    rho = coherent_density(0.8, 12)
    _, qq, pp = _grid(1.5, 7)
    w_std = wigner_values(rho, qq, pp)
    for variant in ("usual_parity", "deformed_parity"):
        devs = [
            np.max(np.abs(
                deformed_wigner_values(rho, kerr(chi), qq, pp, variant, pad=30) - w_std
            ))
            for chi in (0.1, 0.05, 0.01)
        ]
        assert devs[0] > devs[1] > devs[2]


def test_grid_wrapper_and_diagnostics():
    # |W_f| <= 2 everywhere: a trace of a product of unitaries against a state
    ax = np.linspace(-2.0, 2.0, 21)
    grid = deformed_wigner(vacuum_density(10), kerr(0.1), ax, ax, "usual_parity")
    assert grid.values.shape == (21, 21)
    assert grid.max_imag() < 1e-9
    assert grid.min_real() > -2.0 - 1e-8
    assert np.max(np.abs(grid.values.real)) <= 2.0 + 1e-8
    assert math.isfinite(grid.normalization())


def test_threaded_evaluation_matches_serial():
    rho = coherent_density(0.7, 10)
    _, qq, pp = _grid(1.0, 5)
    serial = deformed_wigner_values(rho, kerr(0.2), qq, pp, "usual_parity", workers=None)
    threaded = deformed_wigner_values(rho, kerr(0.2), qq, pp, "usual_parity", workers=3)
    np.testing.assert_array_equal(serial, threaded)


def test_violent_profile_trips_the_unitarity_guard():
    spec = custom(fn=lambda n: 1.0 + 1e7 * np.asarray(n, float))
    with pytest.raises(NumericToleranceError):
        deformed_wigner_values(vacuum_density(6), spec, 2.0, 1.0, "usual_parity")


# ---------------------------------------------------------------------------
# Independent oracles for the batched maps


def _expm_deformed_reference(rho, spec, q, p, variant, pad):
    # The definition point by point: 2 Tr[P rho U_f] with U_f from expm on the
    # padded basis, trimmed back to dim.
    from scipy.linalg import expm

    dim = rho.matrix.shape[0]
    a_f = deformed_lowering(spec, dim + pad)
    if variant == "usual_parity":
        pvec = (-1.0) ** np.arange(dim)
    else:
        pvec = deformed_parity_operator(spec, dim)
    alpha = (q + 1j * p) / math.sqrt(2.0)
    u = expm(2.0 * (alpha * a_f.conj().T - np.conj(alpha) * a_f))[:dim, :dim]
    return 2.0 * np.einsum("m,mj,jm->", pvec, rho.matrix, u)


@pytest.mark.parametrize("variant", ["usual_parity", "deformed_parity"])
@pytest.mark.parametrize("spec", [
    kerr(0.1),
    q_oscillator(0.15),
    custom(fn=lambda n: 1.0 + 0.05 * np.sqrt(np.asarray(n, float))),
], ids=["kerr", "q", "custom"])
def test_batched_deformed_map_matches_expm_per_point(variant, spec):
    ax = np.linspace(-3.0, 3.0, 7)
    qq, pp = np.meshgrid(ax, ax, indexing="ij")
    for rho in (coherent_density(0.9 - 0.6j, 20),
                nonlinear_coherent_state(0.7 + 0.5j, spec, 20).density()):
        w = deformed_wigner_values(rho, spec, qq, pp, variant, pad=12)
        ref = np.array([[_expm_deformed_reference(rho, spec, q, p, variant, 12)
                         for q, p in zip(qrow, prow)] for qrow, prow in zip(qq, pp)])
        assert np.max(np.abs(w - ref)) < 1e-12


def test_standard_map_matches_direct_laguerre_sum():
    from scipy.special import eval_genlaguerre

    dim = 60
    rho = coherent_density(2.0 + 1.0j, dim)
    ax = np.linspace(-8.0, 8.0, 41)
    qq, pp = np.meshgrid(ax, ax, indexing="ij")
    beta = math.sqrt(2.0) * (qq + 1j * pp)
    x = np.abs(beta) ** 2
    m = rho.matrix
    ref = np.zeros(beta.shape, dtype=complex)
    for k in range(dim):
        for n in range(dim - k):
            term = (-1.0) ** n * math.exp(0.5 * (gammaln(n + 1.0) - gammaln(n + k + 1.0)))
            term = term * eval_genlaguerre(n, k, x) * np.exp(-0.5 * x)
            if k == 0:
                ref += term * m[n, n]
            else:
                ref += term * (m[n + k, n] * np.conj(beta) ** k + m[n, n + k] * beta ** k)
    np.testing.assert_allclose(wigner_values(rho, qq, pp), 2.0 * ref, rtol=0, atol=1e-12)


def test_grid_larger_than_one_block_matches_point_calls():
    # A flat run of points crossing the internal block boundary.
    size = wigner_module._BLOCK + 37
    rng = np.random.default_rng(5)
    q = rng.uniform(-3.0, 3.0, size)
    p = rng.uniform(-3.0, 3.0, size)
    picks = sorted({0, 1, size - 38, size - 37, size - 36, size - 1, *rng.integers(0, size, 10).tolist()})
    rho = coherent_density(0.8 + 0.4j, 16)
    spec = kerr(0.1)
    for variant in ("usual_parity", "deformed_parity"):
        w = deformed_wigner_values(rho, spec, q, p, variant)
        for i in picks:
            assert abs(w[i] - deformed_wigner_values(rho, spec, q[i], p[i], variant)) < 1e-13
    w = wigner_values(rho, q, p)
    for i in picks:
        assert abs(w[i] - wigner_values(rho, q[i], p[i])) < 1e-13


def test_displacement_matrix_matches_padded_exponential():
    # D(beta) = expm(beta a+ - beta* a) on a basis padded far beyond the
    # trimmed block; |beta|^2 = 34 reaches well into the Laguerre oscillation.
    from scipy.linalg import expm

    dim, big = 50, 260
    for beta in (0.3 + 0.2j, 2.0 - 1.0j, 5.0 + 3.0j):
        a = np.diag(np.sqrt(np.arange(1.0, big)), k=1)
        ref = expm(beta * a.T - np.conj(beta) * a)[:dim, :dim]
        assert np.max(np.abs(displacement_matrix(beta, dim) - ref)) < 1e-11


@pytest.mark.parametrize("spec", [kerr(0.02), kerr(0.2), q_oscillator(0.02)], ids=str)
def test_phase_guard_spares_ordinary_profiles(spec):
    # dim + pad = 200 at r = |alpha| = 6: phase errors stay near 5e-13.
    v = deformed_wigner_values(vacuum_density(20), spec, 6.0 * math.sqrt(2.0), 0.0,
                               "usual_parity", pad=180)
    assert math.isfinite(v.real) and abs(v) <= 2.0 + 1e-8


def test_violent_profile_names_lost_phase_precision():
    spec = custom(fn=lambda n: 1.0 + 1e7 * np.asarray(n, float))
    with pytest.raises(NumericToleranceError, match="phase precision"):
        deformed_wigner_values(vacuum_density(6), spec, 2.0, 1.0, "usual_parity")


def test_import_leaves_scipy_linalg_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(foscillator.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, foscillator; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(foscillator.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, foscillator.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# The standard map on Hermite-Gauss coefficients


def _rotation_matrices(top, dim):
    """R^0 .. R^top from the step, on the columns a dim-level state uses."""
    r = np.array([[0.0, 1.0, 0.0]])
    out = [r[:, 1:-1]]
    for order in range(1, top + 1):
        r = wigner_module._rotation_step(r, order, dim)
        out.append(r[:, 1:-1])
    return out


def _binomial_rotation(order):
    # <j, N-j | m, N-m> of the 50:50 beam splitter, from the binomial expansion
    # of (a+ + b+)^m (a+ - b+)^n / sqrt(2^N m! n!)
    out = np.zeros((order + 1, order + 1))
    for m in range(order + 1):
        n = order - m
        for j in range(order + 1):
            total = sum(comb(m, r, exact=True) * comb(n, j - r, exact=True) * (-1) ** (n - j + r)
                        for r in range(max(0, j - n), min(m, j) + 1))
            log_norm = 0.5 * (gammaln(j + 1.0) + gammaln(order - j + 1.0)
                              - gammaln(m + 1.0) - gammaln(n + 1.0)) - 0.5 * order * math.log(2.0)
            out[j, m] = total * math.exp(log_norm)
    return out


def test_rotation_matrices_stay_orthogonal():
    # dim 200 reaches order 398; rounding grows linearly, not geometrically
    for order, r in enumerate(_rotation_matrices(398, 399)):
        assert r.shape == (order + 1, order + 1)
        assert np.max(np.abs(r @ r.T - np.eye(order + 1))) <= 1e-13, order


def test_rotation_matrices_match_the_binomial_sum():
    for order, r in enumerate(_rotation_matrices(40, 41)):
        np.testing.assert_allclose(r, _binomial_rotation(order), rtol=0, atol=1e-14)


def test_rotation_step_carries_only_the_columns_a_state_uses():
    dim = 7
    for order, (full, kept) in enumerate(zip(_rotation_matrices(12, 13), _rotation_matrices(12, dim))):
        lo, hi = max(0, order - dim + 1), min(order, dim - 1)
        np.testing.assert_array_equal(kept, full[:, lo:hi + 1])


@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_fock_map_stops_at_order_two_n(monkeypatch, n):
    orders = []
    step = wigner_module._rotation_step

    def counted(r, order, dim):
        orders.append(order)
        return step(r, order, dim)

    monkeypatch.setattr(wigner_module, "_rotation_step", counted)
    ax = np.linspace(-7.0, 7.0, 11)
    wigner_from_density(fock_density(n, 40), ax, ax)
    assert orders == list(range(1, 2 * n + 1))
    orders.clear()
    wigner_values(fock_density(n, 40), 0.3, -0.2)
    assert orders == list(range(1, 2 * n + 1))


def test_standard_grid_larger_than_one_block_matches_point_calls():
    ax = np.linspace(-7.0, 7.0, 91)  # 8281 points, past one block
    assert ax.size ** 2 > wigner_module._BLOCK
    rho = nonlinear_coherent_state(1.1 - 0.7j, kerr(0.1), 30).density()
    grid = wigner_from_density(rho, ax, ax).values
    qq, pp = np.meshgrid(ax, ax, indexing="ij")
    np.testing.assert_allclose(wigner_values(rho, qq, pp), grid, rtol=0, atol=1e-14)
    for i, j in [(0, 0), (45, 90), (90, 1), (90, 90), (17, 64)]:
        assert abs(grid[i, j] - wigner_values(rho, ax[i], ax[j])) < 1e-14


def _laguerre_reference(rho, qq, pp):
    # The closed form 2 Tr[P rho D(beta)], beta = sqrt2 (q + i p), summed
    # diagonal by diagonal: <n+k|D|n> = e^(i k arg beta) l_n^k(x), x = |beta|^2,
    # with l_n^k = sqrt(n!/(n+k)!) x^(k/2) e^(-x/2) L_n^(k)(x) carried by the
    # normalised three-term Laguerre recurrence
    m = rho.matrix
    dim = m.shape[0]
    beta = math.sqrt(2.0) * (qq + 1j * pp)
    x = np.abs(beta) ** 2
    unit = np.exp(1j * np.angle(beta))
    acc = np.zeros(beta.shape, dtype=complex)
    for k in range(dim):
        with np.errstate(divide="ignore"):
            power = 0.5 * k * np.log(x) if k else 0.0
        prev, cur = 0.0, np.exp(power - 0.5 * x - 0.5 * gammaln(k + 1.0))
        lower = upper = 0.0
        for n in range(dim - k):
            lower = lower + (-1) ** n * m[n + k, n] * cur
            upper = upper + (-1) ** n * m[n, n + k] * cur
            prev, cur = cur, (((2 * n + 1 + k) - x) * cur - math.sqrt(n * (n + k)) * prev) / math.sqrt(
                (n + 1) * (n + k + 1))
        acc += lower * unit.conj() ** k
        if k:
            acc += upper * unit ** k
    return 2.0 * acc


def _random_mixed_state(dim, seed):
    # complex entries, support below the checked tail of the basis
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a[np.arange(dim) > 0.9 * (dim - 1)] = 0.0
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


_STATES = st.one_of(
    st.builds(_random_mixed_state, st.integers(2, 60), st.integers(0, 2 ** 32 - 1)),
    st.builds(lambda r, phi: coherent_density(r * np.exp(1j * phi), coherent_truncation_dim(r) + 5),
              st.floats(0.0, 2.5), st.floats(-math.pi, math.pi)),
    st.builds(lambda r, phi, spec: nonlinear_coherent_state(r * np.exp(1j * phi), spec, 40).density(),
              st.floats(0.0, 1.5), st.floats(-math.pi, math.pi),
              st.one_of(st.floats(0.0, 0.2).map(kerr), st.floats(0.01, 0.2).map(q_oscillator))),
)


@settings(max_examples=40)
@given(rho=_STATES)
def test_standard_map_grid_points_and_laguerre_reference_agree(rho):
    ax = np.linspace(-8.0, 8.0, 33)
    qq, pp = np.meshgrid(ax, ax, indexing="ij")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "grid extent", RuntimeWarning)
        grid = wigner_from_density(rho, ax, ax).values
    points = wigner_values(rho, qq, pp)
    np.testing.assert_allclose(grid, points, rtol=0, atol=1e-14)
    np.testing.assert_allclose(grid, _laguerre_reference(rho, qq, pp), rtol=0, atol=1e-13)


@settings(max_examples=20)
@given(rho=_STATES)
def test_standard_map_marginals_are_the_position_and_momentum_densities(rho):
    # int W dp / 2 pi = <q|rho|q> and int W dq / 2 pi = <p|rho|p>, with
    # <p|m> = (-i)^m phi_m(p); the trapezoid rule is spectrally accurate on a
    # grid that resolves the top order and reaches past the state's support
    dim = rho.dim
    reach = math.sqrt(2.0 * dim + 1.0)
    ax = np.linspace(-(reach + 7.0), reach + 7.0, int(40.0 * (reach + 7.0) * reach / 8.0) | 1)
    w = wigner_from_density(rho, ax, ax).values
    phi = hermite_functions(dim - 1, ax)
    m = rho.matrix
    levels = np.arange(dim)
    q_density = np.einsum("mn,mx,nx->x", m, phi, phi)
    p_density = np.einsum("mn,mx,nx->x", m * 1j ** (levels[None, :] - levels[:, None]), phi, phi)
    np.testing.assert_allclose(np.trapezoid(w, ax, axis=1) / (2.0 * math.pi), q_density,
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(np.trapezoid(w, ax, axis=0) / (2.0 * math.pi), p_density,
                               rtol=0, atol=1e-10)
