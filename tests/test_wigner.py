"""Phase-space quasidistributions: standard and deformed variants."""

import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import comb, gammaln

import foscillator
from foscillator import (
    DensityMatrix,
    DomainError,
    NumericToleranceError,
    PhasePoint,
    classical_invariants,
    coherent_density,
    custom,
    deformed_lowering,
    deformed_parity_operator,
    deformed_wigner,
    deformed_wigner_values,
    eval_f,
    evolve_density,
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
    custom(table=[1.0 + 0.05 * math.sqrt(k) for k in range(32)]),  # dim 20 + pad 12 levels
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


@pytest.mark.skipif(np.finfo(np.longdouble).minexp > -16000,
                    reason="the reference needs e^-800 in long double")
def test_fock_map_holds_out_to_its_support_radius():
    # |400> reaches radius sqrt(801) = 28.3, where e^(-x^2/2) at x = sqrt2 q
    # underflows in double; W_n = 2 (-1)^n e^(-r^2) L_n(2 r^2), with L_n by
    # its three-term recurrence in long double.
    n = 400
    q = np.array([27.5, 28.0, 27.5 * math.cos(0.7)])
    p = np.array([0.0, 0.0, 27.5 * math.sin(0.7)])
    r2 = q.astype(np.longdouble) ** 2 + p.astype(np.longdouble) ** 2
    prev, cur = np.ones_like(r2), 1 - 2 * r2
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - 2 * r2) * cur - k * prev) / (k + 1)
    ref = (2 * np.exp(-r2) * cur).astype(float)
    w = wigner_values(fock_density(n, 450), q, p)
    assert np.max(np.abs(w - ref)) < 1e-12
    assert abs(ref[0] - 0.0827625202883) < 1e-12


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


@pytest.mark.parametrize("spec", [kerr(0.02), kerr(0.2), q_oscillator(0.02)], ids=str)
def test_phase_guard_spares_ordinary_profiles(spec):
    # dim + pad = 200 at r = |alpha| = 6: phase errors stay near 5e-13.
    v = deformed_wigner_values(vacuum_density(20), spec, 6.0 * math.sqrt(2.0), 0.0,
                               "usual_parity", pad=180)
    assert math.isfinite(v.real) and abs(v) <= 2.0 + 1e-8


def test_violent_profile_names_lost_phase_precision():
    # the unitarity guard of the dressed exponential, on dim 6 + pad 10 levels
    spec = custom(table=[1.0 + 1e7 * k for k in range(16)])
    with pytest.raises(NumericToleranceError, match="phase precision"):
        deformed_wigner_values(vacuum_density(6), spec, 2.0, 1.0, "usual_parity")


def test_generator_past_the_float_range_is_refused():
    # s(n) = sqrt(n) f(n) overflows to inf: the dense eigensolver raised
    # numpy's LinAlgError, and the SVD answers nan, which the guard refuses
    spec = custom(table=[1.0] + [1e308] * 5)
    for q in (0.0, 1.0):
        with pytest.raises(NumericToleranceError, match="^deformed exponential lost phase precision: .* nan rad"):
            deformed_wigner_values(vacuum_density(4), spec, q, 0.0, "usual_parity", pad=2)


def test_deformed_parity_names_lost_phase_precision():
    # phases pi n f(n)^2 up to 6.2e12 rad, each off by ~1.4e-3 rad, were
    # exponentiated unguarded; the map at r = 1e-5 passed the exponential's
    # guard and answered
    message = ("deformed parity lost phase precision: phases pi n f(n)^2 reach 6.175e+12 rad, "
               "so they carry an absolute error of 1.371e-03")
    with pytest.raises(NumericToleranceError, match=f"^{re.escape(message)}$"):
        deformed_parity_operator(q_oscillator(1.0), 30)
    with pytest.raises(NumericToleranceError, match=f"^{re.escape(message)}$"):
        deformed_wigner_values(coherent_density(0.5, 30), q_oscillator(1.0), 1e-5, 0.0,
                               "deformed_parity")
    # the benchmark's strongest profiles at dim 30 stay near 2.6e3 rad
    for spec in (q_oscillator(0.2), kerr(0.2)):
        assert np.all(np.abs(np.abs(deformed_parity_operator(spec, 30)) - 1.0) < 1e-15)


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
    # warm cache: each map asks for R^2n and reads no layer of a higher
    # order: with those layers poisoned by nan, the maps stay bit for bit
    cached = wigner_module._rotation
    cached(2 * n)
    ax = np.linspace(-7.0, 7.0, 11)
    rho = fock_density(n, 40)
    grid = wigner_from_density(rho, ax, ax).values
    point = wigner_values(rho, 0.3, -0.2)
    group = wigner_module._GROUP
    poisoned = [stack.copy() for stack in wigner_module._STACKS]
    for order in range(2 * n + 1, wigner_module._CACHED_ORDER + 1):
        poisoned[order // group][order % group] = np.nan
    asks = []

    def read(order):
        asks.append(order)
        return cached(order)

    monkeypatch.setattr(wigner_module, "_STACKS", poisoned)
    monkeypatch.setattr(wigner_module, "_rotation", read)
    np.testing.assert_array_equal(wigner_from_density(rho, ax, ax).values, grid)
    assert asks == [2 * n]
    assert wigner_values(rho, 0.3, -0.2) == point
    assert asks == [2 * n, 2 * n]
    monkeypatch.undo()

    # cold cache: the first map takes the 2n steps up to R^2n, the next none
    steps = []
    step = wigner_module._rotation_step

    def counted(r, order, dim):
        steps.append(order)
        return step(r, order, dim)

    monkeypatch.setattr(wigner_module, "_rotation_step", counted)
    cached.cache_clear()
    wigner_from_density(fock_density(n, 40), ax, ax)
    assert steps == list(range(1, 2 * n + 1))
    steps.clear()
    wigner_values(fock_density(n, 40), 0.3, -0.2)
    assert steps == []


def _uncached_coefficients(m, top, part=lambda x: x):
    # C of _hermite_gauss_coefficients from the carried recursion, no cache,
    # one product per order; part=np.abs gives the scale of each sum,
    # 2 sqrt(pi) sum_m |R^N[j, m] rho[m, N-m]| at C[j, N-j] up to its phase
    dim = m.shape[0]
    c = np.zeros((top + 1, top + 1), dtype=complex)
    for order, r in enumerate(_rotation_matrices(top, dim)):
        j = np.arange(order + 1)
        c[j, order - j] = part(r) @ part(np.diagonal(m[:, ::-1], dim - 1 - order))
    return c * wigner_module._FOURIER_PHASES[np.arange(top + 1) % 4]


# tops 2 floor(0.9 (dim - 1)): 0, 28, 112, 126, 128, 230, 358 around _CACHED_ORDER = 126
@pytest.mark.parametrize("dim", [2, 17, 64, 71, 73, 129, 200])
def test_cached_rotations_give_the_uncached_coefficients_bit_for_bit(dim):
    rho = _random_mixed_state(dim, 1000 + dim)
    top = 2 * math.floor(0.9 * (dim - 1))
    reference = _uncached_coefficients(rho.matrix, top)
    wigner_module._rotation.cache_clear()
    cold = wigner_module._hermite_gauss_coefficients(rho.matrix)
    warm = wigner_module._hermite_gauss_coefficients(rho.matrix)
    np.testing.assert_array_equal(warm, cold)
    # Orders up to the cap are summed a group at a time, in another order
    # than the reference's product per order.  Each way rounds the N + 1
    # products of order N and their sum within gamma_(N+1) = (N + 1) u of
    # sum_m |R^N[j, m] rho[m, N-m]| per part (u = eps / 2), and the Fourier
    # phase 2 sqrt(pi) (-i)^k rounds each result once more, so a part of the
    # two differs by at most (2 (N + 1) + 2) u (1 + (N + 1) u) of that sum
    # times 2 sqrt(pi); (N + 3) eps covers it.
    orders = np.add.outer(np.arange(top + 1), np.arange(top + 1))
    bound = (orders + 3) * np.finfo(float).eps * np.abs(_uncached_coefficients(rho.matrix, top, np.abs))
    assert np.all(np.abs(cold.real - reference.real) <= bound)
    assert np.all(np.abs(cold.imag - reference.imag) <= bound)
    # past the cap the orders are stepped one at a time, as in the reference
    past = orders > wigner_module._CACHED_ORDER
    np.testing.assert_array_equal(cold[past], reference[past])


def test_rotation_cache_stops_at_its_cap_and_is_read_only():
    wigner_module._rotation.cache_clear()
    wigner_values(_random_mixed_state(200, 5), 0.1, 0.2)  # top 358
    assert wigner_module._rotation.cache_info().currsize == wigner_module._CACHED_ORDER + 1 == 127
    group = wigner_module._GROUP
    for order in range(wigner_module._CACHED_ORDER + 1):
        r = wigner_module._rotation(order)
        assert r.shape == (order + 1, order + 3)
        layer = wigner_module._STACKS[order // group][order % group]
        assert np.shares_memory(r, layer)
        np.testing.assert_array_equal(layer[:order + 1, :order + 3], r)
        assert not layer[order + 1:].any() and not layer[:, order + 3:].any()
        with pytest.raises(ValueError, match="read-only"):
            r[0, 1] = 0.0
    # the groups hold orders 0..126 and no other: 6.7 MB
    assert sum(len(stack) for stack in wigner_module._STACKS) == 127
    assert sum(stack.nbytes for stack in wigner_module._STACKS) == 6_668_168


def test_cli_import_leaves_the_rotation_cache_empty():
    src = os.path.dirname(os.path.dirname(os.path.abspath(foscillator.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import foscillator.cli, foscillator.wigner as w; "
             "print(w._rotation.cache_info().currsize, w._hermite_table.cache_info().currsize, "
             "sum(s.any() for s in w._STACKS))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "0 0 0"


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
    st.builds(lambda r, phi: coherent_density(r * np.exp(1j * phi), 40),
              st.floats(0.0, 2.5), st.floats(-math.pi, math.pi)),
    st.builds(lambda r, phi, spec: nonlinear_coherent_state(r * np.exp(1j * phi), spec, 40).density(),
              st.floats(0.0, 1.5), st.floats(-math.pi, math.pi),
              st.one_of(st.floats(0.0, 0.2).map(kerr), st.floats(0.01, 0.2).map(q_oscillator))),
)


# Axes in any order, repeats and both zeros allowed
_AXES = st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=24).map(np.array)
# States past the rotation cache's cap: tops 128 .. 142 take the stepping path
_PAST_CAP = st.builds(_random_mixed_state, st.integers(73, 80), st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40)
@given(rhos=st.lists(st.one_of(_STATES, _PAST_CAP), min_size=1, max_size=3), q_axis=_AXES,
       p_axis=st.none() | _AXES)
@example(rhos=[_random_mixed_state(40, 1), coherent_density(0.5, 40), _random_mixed_state(73, 2),
               fock_density(3, 10)],
         q_axis=np.linspace(-8.0, 8.0, 33), p_axis=None)
def test_standard_map_grid_points_and_laguerre_reference_agree(rhos, q_axis, p_axis):
    # maps in sequence on one axis: the first builds its Hermite table, the
    # next read it, at rising and falling tops; p_axis None reuses the q axis
    p_axis = q_axis.copy() if p_axis is None else p_axis
    qq, pp = np.meshgrid(q_axis, p_axis, indexing="ij")
    wigner_module._hermite_table.cache_clear()
    for rho in rhos:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "grid extent", RuntimeWarning)
            grid = wigner_from_density(rho, q_axis, p_axis).values
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


@settings(max_examples=30)
@given(dim=st.integers(8, 24), seed=st.integers(0, 2 ** 32 - 1), t=st.floats(-10.0, 10.0))
def test_moyal_flow_of_the_harmonic_oscillator_is_the_liouville_flow(dim, seed, t):
    # for f = 1 the Moyal bracket is the Poisson bracket: W(t) at (q, p) is
    # W(0) at the point the classical flow carries back from (q, p)
    rho = _random_mixed_state(dim, seed)
    _, qq, pp = _grid(4.0, 9)
    moved = wigner_values(evolve_density(rho, identity(), t), qq, pp)
    back = classical_invariants(identity(), PhasePoint(qq, pp), t)
    carried = wigner_values(rho, back.q, back.p)
    assert np.max(np.abs(moved - carried)) < 1e-12


_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])


def _density_from_gauss_hermite_samples(w, y, dim):
    """(C, rho) from W[a, b] = W(y_a / sqrt2, y_b / sqrt2) on the nodes y of
    an n-point Gauss-Hermite rule.

    W = sum_jk C[j, k] phi_j(sqrt2 q) phi_k(sqrt2 p), and the rule integrates
    phi_j phi_k e^(y^2) e^(-y^2) exactly for j + k <= 2n - 1, so projecting
    onto phi_j(y_a) phi_k(y_b) returns C for j, k < n.  The antidiagonal
    C[j, N - j] of order N is 2 sqrt(pi) (-i)^(N-j) R^N rho[m, N - m], and
    R^N is orthogonal, so its transpose returns rho's antidiagonal.
    """
    weights = np.polynomial.hermite.hermgauss(y.size)[1] * np.exp(y * y)
    phi = hermite_functions(y.size - 1, y) * weights
    c = phi @ w @ phi.T
    rho = np.zeros((dim, dim), dtype=complex)
    for order in range(2 * dim - 1):
        j = np.arange(order + 1)
        by_order = c[j, order - j] / (2.0 * math.sqrt(math.pi) * _MINUS_I_POWERS[(order - j) % 4])
        m = np.arange(max(0, order - dim + 1), min(order, dim - 1) + 1)
        rho[m, order - m] = (wigner_module._rotation(order)[:, 1:-1].T @ by_order)[m]
    return c, rho


@settings(max_examples=30)
@given(dim=st.integers(2, 16), seed=st.integers(0, 2 ** 32 - 1))
def test_gauss_hermite_samples_of_w_return_the_state(dim, seed):
    # 2 dim nodes >= top order + 2; the grid reaches only to the largest
    # node / sqrt2, inside the support estimate, so the coverage warning
    # fires although the projection is exact
    rho = _random_mixed_state(dim, seed)
    y = np.polynomial.hermite.hermgauss(2 * dim)[0]
    with pytest.warns(RuntimeWarning, match="grid extent"):
        w = wigner_from_density(rho, y / math.sqrt(2.0), y / math.sqrt(2.0)).values
    c, back = _density_from_gauss_hermite_samples(w, y, dim)
    exact = wigner_module._hermite_gauss_coefficients(rho.matrix)
    top = exact.shape[0]
    np.testing.assert_allclose(c[:top, :top], exact, rtol=0, atol=1e-13)
    np.testing.assert_allclose(c[top:], 0.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(c[:, top:], 0.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(back, rho.matrix, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# The deformed map on the half-size decomposition of the ladder generator


def _custom_profile(c):
    # up to dim 20 + pad 15 levels
    return custom(table=[1.0 + c * math.sqrt(k) for k in range(35)])


_PROFILES = st.one_of(
    st.floats(0.01, 0.2).map(kerr),
    st.floats(0.01, 0.15).map(q_oscillator),
    st.floats(0.0, 0.1).map(_custom_profile),
)


@settings(max_examples=40)
@given(dim=st.integers(2, 20), seed=st.integers(0, 2 ** 32 - 1), pad=st.integers(0, 15),
       spec=_PROFILES, variant=st.sampled_from(["usual_parity", "deformed_parity"]),
       r=st.floats(0.05, 3.0), phi=st.floats(-math.pi, math.pi))
def test_deformed_map_matches_expm_on_random_mixed_states(dim, seed, pad, spec, variant, r, phi):
    # dim + pad of either parity: an odd one gives S an exact zero eigenvalue.
    # The points: alpha = 0, both signs of both axes (phi = pi and -pi on the
    # negative q axis), and one point off the axes
    rho = _random_mixed_state(dim, seed)
    q = np.array([0.0, -r, -r, r, 0.0, 0.0, r * math.cos(phi)])
    p = np.array([0.0, 0.0, -0.0, 0.0, r, -r, r * math.sin(phi)])
    w = deformed_wigner_values(rho, spec, q, p, variant, pad)
    ref = np.array([_expm_deformed_reference(rho, spec, qi, pi, variant, pad) for qi, pi in zip(q, p)])
    assert np.max(np.abs(w - ref)) < 1e-12


def _custom_levels(c):
    # up to 150 levels
    return custom(table=[1.0 + c * math.sqrt(k) for k in range(150)])


@settings(max_examples=60)
@given(size=st.integers(2, 150), spec=st.one_of(st.floats(0.0, 0.3).map(kerr),
                                               st.floats(0.001, 0.1).map(q_oscillator),
                                               st.floats(0.0, 0.5).map(_custom_levels)))
@example(size=2, spec=kerr(0.1))
@example(size=3, spec=q_oscillator(0.05))
@example(size=3, spec=_custom_levels(0.5))
def test_half_size_svd_gives_every_eigenpair_of_the_ladder_generator(size, spec):
    # S = tridiag(s, 0, s) with s(n) = sqrt(n) f(n), and require_positive makes
    # every s(n) > 0: S is an unreduced tridiagonal matrix, so its spectrum is
    # simple, and P S P = -S maps the eigenvector of each sigma > 0 to the one
    # of -sigma.  So the pairing is well defined: one partner per sigma, and
    # one zero mode when N is odd.  The bounds are those of a backward-stable
    # SVD, 4 N eps ||S|| (0.95 N eps ||S|| on the residual was the worst of 400
    # random draws).
    fvals = eval_f(spec, np.arange(size))
    sigma, x = wigner_module._ladder_modes(fvals)
    s = np.sqrt(np.arange(1.0, size)) * fvals[1:]
    big = np.diag(s, 1) + np.diag(s, -1)
    half, eps, norm = size // 2, np.finfo(float).eps, sigma[0]
    plus = x[:, :half] / math.sqrt(2.0)
    minus = ((-1.0) ** np.arange(size))[:, None] * plus
    vecs = np.hstack([plus, minus, x[:, half:]])
    values = np.concatenate([sigma[:half], -sigma[:half], sigma[half:]])
    assert np.max(np.abs(big @ vecs - vecs * values)) <= 4 * size * eps * norm
    assert np.max(np.abs(vecs.T @ vecs - np.eye(size))) <= 4 * size * eps
    assert np.max(np.abs(np.sort(values) - np.linalg.eigvalsh(big))) <= 4 * size * eps * norm
    # each -sigma vector, P times its +sigma partner, is the reference's
    # eigenvector of -sigma up to sign, as the +sigma one is of +sigma; their
    # errors scale as eps ||S|| / gap
    _, reference = np.linalg.eigh(big)
    for ours, theirs in [(minus, reference[:, :half]), (plus, reference[:, ::-1][:, :half])]:
        assert np.max(np.abs(np.abs(np.einsum("nk,nk->k", ours, theirs)) - 1.0)) < 1e-12
    # odd N: exactly one zero mode, supported on the even levels
    assert np.sum(np.abs(values) <= 4 * size * eps * norm) == size % 2 == sigma.size - half
    if size % 2:
        assert sigma[-1] == 0.0 and not np.any(x[1::2, -1])
        assert abs(np.linalg.norm(x[0::2, -1]) - 1.0) <= 4 * size * eps


@settings(max_examples=60)
@given(dim=st.integers(2, 20), seed=st.integers(0, 2 ** 32 - 1), pad=st.integers(0, 15),
       spec=_PROFILES, r=st.floats(0.0, 3.0), phi=st.floats(-math.pi, math.pi))
def test_usual_parity_values_are_real_for_random_mixed_states(dim, seed, pad, spec, r, phi):
    # the ordinary parity anticommutes with the deformed ladder, so W is real
    # for a hermitian rho; the sum does not assume it, and its imaginary part
    # is rounding alone (8.3e-17 was the worst of 1000 draws)
    rho = _random_mixed_state(dim, seed)
    alpha = r * np.exp(1j * np.array([phi, 0.0, 0.5 * math.pi, phi + 1.0]))
    w = deformed_wigner_values(rho, spec, math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag,
                               "usual_parity", pad)
    assert np.max(np.abs(w.imag)) <= 1e-13


def test_deformed_grid_larger_than_one_block_matches_point_calls(monkeypatch):
    # 91 x 91 = 8281 points: the second block repeats radii of the first, and
    # each block evaluates the radial phases once per radius of its own
    ax = np.linspace(-3.0, 3.0, 91)
    assert ax.size ** 2 > wigner_module._BLOCK
    columns = []
    cos_sin = wigner_module._cos_sin

    def counted(theta):
        columns.append(theta.shape[-1])
        return cos_sin(theta)

    monkeypatch.setattr(wigner_module, "_cos_sin", counted)
    rho = nonlinear_coherent_state(0.8 + 0.4j, kerr(0.1), 16).density()
    qq, pp = np.meshgrid(ax, ax, indexing="ij")
    radii = np.abs((qq + 1j * pp).ravel() / math.sqrt(2.0))
    block = wigner_module._BLOCK
    for variant in ("usual_parity", "deformed_parity"):
        columns.clear()
        grid = deformed_wigner(rho, kerr(0.1), ax, ax, variant).values
        assert columns == [np.unique(radii[:block]).size, np.unique(radii[block:]).size]
        for i, j in [(0, 0), (45, 45), (45, 0), (0, 45), (90, 1), (90, 90), (17, 64),
                     divmod(block - 1, 91), divmod(block, 91), divmod(block + 1, 91)]:
            assert abs(grid[i, j] - deformed_wigner_values(rho, kerr(0.1), ax[i], ax[j], variant)) < 1e-13


def test_standard_grid_builds_one_hermite_table_for_equal_axes(monkeypatch):
    # equal axes build one table, an axis already seen builds none, and a
    # new p axis builds one; an axis past the table cache's point cap is
    # built per map, once for equal axes
    calls = []
    table = wigner_module.hermite_functions

    def counted(n_max, x):
        calls.append(np.size(x))
        return table(n_max, x)

    monkeypatch.setattr(wigner_module, "hermite_functions", counted)
    wigner_module._hermite_table.cache_clear()
    rho = coherent_density(0.7 - 0.2j, 20)
    ax = np.linspace(-7.0, 7.0, 41)
    wigner_from_density(rho, ax, ax.copy())
    assert calls == [41]
    calls.clear()
    wigner_from_density(rho, ax.copy(), ax)
    wigner_from_density(fock_density(3, 20), ax, ax)
    assert calls == []
    wigner_from_density(rho, ax, np.linspace(-7.0, 7.0, 43))
    assert calls == [43]
    calls.clear()
    wide = np.linspace(-7.0, 7.0, wigner_module._AXIS_POINTS + 1)
    wigner_from_density(rho, wide, wide.copy())
    wigner_from_density(rho, wide, wide)
    assert calls == [wide.size, wide.size]


# sqrt2 x passes 37.6, where the far-field columns of hermite take over,
# from |x| = 26.6 on
_FAR_AXIS = np.concatenate((np.linspace(-40.0, 40.0, 33), [-0.0, 26.5, 26.7, 30.0, 1e155, -1e300]))


@pytest.mark.parametrize("top", [0, 1, 2, 37, 125, 126])
def test_cached_hermite_table_is_the_table_built_to_its_top(top):
    wigner_module._hermite_table.cache_clear()
    for _ in range(2):  # built, then read
        rows = wigner_module._axis_table(_FAR_AXIS, top)
        np.testing.assert_array_equal(rows, hermite_functions(top, math.sqrt(2.0) * _FAR_AXIS))
        assert not rows.flags.writeable
    info = wigner_module._hermite_table.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert wigner_module._hermite_table(_FAR_AXIS.tobytes()).shape == (127, _FAR_AXIS.size)


_NON_FINITE = [math.nan, math.inf, -math.inf]
_FINITE_AXIS = np.linspace(-3.0, 3.0, 5)


def _with(value):
    axis = _FINITE_AXIS.copy()
    axis[2] = value
    return axis


@pytest.mark.parametrize("value", _NON_FINITE, ids=str)
@pytest.mark.parametrize("coordinate", ["q", "p"])
@pytest.mark.parametrize("entry", ["wigner_values", "wigner_from_density",
                                   "deformed_wigner_values", "deformed_wigner"])
def test_non_finite_coordinates_are_refused(entry, coordinate, value):
    rho = coherent_density(0.5, 12)
    if entry in ("wigner_values", "deformed_wigner_values"):
        q, p = (value, 0.0) if coordinate == "q" else (0.0, value)
    else:
        q, p = (_with(value), _FINITE_AXIS) if coordinate == "q" else (_FINITE_AXIS, _with(value))
    call = {
        "wigner_values": lambda: wigner_values(rho, q, p),
        "wigner_from_density": lambda: wigner_from_density(rho, q, p),
        "deformed_wigner_values": lambda: deformed_wigner_values(rho, kerr(0.1), q, p),
        "deformed_wigner": lambda: deformed_wigner(rho, kerr(0.1), q, p),
    }[entry]
    # a grid names its axis, as for a shape that is not 1-D
    name = f"coordinate {coordinate}" if entry.endswith("_values") else f"the {coordinate} axis"
    with pytest.raises(DomainError, match=f"^{name} must be finite, got {value!r}$"):
        call()


@pytest.mark.parametrize("entry", ["wigner_values", "deformed_wigner_values"])
def test_points_that_do_not_broadcast_are_refused_by_name(entry):
    # numpy's untyped "shape mismatch" ValueError came first
    rho, q, p = vacuum_density(4), np.zeros((2, 3)), np.zeros(4)
    message = r"^q and p do not broadcast: shapes \(2, 3\) and \(4,\)$"
    with pytest.raises(DomainError, match=message):
        if entry == "wigner_values":
            wigner_values(rho, q, p)
        else:
            deformed_wigner_values(rho, kerr(0.1), q, p)


@pytest.mark.parametrize("coordinate", ["q", "p"])
@pytest.mark.parametrize("entry", ["wigner_from_density", "deformed_wigner"])
def test_grid_axes_must_be_1d(entry, coordinate):
    # a (2, 3) axis gave a 6 x 6 grid holding it, whose normalization() then
    # raised numpy's broadcast ValueError; tomograms refused it already
    axis = np.linspace(-2.0, 2.0, 6).reshape(2, 3)
    q, p = (axis, _FINITE_AXIS) if coordinate == "q" else (_FINITE_AXIS, axis)
    rho = vacuum_density(8)
    message = rf"^the {coordinate} axis must be 1-D, got shape \(2, 3\)$"
    with pytest.raises(DomainError, match=message):
        if entry == "wigner_from_density":
            wigner_from_density(rho, q, p)
        else:
            deformed_wigner(rho, kerr(0.1), q, p)


@pytest.mark.parametrize("q, p", [([], []), ([], _FINITE_AXIS), (_FINITE_AXIS, [])],
                         ids=["both", "q", "p"])
@pytest.mark.parametrize("entry", ["wigner_values", "wigner_from_density",
                                   "deformed_wigner_values", "deformed_wigner"])
def test_empty_axes_give_empty_results_without_warnings(entry, q, p):
    rho = coherent_density(0.5, 12)
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if entry == "wigner_values":
            values, shape = wigner_values(rho, q, p[:, None]), (p.size, q.size)
        elif entry == "deformed_wigner_values":
            values, shape = deformed_wigner_values(rho, kerr(0.1), q, p[:, None]), (p.size, q.size)
        else:
            grid = (wigner_from_density(rho, q, p) if entry == "wigner_from_density"
                    else deformed_wigner(rho, kerr(0.1), q, p))
            values, shape = grid.values, (q.size, p.size)
            # each reduction returns its identity: an integral 0, a max of
            # |Im W| 0, a min of Re W +inf
            assert (grid.normalization(), grid.max_imag(), grid.min_real()) == (0.0, 0.0, math.inf)
    assert values.shape == shape


@pytest.mark.parametrize("entry", ["deformed_wigner_values", "deformed_wigner"])
@pytest.mark.parametrize("kwargs, message", [
    ({"variant": "standard"}, "unknown wigner variant 'standard'"),
    ({"pad": -1}, "pad must be >= 0"),
], ids=["variant", "pad"])
def test_deformed_maps_refuse_a_bad_variant_or_pad(entry, kwargs, message):
    rho = coherent_density(0.5, 12)
    call = deformed_wigner_values if entry == "deformed_wigner_values" else deformed_wigner
    with pytest.raises(DomainError, match=message):
        call(rho, kerr(0.1), _FINITE_AXIS, _FINITE_AXIS, **kwargs)
