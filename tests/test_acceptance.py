"""End-to-end acceptance sweep.

Eleven numbered criteria, each printing one [PASS]/[FAIL] line with its
measured figure of merit; run `pytest -s tests/test_acceptance.py` to see
the lines as they go by.
"""

import math
import time

import numpy as np

from foscillator import (
    PhasePoint,
    PhaseSpaceDistribution,
    chi_expectation,
    classical_invariants,
    classical_tomogram_evolved,
    coherent_density,
    deformed_lowering,
    deformed_partition,
    deformed_wigner_values,
    evolve_amplitude,
    evolve_density,
    exact_deformed_report,
    expectation,
    fock_density,
    fock_tomogram_closed,
    frequency,
    gaussian_distribution,
    hamiltonian_diagonal,
    heisenberg_invariant,
    identity,
    kerr,
    lowering_operator,
    nonlinear_coherent_state,
    occupation_second_moment,
    partition_closed,
    propagate_distribution,
    q_oscillator,
    quantum_tomogram,
    radon_classical,
    schmidt_spectrum,
    thermal_series,
    two_mode_coherent_state,
    vacuum_density,
    wigner_values,
)


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {number:02d} {label}: {detail}")
    assert ok, f"criterion {number:02d} {label}: {detail}"


def test_criterion_01_harmonic_reduction():
    start = time.perf_counter()
    worst = 0.0

    # full period of the amplitude flow
    for a0 in (1.0 + 0.0j, 0.5 + 0.3j):
        worst = max(worst, abs(evolve_amplitude(identity(), a0, 2.0 * math.pi) - a0))
    period_ok = worst < 1e-12

    # quarter-period invariants
    pt = classical_invariants(identity(), PhasePoint(q=0.3, p=0.9), math.pi / 2.0)
    invariant_ok = abs(pt.q + 0.9) < 1e-15 and abs(pt.p - 0.3) < 1e-15

    # operators
    op_dev = np.max(np.abs(deformed_lowering(identity(), 12) - lowering_operator(12)))
    ham_dev = np.max(np.abs(hamiltonian_diagonal(identity(), 12, "normal") - np.arange(12.0)))

    # Wigner, both deformed variants
    rho = coherent_density(0.8, 12)
    ax = np.linspace(-1.5, 1.5, 7)
    qq, pp = np.meshgrid(ax, ax, indexing="ij")
    w_std = wigner_values(rho, qq, pp)
    wig_dev = max(
        np.max(np.abs(deformed_wigner_values(rho, identity(), qq, pp, v) - w_std))
        for v in ("usual_parity", "deformed_parity")
    )

    # tomogram of the transported density against the rotated closed form
    t, sigma = math.pi / 3.0, 0.5
    xs = np.linspace(-2.0, 4.0, 25)
    slice_vals = classical_tomogram_evolved(
        gaussian_distribution(2.0, 0.0, sigma), identity(), t, 1.0, 0.0, xs
    ).values
    center = 2.0 * math.cos(t)
    closed = np.exp(-0.5 * ((xs - center) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    tomo_dev = np.max(np.abs(slice_vals - closed))

    elapsed = time.perf_counter() - start
    ok = (
        period_ok and invariant_ok
        and op_dev < 1e-8 and ham_dev < 1e-8
        and wig_dev < 1e-8 and tomo_dev < 1e-8
        and elapsed < 1.0
    )
    _report(1, "harmonic reduction", ok,
            f"period {worst:.2e}, wigner {wig_dev:.2e}, tomogram {tomo_dev:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_02_frequency_expansion():
    lam = 0.1
    e = np.linspace(0.0, 2.0, 201)
    dev = np.max(np.abs(frequency(q_oscillator(lam), e) - (1.0 + lam * lam * e * e / 4.0)))
    _report(2, "frequency expansion", dev < 1e-4, f"max deviation {dev:.2e}")


def test_criterion_03_kerr_number_identity():
    worst = 0.0
    n = np.arange(60, dtype=float)
    for chi in (0.1, 0.5):
        a_f = deformed_lowering(kerr(chi), 60)
        diag = np.diag(a_f.conj().T @ a_f).real
        worst = max(worst, np.max(np.abs(diag - (n + chi * n * (n - 1.0)))))
    _report(3, "Kerr number identity", worst < 1e-12, f"max deviation {worst:.2e}")


def test_criterion_04_quantum_invariant():
    start = time.perf_counter()
    spec, dim = kerr(0.1), 60
    rho0 = coherent_density(1.0, dim)
    tail = float(np.sum(np.diag(rho0.matrix).real[54:]))
    ref = expectation(rho0, deformed_lowering(spec, dim))
    drift = 0.0
    for t in np.linspace(0.0, 10.0, 21):
        val = expectation(
            evolve_density(rho0, spec, float(t)),
            heisenberg_invariant(spec, dim, float(t)),
        )
        drift = max(drift, abs(val - ref))
    elapsed = time.perf_counter() - start
    ok = drift < 1e-10 and tail < 1e-12 and elapsed < 5.0
    _report(4, "quantum invariant", ok, f"max drift {drift:.2e}, {elapsed:.2f}s")


def test_criterion_05_tomogram_axioms():
    cases = []
    x = np.linspace(-3.0, 3.0, 41)

    quantum_states = [
        vacuum_density(16),
        fock_density(1, 16),
        fock_density(3, 16),
        coherent_density(1.0, 30),
        nonlinear_coherent_state(1.0, kerr(0.1), 30).density(),
    ]
    rays = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)] + [(1.5 * math.cos(0.9), math.sin(0.9) / 1.5)]
    for rho in quantum_states:
        for mu, nu in rays[:3]:
            cases.append(("q", rho, mu, nu))
    cases.append(("q", quantum_states[3], *rays[3]))

    dists = [
        gaussian_distribution(0.0, 0.0, 1.0),
        gaussian_distribution(1.0, -0.5, 0.7),
        propagate_distribution(gaussian_distribution(1.5, 0.0, 0.6), q_oscillator(0.2), 2.0),
    ]
    for dist in dists:
        for mu, nu in rays[:2]:
            cases.append(("c", dist, mu, nu))
    assert len(cases) == 22  # a 20+ case sweep

    worst_neg, worst_norm, worst_hom = 0.0, 0.0, 0.0
    for kind, obj, mu, nu in cases:
        make = quantum_tomogram if kind == "q" else radon_classical
        sl = make(obj, mu, nu, x)
        scaled = make(obj, 2.0 * mu, 2.0 * nu, 2.0 * x)
        worst_neg = max(worst_neg, -sl.min_value())
        worst_norm = max(worst_norm, abs(sl.norm - 1.0))
        worst_hom = max(worst_hom, np.max(np.abs(scaled.values - sl.values / 2.0)))
    ok = worst_neg <= 1e-9 and worst_norm <= 1e-6 and worst_hom <= 1e-8
    _report(5, "tomogram axioms", ok,
            f"{len(cases)} cases; negativity {worst_neg:.2e}, "
            f"norm residual {worst_norm:.2e}, homogeneity {worst_hom:.2e}")


def test_criterion_06_tomogram_oracles():
    start = time.perf_counter()
    x = np.linspace(-4.0, 4.0, 33)
    closed_dev = 0.0
    for n in range(6):
        rho = fock_density(n, 12)
        vals = quantum_tomogram(rho, 0.8, -0.6, x).values
        closed_dev = max(
            closed_dev, np.max(np.abs(vals - fock_tomogram_closed(n, 0.8, -0.6, x)))
        )

    rho = coherent_density(1.0, 20)

    def w_density(q, p):
        return wigner_values(rho, q, p).real / (2.0 * math.pi)

    dist = PhaseSpaceDistribution(density=w_density, support_radius=8.0)
    xs = np.linspace(-3.0, 4.0, 15)
    radon_dev = 0.0
    for mu, nu in [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (1.2, -0.5), (0.9, 0.9)]:
        via_wigner = radon_classical(dist, mu, nu, xs).values
        via_basis = quantum_tomogram(rho, mu, nu, xs).values
        radon_dev = max(radon_dev, np.max(np.abs(via_wigner - via_basis)))
    elapsed = time.perf_counter() - start
    ok = closed_dev < 1e-8 and radon_dev < 1e-5 and elapsed < 30.0
    _report(6, "tomogram oracles", ok,
            f"closed-form {closed_dev:.2e}, Radon-of-Wigner {radon_dev:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_07_wigner_checks():
    v0 = wigner_values(vacuum_density(20), 0.0, 0.0)
    v1 = wigner_values(fock_density(1, 20), 0.0, 0.0)
    ax = np.linspace(-7.0, 7.0, 141)
    from foscillator import wigner_from_density

    norm = wigner_from_density(coherent_density(1.0, 25), ax, ax).normalization()
    rho = coherent_density(1.0, 14)
    gq = np.linspace(-2.0, 2.0, 5)
    qq, pp = np.meshgrid(gq, gq, indexing="ij")
    w_f = deformed_wigner_values(rho, kerr(0.1), qq, pp, "usual_parity", pad=12)
    max_imag = float(np.max(np.abs(w_f.imag)))
    ok = (
        abs(v0 - 2.0) < 1e-8
        and abs(v1 + 2.0) < 1e-8
        and abs(norm - 1.0) < 1e-4
        and max_imag < 1e-9
    )
    _report(7, "Wigner checks", ok,
            f"W0(0,0)={v0.real:+.6f}, W1(0,0)={v1.real:+.6f}, "
            f"norm residual {abs(norm - 1.0):.2e}, max imag {max_imag:.2e}")


def test_criterion_08_coherent_eigenproperty():
    from foscillator import eigen_residual

    alpha = complex(math.cos(0.4), math.sin(0.4))  # |alpha| = 1
    worst = max(
        eigen_residual(nonlinear_coherent_state(alpha, spec, 40))
        for spec in (kerr(0.1), q_oscillator(0.1))
    )
    st = nonlinear_coherent_state(1.0, identity(), 40)
    n = np.arange(40, dtype=float)
    from scipy.special import gammaln

    poisson = np.exp(-0.5 - 0.5 * gammaln(n + 1.0))
    poisson_dev = np.max(np.abs(st.amplitudes - poisson))
    ok = worst < 1e-8 and poisson_dev < 1e-12
    _report(8, "coherent eigenproperty", ok,
            f"residual {worst:.2e}, Poisson deviation {poisson_dev:.2e}")


def test_criterion_09_entanglement():
    sep = schmidt_spectrum(two_mode_coherent_state(1.0, 1.0, identity(), (40, 40)))
    kerr_sp = schmidt_spectrum(two_mode_coherent_state(1.0, 1.0, kerr(0.1), (40, 40)))
    entropies = [
        schmidt_spectrum(two_mode_coherent_state(1.0, 1.0, kerr(chi), (40, 40))).entropy
        for chi in (0.1, 0.05, 0.01)
    ]
    ok = (
        sep.sigma2 < 1e-10
        and kerr_sp.sigma2 > 1e-3
        and entropies[0] > entropies[1] > entropies[2]
    )
    _report(9, "nonlinearity creates entanglement", ok,
            f"identity sigma2 {sep.sigma2:.2e}, Kerr sigma2 {kerr_sp.sigma2:.2e}, "
            f"entropies {entropies[0]:.4f} > {entropies[1]:.4f} > {entropies[2]:.4f}")


def test_criterion_10_thermodynamics():
    closed_dev = max(
        abs(thermal_series(b) - partition_closed(b)) / partition_closed(b)
        for b in np.logspace(math.log10(0.05), math.log10(50.0), 13)
    )
    moment_dev = max(
        abs(chi_expectation(b) - occupation_second_moment(b)) / occupation_second_moment(b)
        for b in (0.25, 0.5, 1.0, 2.0, 5.0)
    )
    beta, g = 1.0, 0.01 / 6.0
    rep = deformed_partition(beta, g)
    composed = -beta * g * occupation_second_moment(beta) * partition_closed(beta)
    comp_dev = abs(rep.correction - composed)

    gs = np.logspace(-4.0, -2.0, 9)
    errs = [
        abs(deformed_partition(beta, float(g)).z - exact_deformed_report(beta, float(g)).z)
        for g in gs
    ]
    slope = float(np.polyfit(np.log(gs), np.log(errs), 1)[0])
    ok = (
        closed_dev < 1e-10 and moment_dev < 1e-10
        and comp_dev < 1e-12 and abs(slope - 2.0) <= 0.2
    )
    _report(10, "thermodynamics", ok,
            f"closed-vs-series {closed_dev:.2e}, moment {moment_dev:.2e}, "
            f"composition {comp_dev:.2e}, slope {slope:.3f}")


def test_criterion_11_liouville_residual():
    spec = q_oscillator(0.2)
    dist = gaussian_distribution(1.0, 0.0, 0.8)
    h = 1e-4
    qs = np.linspace(-2.5, 2.5, 21)
    qq, pp = np.meshgrid(qs, qs, indexing="ij")
    omega = frequency(spec, 0.5 * (qq * qq + pp * pp))
    worst = 0.0
    for t in (1.0, 3.0):
        def at(tt, dq=0.0, dp=0.0):
            return propagate_distribution(dist, spec, tt)(qq + dq, pp + dp)

        d_t = (at(t + h) - at(t - h)) / (2.0 * h)
        d_q = (at(t, dq=h) - at(t, dq=-h)) / (2.0 * h)
        d_p = (at(t, dp=h) - at(t, dp=-h)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(d_t + omega * (pp * d_q - qq * d_p)))))
    _report(11, "Liouville residual", worst < 1e-4, f"sup residual {worst:.2e}")
