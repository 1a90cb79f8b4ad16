"""Symplectic tomograms of classical densities and quantum states.

A tomogram is the distribution of X = mu q + nu p along a rotated,
rescaled quadrature.  It is non-negative, normalized in X, and homogeneous
of degree -1 under joint scaling of (X, mu, nu) -- all checked numerically
below, together with two closed forms.
"""

import numpy as np

from foscillator import (
    PhaseSpaceDistribution,
    classical_tomogram_evolved,
    coherent_density,
    fock_density,
    fock_tomogram_closed,
    gaussian_distribution,
    q_oscillator,
    quantum_tomogram,
    radon_classical,
    vacuum_density,
    wigner_values,
)

x = np.linspace(-4.0, 4.0, 17)

# --- 1. ground state: Gaussian with variance depending only on |(mu, nu)|
sl = quantum_tomogram(vacuum_density(12), 0.6, 0.8, x)
r2 = 0.6**2 + 0.8**2
closed = np.exp(-(x**2) / r2) / np.sqrt(np.pi * r2)
print("vacuum slice max deviation from closed form:", np.max(np.abs(sl.values - closed)))
print(f"norm = {sl.norm:.10f}, min = {sl.min_value():+.2e}")
print()

# --- 2. homogeneity: w(sX, s mu, s nu) = w(X, mu, nu) / |s|
sl2 = quantum_tomogram(vacuum_density(12), 1.2, 1.6, 2.0 * x)
print("homogeneity residual (s=2):", np.max(np.abs(sl2.values - sl.values / 2.0)))
print()

# --- 3. first excited state against its closed form
vals = quantum_tomogram(fock_density(1, 12), 1.0, 0.0, x).values
print("fock |1> residual vs closed form:", np.max(np.abs(vals - fock_tomogram_closed(1, 1.0, 0.0, x))))
print()

# --- 4. classical: the peak of an evolved blob rides the flow
spec = q_oscillator(0.2)
blob = gaussian_distribution(2.0, 0.0, 0.5)
xs = np.linspace(-3.0, 3.0, 301)
for t in (0.0, 0.8, 1.6):
    sl_t = classical_tomogram_evolved(blob, spec, t, 1.0, 0.0, xs)
    peak = xs[np.argmax(sl_t.values)]
    print(f"t = {t:3.1f}: tomogram peak along q at X = {peak:+.2f}")
print()

# --- 5. the Radon transform of a Wigner function matches the direct tomogram;
# a complex alpha puts the state off both axes, where the ray's sign shows
rho = coherent_density(0.6 + 0.9j, 20)
dist = PhaseSpaceDistribution(
    density=lambda q, p: wigner_values(rho, q, p).real / (2.0 * np.pi),
    support_radius=8.0,
)
xs = np.linspace(-3.0, 4.0, 15)
dev = max(
    np.max(np.abs(radon_classical(dist, mu, nu, xs).values - quantum_tomogram(rho, mu, nu, xs).values))
    for mu, nu in [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)]
)
print("Radon-of-Wigner vs direct quantum tomogram, max deviation:", f"{dev:.2e}")
assert dev < 1e-5
