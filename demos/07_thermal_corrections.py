"""Thermal state of a weakly deformed oscillator.

The undeformed partition function has the closed form 1/(2 sinh(beta/2));
a small quartic-type correction enters at first order through the thermal
expectation of the level shift.  The first-order answer tracks the exact
one to O(g^2).
"""

import numpy as np

from foscillator import (
    chi_expectation,
    deformed_partition,
    exact_deformed_report,
    linear_thermo,
    occupation,
    partition_closed,
    thermal_series,
)

# --- 1. closed form vs direct Boltzmann sums
print(" beta     Z closed          Z series          |rel diff|")
for beta in (0.1, 0.5, 1.0, 2.0, 10.0):
    zc, zs = partition_closed(beta), thermal_series(beta)
    print(f"{beta:5.1f}   {zc:16.12f}  {zs:16.12f}  {abs(zs - zc) / zc:.2e}")
print()

# --- 2. the undeformed report and its thermodynamic identity
rep = linear_thermo(1.0)
print(f"beta = 1: Z = {rep.z:.12f}, E = {rep.energy:.12f}, "
      f"S = {rep.entropy:.12f}, F = {rep.free_energy:.12f}")
print(f"identity residual F - (E - S/beta): {abs(rep.free_energy - (rep.energy - rep.entropy)):.2e}")
print(f"mean occupation <n> = {occupation(1.0):.12f}")
print()

# --- 3. the first-order correction and its building blocks
beta, g = 1.0, 0.01 / 6.0
dr = deformed_partition(beta, g)
print(f"<n^2> at beta=1          : {chi_expectation(beta):.12f}")
print(f"first-order correction   : {dr.correction:.12e}")
print(f"composition (-beta g <chi> Z0) residual: "
      f"{abs(dr.correction + beta * g * chi_expectation(beta) * partition_closed(beta)):.2e}")
print()

# --- 4. first order vs exact: the error scales like g^2
print("   g        |Z1 - Zexact|    ratio to g^2")
for g in (1e-4, 1e-3, 1e-2):
    err = abs(deformed_partition(2.0, g).z - exact_deformed_report(2.0, g).z)
    print(f" {g:7.0e}   {err:.3e}      {err / g**2:8.3f}")
