"""Thermal state of the oscillator and first-order deformed corrections.

The undeformed ladder has closed forms for Z and every moment the reports
need, so no report sums a series.  Each closed form raises DomainError naming
beta where it leaves the float range: Z underflows past beta = 1416.79, the
k-th moment ~ k!/beta^k overflows as beta -> 0.

Deformed spectra E_n = n + 1/2 + g n^2 are treated to first order in g:
Z_f = Z0 (1 - beta g <n^2>), with the energy picking up both the direct
shift g <n^2> and the reweighting term g beta (E0 <n^2> - <H n^2>).  The
exact values come from one direct Gibbs sum over the same spectrum (g >= 0),
deliberately independent of the closed forms and the perturbative path so it
can act as their oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SeriesDivergenceError, _real, _sign

_BLOCK = 4096
_MAX_TERMS = 10_000_000
# x = beta (n + g n^2) at the level n where the Gibbs sum stops: past it the
# tail of sum n^2 w holds about x^2 e^-x / 2 of that sum, which no longer moves
# a double once x - 2 ln x = 52 ln 2.
_TAIL_X = 43.5934680360042
# Largest beta whose Z = 1/(2 sinh(beta/2)) is a normal double; past it Z
# underflows and sinh overflows, so the closed forms are refused there.
_BETA_MAX = 2.0 * math.asinh(0.5 / sys.float_info.min)
# Smallest beta whose k-th moment ~ k!/beta^k (k = 1: Z, E, <n>) stays below
# half the float maximum, so subnormal rounding of beta cannot tip it over.
_BETA_MIN = {k: (2.0 * math.factorial(k) / sys.float_info.max) ** (1.0 / k) for k in (1, 2, 3)}


@dataclass(frozen=True)
class ThermoReport:
    beta: float
    z: float
    energy: float
    entropy: float
    free_energy: float


@dataclass(frozen=True)
class DeformedThermoReport:
    beta: float
    g: float
    z0: float
    correction: float
    z: float
    chi_mean: float
    energy: float
    entropy: float
    free_energy: float


def _check_beta(beta: float, what: str = "", beta_min: float = 0.0, beta_max: float = math.inf):
    """``beta`` as a float; DomainError naming it at or below 0, or where
    ``what`` leaves the float range, outside [beta_min, beta_max]."""
    beta = _sign(_real(beta, "beta"), "beta")
    if not beta_min <= beta <= beta_max:
        bound = f">= {beta_min:.6g}" if beta < beta_min else f"<= {beta_max:.6g}"
        raise DomainError(f"at beta = {beta!r}, {what} leaves the float range: beta must be {bound}")
    return beta


def _finite(report):
    """``report``; DomainError naming beta and its first non-finite value."""
    for name, value in vars(report).items():
        if not math.isfinite(value):
            raise DomainError(f"at beta = {report.beta!r}, {name} = {value!r} leaves the float range")
    return report


def partition_closed(beta: float) -> float:
    """Z = 1 / (2 sinh(beta/2)); it overflows below _BETA_MIN[1], underflows past _BETA_MAX."""
    beta = _check_beta(beta, "Z = 1/(2 sinh(beta/2))", _BETA_MIN[1], _BETA_MAX)
    return 1.0 / (2.0 * math.sinh(0.5 * beta))


def mean_energy(beta: float) -> float:
    """E = (1/2) coth(beta/2)."""
    beta = _check_beta(beta, "E = (1/2) coth(beta/2)", _BETA_MIN[1])
    return 0.5 / math.tanh(0.5 * beta)


def occupation(beta: float) -> float:
    """<n> = 1 / (e^beta - 1), as x / (1 - x) with x = e^(-beta)."""
    beta = _check_beta(beta, "<n> = 1/(e^beta - 1)", _BETA_MIN[1])
    return math.exp(-beta) / -math.expm1(-beta)


def occupation_second_moment(beta: float) -> float:
    """<n^2> = x (1 + x) / (1 - x)^2 with x = e^(-beta), 1 - x = -expm1(-beta)."""
    beta = _check_beta(beta, "<n^2> = x (1 + x)/(1 - x)^2", _BETA_MIN[2])
    x = math.exp(-beta)
    return x * (1.0 + x) / math.expm1(-beta) ** 2


def _occupation_third_moment(beta: float) -> float:
    """<n^3> = x (1 + 4x + x^2) / (1 - x)^3 with x = e^(-beta)."""
    beta = _check_beta(beta, "<n^3> = x (1 + 4x + x^2)/(1 - x)^3", _BETA_MIN[3])
    x = math.exp(-beta)
    return x * (1.0 + 4.0 * x + x * x) / (-math.expm1(-beta)) ** 3


def _entropy_free_energy(beta: float, energy: float, log_z: float):
    """S = beta E + log Z and F = -log Z / beta."""
    return beta * energy + log_z, -log_z / beta


def _level_terms(beta: float, g: float, levels: np.ndarray) -> np.ndarray:
    """Rows n^k e^(-beta (n + g n^2)), k = 0, 1, 2, over ``levels``."""
    w = np.exp(-beta * levels * (1.0 + g * levels))
    return np.stack([w, levels * w, levels * (levels * w)])


def _tail_negligible(sums: np.ndarray, terms: np.ndarray) -> bool:
    """Whether the tail past the last column of ``terms`` leaves every row sum unchanged.

    For g >= 0 each row n^k e^(-beta (n + g n^2)) is log-concave in n, so the
    ratio r = last/previous of consecutive terms only falls; once r < 1 the
    rest of the row sums to at most last r/(1 - r) = last^2/(previous - last).
    """
    return all(last == 0.0 or (last < prev and total + last * (last / (prev - last)) == total)
               for total, last, prev in zip(sums, terms[:, -1], terms[:, -2]))


def _levels_needed(beta: float, g: float) -> float:
    """The level n where beta (n + g n^2) = _TAIL_X, inf past the float range:
    the positive root 2y / (1 + sqrt(1 + 4 g y)), y = _TAIL_X / beta, as
    t / (h + hypot(h, sqrt(g))) with t = sqrt(y), h = 1/(2t), so that no step
    overflows or underflows before the result does."""
    t = math.sqrt(_TAIL_X) / math.sqrt(beta)
    h = 0.5 / t
    return t / (h + math.hypot(h, math.sqrt(g)))


def _gibbs_sum(beta: float, g: float):
    """Z, log Z, <H> and <n^2> of H(n) = n + 1/2 + g n^2 (g >= 0) from one direct sum.

    The levels are summed in blocks of _BLOCK until the log-concave tail bound
    of each of sum w, sum n w and sum n^2 w (w = e^(-beta (n + g n^2))) leaves
    it unchanged.  Every caller refuses here: SeriesDivergenceError for g < 0,
    where the spectrum is unbounded below; DomainError naming beta where Z is
    not a normal double (past beta = 1416.79), or where the sum would need
    more than _MAX_TERMS levels (below beta ~ 4.4e-6).
    """
    if g < 0.0:
        raise SeriesDivergenceError(
            f"at g = {g!r}, the spectrum n + 1/2 + g n^2 is unbounded below, so Z diverges")
    n = _levels_needed(beta, g)
    sums = np.zeros(3)
    # n comes within ~6% of the level where the sum stops, so a sum that
    # cannot stop within _MAX_TERMS levels is not begun
    for start in range(0, _MAX_TERMS if n < 2 * _MAX_TERMS else 0, _BLOCK):
        terms = _level_terms(beta, g, np.arange(start, start + _BLOCK, dtype=float))
        sums += terms.sum(axis=1)
        if _tail_negligible(sums, terms):
            z0, n1, n2 = sums.tolist()
            log_z = math.log(z0) - 0.5 * beta
            z = math.exp(log_z)
            if z < sys.float_info.min:
                raise DomainError(f"at beta = {beta!r}, the exact Z = {z!r} leaves the float range")
            return z, log_z, 0.5 + (n1 + g * n2) / z0, n2 / z0
    need = f"about {n:.1g} levels" if n < math.inf else "a level count past the float range"
    raise DomainError(f"at beta = {beta!r}, the Gibbs sum over n + 1/2 + g n^2 needs {need}, "
                      f"more than the {_MAX_TERMS} it may sum")


def thermal_series(beta: float) -> float:
    """Z = sum_n exp(-beta (n + 1/2)) as a direct Gibbs sum, the closed forms'
    oracle; refused where _gibbs_sum refuses, past beta = 1416.79 and below ~4.4e-6."""
    return _gibbs_sum(_check_beta(beta), 0.0)[0]


def linear_thermo(beta: float) -> ThermoReport:
    """Closed-form partition function, energy, entropy and free energy.

    DomainError naming beta where a value leaves the float range: Z below
    beta = 1.11e-308 or past 1416.79, and F = -log Z / beta below ~3.9e-306.
    """
    beta = _check_beta(beta)
    z, e = partition_closed(beta), mean_energy(beta)
    s, f = _entropy_free_energy(beta, e, math.log(z))
    return _finite(ThermoReport(beta=beta, z=z, energy=e, entropy=s, free_energy=f))


def chi_expectation(beta: float) -> float:
    """Thermal average <n^2> in the undeformed state, as a direct Gibbs sum;
    refused where _gibbs_sum refuses, past beta = 1416.79 and below ~4.4e-6."""
    return _gibbs_sum(_check_beta(beta), 0.0)[3]


def deformed_partition(beta: float, g: float) -> DeformedThermoReport:
    """Thermodynamics of E_n = n + 1/2 + g n^2, first order in g, in closed form.

    g = 0 returns the undeformed quantities exactly (correction is an
    exact zero, not a rounded one).  DomainError naming beta where
    <n^3> ~ 6/beta^3 (below beta = 4.06e-103) or a reported value leaves
    the float range.
    """
    beta = _check_beta(beta)
    g = _real(g, "coupling g")
    n3 = _occupation_third_moment(beta)
    base = linear_thermo(beta)
    chi_mean = occupation_second_moment(beta)
    correction = -beta * g * chi_mean * base.z
    z = base.z + correction
    # d<chi>/dbeta = E0 <chi> - <H chi>, and <H chi> = <n^3> + <n^2>/2
    energy = base.energy + g * (chi_mean + beta * (base.energy * chi_mean - (n3 + 0.5 * chi_mean)))
    log_z = math.log(base.z) - beta * g * chi_mean
    entropy, free_energy = _entropy_free_energy(beta, energy, log_z)
    return _finite(DeformedThermoReport(
        beta=beta, g=g, z0=base.z, correction=correction, z=z, chi_mean=chi_mean,
        energy=energy, entropy=entropy, free_energy=free_energy))


def exact_deformed_report(beta: float, g: float) -> ThermoReport:
    """Exact Z, E, S and F of E_n = n + 1/2 + g n^2 from one direct Gibbs sum.

    The oracle for the first-order path.  Refused where the sum refuses (see
    _gibbs_sum): SeriesDivergenceError for g < 0, where the spectrum is
    unbounded below; DomainError naming beta where Z leaves the float range
    or the sum would need more than 10^7 levels.
    """
    beta = _check_beta(beta)
    z, log_z, e, _ = _gibbs_sum(beta, _real(g, "coupling g"))
    s, f = _entropy_free_energy(beta, e, log_z)
    return ThermoReport(beta=beta, z=z, energy=e, entropy=s, free_energy=f)
