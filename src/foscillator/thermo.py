"""Thermal state of the oscillator and first-order deformed corrections.

The undeformed ladder and the built-in level weight chi(n) = n^2 have closed
forms for Z and every moment the reports need, so no report sums a series;
the blockwise series serves arbitrary level weights and is the tests' oracle.
Each closed form raises DomainError naming beta where it leaves the float
range: Z underflows past beta = 1416.79, the k-th moment ~ k!/beta^k
overflows as beta -> 0.

Deformed spectra E_n = n + 1/2 + g n^2 are treated to first order in g:
Z_f = Z0 (1 - beta g <n^2>), with the energy picking up both the direct
shift g <n^2> and the reweighting term g beta (E0 <n^2> - <H n^2>).  The
exact sums are also exposed; they are deliberately independent of the
perturbative path so they can act as its oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SeriesDivergenceError

_BLOCK = 4096
_REL_STOP = 1e-16
_MAX_TERMS = 10_000_000
_WEIGHT_USAGE = "level weight must take an array of levels and return one value or one per level"
# Largest beta whose Z = 1/(2 sinh(beta/2)) is a normal double; past it Z
# underflows and sinh overflows, so the closed forms are refused there.
_BETA_MAX = 2.0 * math.asinh(0.5 / sys.float_info.min)
# Smallest beta whose k-th moment ~ k!/beta^k (k = 1: Z, E, <n>) stays below
# half the float maximum, so subnormal rounding of beta cannot tip it over.
_BETA_MIN = {k: (2.0 * math.factorial(k) / sys.float_info.max) ** (1.0 / k) for k in (1, 2, 3)}


def square_level(n):
    """Default level weight chi(n) = n^2."""
    return np.asarray(n, dtype=float) ** 2


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


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not (beta > 0.0 and math.isfinite(beta)):
        raise DomainError("beta must be finite and > 0")
    return beta


def _check_range(beta: float, what: str, beta_min: float, beta_max: float = math.inf) -> float:
    """``beta``; DomainError naming it outside [beta_min, beta_max]."""
    beta = _check_beta(beta)
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
    beta = _check_range(beta, "Z = 1/(2 sinh(beta/2))", _BETA_MIN[1], _BETA_MAX)
    return 1.0 / (2.0 * math.sinh(0.5 * beta))


def mean_energy(beta: float) -> float:
    """E = (1/2) coth(beta/2)."""
    beta = _check_range(beta, "E = (1/2) coth(beta/2)", _BETA_MIN[1])
    return 0.5 / math.tanh(0.5 * beta)


def occupation(beta: float) -> float:
    """<n> = 1 / (e^beta - 1), as x / (1 - x) with x = e^(-beta)."""
    beta = _check_range(beta, "<n> = 1/(e^beta - 1)", _BETA_MIN[1])
    return math.exp(-beta) / -math.expm1(-beta)


def occupation_second_moment(beta: float) -> float:
    """<n^2> = x (1 + x) / (1 - x)^2 with x = e^(-beta), 1 - x = -expm1(-beta)."""
    beta = _check_range(beta, "<n^2> = x (1 + x)/(1 - x)^2", _BETA_MIN[2])
    x = math.exp(-beta)
    return x * (1.0 + x) / math.expm1(-beta) ** 2


def _occupation_third_moment(beta: float) -> float:
    """<n^3> = x (1 + 4x + x^2) / (1 - x)^3 with x = e^(-beta)."""
    beta = _check_range(beta, "<n^3> = x (1 + 4x + x^2)/(1 - x)^3", _BETA_MIN[3])
    x = math.exp(-beta)
    return x * (1.0 + 4.0 * x + x * x) / (-math.expm1(-beta)) ** 3


def _eval_weight(fn: Callable, narr: np.ndarray) -> np.ndarray:
    """``fn`` called once on the levels ``narr``, its result broadcast to their shape.

    DomainError if ``fn`` cannot take the array or its result is neither
    one value nor one per level.
    """
    try:
        out = fn(narr)
    except DomainError:
        raise
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{_WEIGHT_USAGE}; called on an array it raised {type(exc).__name__}: {exc}") from exc
    try:
        vals = np.asarray(out, dtype=float)
        return vals if vals.shape == narr.shape else np.broadcast_to(vals, narr.shape)
    except (TypeError, ValueError) as exc:
        shape = getattr(out, "shape", None)
        got = f"an array of shape {shape}" if shape is not None else repr(out)
        raise DomainError(f"{_WEIGHT_USAGE}; for {narr.size} levels it returned {got}") from exc


def _entropy_free_energy(beta: float, energy: float, log_z: float):
    """S = beta E + log Z and F = -log Z / beta."""
    return beta * energy + log_z, -log_z / beta


def thermal_series(beta: float, fn: Optional[Callable] = None) -> float:
    """sum_n fn(n) exp(-beta (n + 1/2)), blockwise with a decay guard.

    ``fn`` takes an array of levels and returns their weights, or one
    weight for all of them; it defaults to 1.  Raises if the terms stop
    decaying (the weight outgrows the Boltzmann factor) past n = 64/beta,
    the peak of n^64 e^(-beta n), before the tail criterion is met.
    """
    beta = _check_beta(beta)
    guard_from = max(4 * _BLOCK, 64.0 / beta)
    total = 0.0
    prev_block = math.inf
    grew = 0
    start = 0
    while start < _MAX_TERMS:
        narr = np.arange(start, start + _BLOCK, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.exp(-beta * (narr + 0.5))
            if fn is not None:
                terms = terms * _eval_weight(fn, narr)
        block = float(np.sum(terms))
        if not math.isfinite(block):
            raise SeriesDivergenceError("thermal series overflowed; weight grows too fast")
        total += block
        mag = float(np.max(np.abs(terms)))
        if mag == 0.0 or abs(block) < _REL_STOP * max(abs(total), 1e-300):
            return total
        if abs(block) >= prev_block and start >= guard_from:
            grew += 1
            if grew >= 3:
                raise SeriesDivergenceError(
                    "thermal series terms stopped decaying; weight grows too fast"
                )
        else:
            grew = 0
        prev_block = abs(block)
        start += _BLOCK
    raise SeriesDivergenceError("thermal series did not converge")


def linear_thermo(beta: float) -> ThermoReport:
    """Closed-form partition function, energy, entropy and free energy.

    DomainError naming beta where a value leaves the float range: Z below
    beta = 1.11e-308 or past 1416.79, and F = -log Z / beta below ~3.9e-306.
    """
    beta = _check_beta(beta)
    z, e = partition_closed(beta), mean_energy(beta)
    s, f = _entropy_free_energy(beta, e, math.log(z))
    return _finite(ThermoReport(beta=beta, z=z, energy=e, entropy=s, free_energy=f))


def chi_expectation(beta: float, chi: Optional[Callable] = None) -> float:
    """Thermal average <chi(n)> in the undeformed state, as a series."""
    if chi is None:
        chi = square_level
    return thermal_series(beta, chi) / partition_closed(beta)


def deformed_partition(beta: float, g: float) -> DeformedThermoReport:
    """Thermodynamics of E_n = n + 1/2 + g n^2, first order in g, in closed form.

    g = 0 returns the undeformed quantities exactly (correction is an
    exact zero, not a rounded one).  DomainError naming beta where
    <n^3> ~ 6/beta^3 (below beta = 4.06e-103) or a reported value leaves
    the float range.
    """
    beta = _check_beta(beta)
    g = float(g)
    if not math.isfinite(g):
        raise DomainError("coupling g must be finite")
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
    """Exact sums over E_n = n + 1/2 + g n^2; oracle for the first-order path."""
    beta = _check_beta(beta)
    g = float(g)

    def boltzmann_shift(n):
        return np.exp(-beta * g * square_level(n))

    z = thermal_series(beta, boltzmann_shift)
    if z < sys.float_info.min:
        raise DomainError(f"at beta = {beta!r}, the exact Z = {z!r} leaves the float range")
    e = thermal_series(beta, lambda n: (n + 0.5 + g * square_level(n)) * boltzmann_shift(n)) / z
    s, f = _entropy_free_energy(beta, e, math.log(z))
    return ThermoReport(beta=beta, z=z, energy=e, entropy=s, free_energy=f)
