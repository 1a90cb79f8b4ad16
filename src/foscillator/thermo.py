"""Thermal state of the oscillator and first-order deformed corrections.

The undeformed ladder gives closed forms for the partition function and its
moments; series versions of the same sums serve as cross-checks and as the
general machinery for arbitrary level weights chi(n).

Deformed spectra E_n = n + 1/2 + g chi(n) are treated to first order in g:
Z_f = Z0 (1 - beta g <chi>), with the energy picking up both the direct
shift g <chi> and the reweighting term g beta (E0 <chi> - <H chi>).  The
exact sums are also exposed; they are deliberately independent of the
perturbative path so they can act as its oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericToleranceError, SeriesDivergenceError

_BLOCK = 4096
_REL_STOP = 1e-16
_MAX_TERMS = 10_000_000
_CROSS_CHECK_RTOL = 1e-10
_WEIGHT_USAGE = "level weight must take an array of levels and return one value or one per level"
# Largest beta whose Z = 1/(2 sinh(beta/2)) is a normal double; past it Z
# underflows and sinh overflows, so the closed forms are refused there.
_BETA_MAX = 2.0 * math.asinh(0.5 / sys.float_info.min)


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


def partition_closed(beta: float) -> float:
    """Z = 1 / (2 sinh(beta/2)); DomainError past _BETA_MAX, where Z
    underflows."""
    beta = _check_beta(beta)
    if beta > _BETA_MAX:
        raise DomainError(f"at beta = {beta!r}, Z = 1/(2 sinh(beta/2)) leaves the float "
                          f"range: beta must be <= {_BETA_MAX:.6g}")
    return 1.0 / (2.0 * math.sinh(0.5 * beta))


def mean_energy(beta: float) -> float:
    """E = (1/2) coth(beta/2)."""
    beta = _check_beta(beta)
    return 0.5 / math.tanh(0.5 * beta)


def occupation(beta: float) -> float:
    """<n> = 1 / (e^beta - 1)."""
    beta = _check_beta(beta)
    return 1.0 / math.expm1(beta)


def occupation_second_moment(beta: float) -> float:
    """<n^2> = x (1 + x) / (1 - x)^2 with x = e^(-beta)."""
    beta = _check_beta(beta)
    x = math.exp(-beta)
    return x * (1.0 + x) / (1.0 - x) ** 2


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
    decaying (the weight outgrows the Boltzmann factor) before the tail
    criterion is met.
    """
    beta = _check_beta(beta)
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
        if abs(block) >= prev_block and start >= 4 * _BLOCK:
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

    Both Z and E are cross-checked against the direct level sums at
    construction; a disagreement beyond 1e-10 relative raises, since it can
    only come from a numerics bug, not from user input.
    """
    beta = _check_beta(beta)
    z = partition_closed(beta)
    e = mean_energy(beta)
    z_series = thermal_series(beta)
    e_series = thermal_series(beta, lambda n: np.asarray(n, float) + 0.5) / z_series
    if abs(z - z_series) > _CROSS_CHECK_RTOL * abs(z) or abs(e - e_series) > _CROSS_CHECK_RTOL * abs(e):
        raise NumericToleranceError(
            f"closed forms and series disagree at beta={beta!r}: "
            f"Z {z!r} vs {z_series!r}, E {e!r} vs {e_series!r}"
        )
    s, f = _entropy_free_energy(beta, e, math.log(z))
    return ThermoReport(beta=beta, z=z, energy=e, entropy=s, free_energy=f)


def chi_expectation(beta: float, chi: Optional[Callable] = None) -> float:
    """Thermal average <chi(n)> in the undeformed state."""
    if chi is None:
        chi = square_level
    return thermal_series(beta, chi) / partition_closed(beta)


def deformed_partition(
    beta: float, g: float, chi: Optional[Callable] = None
) -> DeformedThermoReport:
    """Thermodynamics of E_n = n + 1/2 + g chi(n), first order in g.

    g = 0 returns the undeformed quantities exactly (correction is an exact
    zero, not a rounded one).
    """
    beta = _check_beta(beta)
    g = float(g)
    if not math.isfinite(g):
        raise DomainError("coupling g must be finite")
    if chi is None:
        chi = square_level
    base = linear_thermo(beta)
    chi_mean = chi_expectation(beta, chi)
    correction = -beta * g * chi_mean * base.z
    z = base.z + correction
    def h_times_chi(n):
        return (n + 0.5) * _eval_weight(chi, n)

    h_chi_mean = thermal_series(beta, h_times_chi) / base.z
    # d<chi>/dbeta = E0 <chi> - <H chi>
    energy = base.energy + g * (chi_mean + beta * (base.energy * chi_mean - h_chi_mean))
    log_z = math.log(base.z) - beta * g * chi_mean
    entropy, free_energy = _entropy_free_energy(beta, energy, log_z)
    return DeformedThermoReport(
        beta=beta,
        g=g,
        z0=base.z,
        correction=correction,
        z=z,
        chi_mean=chi_mean,
        energy=energy,
        entropy=entropy,
        free_energy=free_energy,
    )


def exact_deformed_report(
    beta: float, g: float, chi: Optional[Callable] = None
) -> ThermoReport:
    """Exact sums over E_n = n + 1/2 + g chi(n); oracle for the first-order path."""
    beta = _check_beta(beta)
    g = float(g)
    if chi is None:
        chi = square_level

    def boltzmann_shift(n):
        return np.exp(-beta * g * _eval_weight(chi, n))

    def energy_weight(n):
        cv = _eval_weight(chi, n)
        return (n + 0.5 + g * cv) * np.exp(-beta * g * cv)

    z = thermal_series(beta, boltzmann_shift)
    if z < sys.float_info.min:
        raise DomainError(f"at beta = {beta!r}, the exact Z = {z!r} leaves the float range")
    e = thermal_series(beta, energy_weight) / z
    s, f = _entropy_free_energy(beta, e, math.log(z))
    return ThermoReport(beta=beta, z=z, energy=e, entropy=s, free_energy=f)
