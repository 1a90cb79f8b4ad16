"""Deformation profiles f and the frequency laws they induce.

A nonlinearity is a real profile f evaluated either on continuous energy
(classical amplitudes) or on integer level index (Fock-space operators).
Built-in kinds:

* ``identity``   f = 1, the ordinary harmonic oscillator
* ``q``          f(n) = sqrt(sinh(lam*n)/(lam*n)), the q-oscillator profile
* ``kerr``       f(n) = sqrt(1 - chi + chi*n), the Kerr medium profile
* ``custom``     a user callable or a per-level sample table

All profiles are dimensionless; frequencies are in units of the undeformed
oscillator frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateDeformationError, DomainError

KINDS = ("identity", "q", "kerr", "custom")

# Small-argument cutoff for log(sinh(x)/x): below this the quadratic series
# is already exact to double precision.
_Q_SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class NonlinearitySpec:
    """Immutable description of a deformation profile."""

    kind: str
    lam: float = 0.0
    chi: float = 0.0
    table: Optional[tuple] = None
    fn: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "q":
            if not (self.lam > 0.0 and math.isfinite(self.lam)):
                raise DomainError("q profile needs lam > 0")
        if self.kind == "kerr":
            if not math.isfinite(self.chi):
                raise DomainError("kerr profile needs finite chi")
        if self.kind == "custom":
            if (self.table is None) == (self.fn is None):
                raise DomainError("custom profile needs exactly one of table or fn")
            if self.table is not None:
                tab = tuple(float(v) for v in self.table)
                if len(tab) < 2:
                    raise DomainError("custom table needs at least two samples")
                if not all(math.isfinite(v) for v in tab):
                    raise DomainError("custom table entries must be finite")
                object.__setattr__(self, "table", tab)


def identity() -> NonlinearitySpec:
    return NonlinearitySpec(kind="identity")


def q_oscillator(lam: float) -> NonlinearitySpec:
    return NonlinearitySpec(kind="q", lam=float(lam))


def kerr(chi: float) -> NonlinearitySpec:
    return NonlinearitySpec(kind="kerr", chi=float(chi))


def custom(fn: Callable = None, table: Sequence[float] = None) -> NonlinearitySpec:
    if table is not None:
        table = tuple(float(v) for v in table)
    return NonlinearitySpec(kind="custom", fn=fn, table=table)


def _log_sinhc(x: np.ndarray) -> np.ndarray:
    """log(sinh(x)/x) for x >= 0; never overflows, unlike sinh itself."""
    out = np.empty_like(x)
    small = x < _Q_SERIES_CUTOFF
    xs = x[small]
    out[small] = xs * xs / 6.0
    xb = x[~small]
    out[~small] = xb + np.log1p(-np.exp(-2.0 * xb)) - np.log(2.0 * xb)
    return out


def eval_f(spec: NonlinearitySpec, n) -> np.ndarray:
    """Evaluate the profile at level/energy ``n`` (scalar or array, >= 0).

    Returns a float for scalar input, an ndarray otherwise.
    """
    scalar = np.ndim(n) == 0
    arr = np.atleast_1d(np.asarray(n, dtype=float))
    if arr.size and np.min(arr) < 0.0:
        raise DomainError("profile argument must be >= 0")

    if spec.kind == "identity":
        vals = np.ones_like(arr)
    elif spec.kind == "q":
        # past lam n ~ 1427 f leaves the float range; the check below names
        # the first such level
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.exp(0.5 * _log_sinhc(spec.lam * arr))
    elif spec.kind == "kerr":
        sq = 1.0 - spec.chi + spec.chi * arr
        if arr.size and np.min(sq) <= 0.0:
            bad = float(arr[np.argmax(sq <= 0.0)])
            raise DegenerateDeformationError(
                f"kerr profile hit 1 - chi + chi*n <= 0 at n = {bad!r}")
        vals = np.sqrt(sq)
    else:
        if spec.table is not None:
            top = len(spec.table) - 1
            if arr.size and np.max(arr) > top:
                raise DomainError(f"custom table covers [0, {top}] only")
            vals = np.interp(arr, np.arange(top + 1), np.asarray(spec.table))
        else:
            vals = np.asarray(spec.fn(arr), dtype=float)
            if vals.shape != arr.shape:
                vals = np.broadcast_to(vals, arr.shape).copy()
    finite = np.isfinite(vals)
    if arr.size and not np.all(finite):
        bad = float(arr[np.argmin(finite)])
        cause = ": f overflows the float range" if spec.kind == "q" else ""
        raise DomainError(f"profile evaluated to a non-finite value at n = {bad!r}{cause}")
    return float(vals[0]) if scalar else vals.reshape(np.shape(n))


def _eval_f_prime(spec: NonlinearitySpec, e: np.ndarray) -> np.ndarray:
    """df/dE on continuous energy for the kerr and custom profiles."""
    if spec.kind == "kerr":
        sq = 1.0 - spec.chi + spec.chi * e
        return spec.chi / (2.0 * np.sqrt(sq))
    # custom: central difference, clipped into the table domain if any
    h = 1e-6 * np.maximum(1.0, np.abs(e))
    lo, hi = e - h, e + h
    if spec.table is not None:
        top = float(len(spec.table) - 1)
        lo = np.clip(lo, 0.0, top)
        hi = np.clip(hi, 0.0, top)
    else:
        lo = np.maximum(lo, 0.0)
    width = hi - lo
    if np.any(width <= 0.0):
        raise DomainError("cannot take a finite difference: empty neighborhood")
    return (eval_f(spec, hi) - eval_f(spec, lo)) / width


@np.errstate(over="ignore", invalid="ignore")
def frequency(spec: NonlinearitySpec, energy, law: str = "amplitude"):
    """Energy-dependent oscillation frequency omega(E).

    ``law`` picks the definition:

    * ``amplitude``  omega = f(E) + E f'(E); the phase velocity of the
      deformed amplitude alpha f(|alpha|^2).  Default.
    * ``canonical``  omega = d/dE [E f(E)^2] = f^2 + 2 E f f'; the
      Hamiltonian flow frequency of H = E f(E)^2.

    Both reduce to 1 for the identity profile.  The q profile has
    f'/f = (lam/2)(coth x - 1/x) at x = lam E, so its laws take the closed
    forms omega = f (1 + x coth x)/2 and omega = f^2 x coth x.

    Overflow is not warned about: ``DomainError`` names the first energy
    where omega is not finite, such as lam E past ~710 for the canonical law
    of the q profile, where f is finite but f^2 is not.
    """
    if law not in ("amplitude", "canonical"):
        raise DomainError(f"unknown frequency law {law!r}")
    scalar = np.ndim(energy) == 0
    e = np.atleast_1d(np.asarray(energy, dtype=float))
    if e.size and np.min(e) < 0.0:
        raise DomainError("energy must be >= 0")
    if spec.kind == "identity":
        out = np.ones_like(e)
    else:
        f = np.atleast_1d(eval_f(spec, e))
        if spec.kind == "q":
            x = spec.lam * e
            x_coth = np.divide(x, np.tanh(x), out=np.ones_like(x), where=x > 0.0)
            out = 0.5 * f * (1.0 + x_coth) if law == "amplitude" else f * f * x_coth
        elif law == "amplitude":
            out = f + e * _eval_f_prime(spec, e)
        else:
            out = f * f + 2.0 * e * f * _eval_f_prime(spec, e)
    finite = np.isfinite(out)
    if not np.all(finite):
        bad = float(e[np.argmin(finite)])
        raise DomainError(f"the {law} frequency overflows at E = {bad!r}")
    return float(out[0]) if scalar else out.reshape(np.shape(energy))


def f_factorial(spec: NonlinearitySpec, n: int) -> float:
    """Product f(0) f(1) ... f(n); requires every factor > 0."""
    if n != int(n) or n < 0:
        raise DomainError("f_factorial needs an integer n >= 0")
    return float(np.prod(require_positive(spec, int(n))))


def log_f_factorial(spec: NonlinearitySpec, n_max: int) -> np.ndarray:
    """Array of log(f(0)...f(n)) for n = 0..n_max, computed in log space.

    Used by coherent-state weights where the plain product can overflow.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    return np.cumsum(np.log(require_positive(spec, n_max)))


def require_positive(spec: NonlinearitySpec, n_max: int) -> np.ndarray:
    """Return f(0..n_max) after checking positivity.

    Raises ``DegenerateDeformationError`` naming the first level with
    f <= 0, and passes on the ``DomainError`` of a profile that cannot be
    evaluated there, such as an overflow.
    """
    factors = np.atleast_1d(eval_f(spec, np.arange(int(n_max) + 1)))
    if np.min(factors) <= 0.0:
        bad = int(np.argmax(factors <= 0.0))
        raise DegenerateDeformationError(f"profile hits f({bad}) <= 0")
    return factors


def spec_to_dict(spec: NonlinearitySpec) -> dict:
    """JSON-ready description; callable customs cannot be serialized."""
    out = {"kind": spec.kind}
    if spec.kind == "q":
        out["lambda"] = spec.lam
    elif spec.kind == "kerr":
        out["chi"] = spec.chi
    elif spec.kind == "custom":
        if spec.table is None:
            raise DomainError("a callable custom profile has no JSON form")
        out["table"] = list(spec.table)
    return out


def spec_from_dict(data: dict) -> NonlinearitySpec:
    """Inverse of :func:`spec_to_dict`."""
    if not isinstance(data, dict) or "kind" not in data:
        raise DomainError("nonlinearity description needs a 'kind' field")
    kind = data["kind"]
    if kind == "identity":
        return identity()
    if kind == "q":
        if "lambda" not in data:
            raise DomainError("q profile needs a 'lambda' field")
        return q_oscillator(data["lambda"])
    if kind == "kerr":
        if "chi" not in data:
            raise DomainError("kerr profile needs a 'chi' field")
        return kerr(data["chi"])
    if kind == "custom":
        if "table" not in data:
            raise DomainError("custom profile needs a 'table' field")
        return custom(table=data["table"])
    raise DomainError(f"unknown nonlinearity kind {kind!r}")
