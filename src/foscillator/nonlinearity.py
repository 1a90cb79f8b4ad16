"""Deformation profiles f and the frequency laws they induce.

A nonlinearity is a real profile f evaluated either on continuous energy
(classical amplitudes) or on integer level index (Fock-space operators).
Built-in kinds:

* ``identity``   f = 1, the ordinary harmonic oscillator
* ``q``          f(n) = sqrt(sinh(lam*n)/(lam*n)), the q-oscillator profile
* ``kerr``       f(n) = sqrt(1 - chi + chi*n), the Kerr medium profile
* ``custom``     a per-level sample table, linear between its samples

A profile is a value: a spec is hashable, equal specs give the same f, and
every spec round-trips through JSON.  All profiles are dimensionless;
frequencies are in units of the undeformed oscillator frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateDeformationError, DomainError, _count, _read_real, _real

KINDS = ("identity", "q", "kerr", "custom")

# Each kind's one parameter: its JSON field and the spec attribute that holds it.
_PARAMETERS = {"q": ("lambda", "lam"), "kerr": ("chi", "chi"), "custom": ("table", "table")}


@dataclass(frozen=True)
class NonlinearitySpec:
    """Immutable description of a deformation profile: its kind, and the
    kind's one parameter if it has one.  None is absent: a kind needs its own
    parameter and takes no other, so that equal profiles are equal specs."""

    kind: str
    lam: Optional[float] = None
    chi: Optional[float] = None
    table: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown nonlinearity kind {self.kind!r}")
        own = _PARAMETERS.get(self.kind)
        for field, attr in _PARAMETERS.values():
            if (field, attr) != own and getattr(self, attr) is not None:
                raise DomainError(f"the {self.kind} profile takes no {field!r} field")
        if own is not None:
            field, attr = own
            value = getattr(self, attr)
            if value is None:
                raise DomainError(f"{self.kind} profile needs a {field!r} field")
            name = f"{self.kind} profile field {field!r}"
            number = _real(value, name, array=field == "table")
            if field == "table" and np.ndim(number) != 1:
                raise DomainError(f"{name} must be a list of numbers, got {value!r}")
            object.__setattr__(self, attr, tuple(number.tolist()) if field == "table" else number)
        if self.kind == "q" and not self.lam > 0.0:
            raise DomainError("q profile needs lam > 0")
        if self.kind == "custom" and len(self.table) < 2:
            raise DomainError("custom table needs at least two samples")


def identity() -> NonlinearitySpec:
    return NonlinearitySpec(kind="identity")


def q_oscillator(lam: float) -> NonlinearitySpec:
    return NonlinearitySpec(kind="q", lam=lam)


def kerr(chi: float) -> NonlinearitySpec:
    return NonlinearitySpec(kind="kerr", chi=chi)


def custom(table: Sequence[float]) -> NonlinearitySpec:
    return NonlinearitySpec(kind="custom", table=table)


def eval_f(spec: NonlinearitySpec, n) -> np.ndarray:
    """Evaluate the profile at level/energy ``n`` (scalar or array, >= 0).

    Returns a float for scalar input, an ndarray of the shape of ``n``
    otherwise; an error names the first bad level in C order.
    """
    n = _read_real(n, "profile argument", array=True)
    arr = np.ravel(n)
    if arr.size and not arr.min() >= 0.0:
        raise DomainError(f"profile argument must be >= 0, got {float(arr[np.argmin(arr >= 0.0)])!r}")

    if spec.kind == "identity":
        vals = np.ones_like(arr)
    elif spec.kind == "q":
        # f = exp((x + log(-expm1(-2x)/(2x)))/2) = sqrt(sinh(x)/x) at
        # x = lam n: no sinh to overflow and no cancellation near x = 0.  Past
        # lam n ~ 1427 f leaves the float range; the check below names the
        # first such level
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x = spec.lam * arr
            ratio = np.divide(-np.expm1(-2.0 * x), 2.0 * x, out=np.ones_like(x), where=x > 0.0)
            vals = np.exp(0.5 * (x + np.log(ratio)))
    elif spec.kind == "kerr":
        sq = 1.0 - spec.chi + spec.chi * arr
        if arr.size and np.min(sq) <= 0.0:
            bad = float(arr[np.argmax(sq <= 0.0)])
            raise DegenerateDeformationError(
                f"kerr profile hit 1 - chi + chi*n <= 0 at n = {bad!r}")
        vals = np.sqrt(sq)
    else:
        top = len(spec.table) - 1
        if arr.size and np.max(arr) > top:
            raise DomainError(f"custom table covers [0, {top}] only")
        vals = np.interp(arr, np.arange(top + 1), np.asarray(spec.table))
    finite = np.isfinite(vals)
    if arr.size and not np.all(finite):
        bad = float(arr[np.argmin(finite)])
        cause = ": f overflows the float range" if spec.kind == "q" else ""
        raise DomainError(f"profile evaluated to a non-finite value at n = {bad!r}{cause}")
    return float(vals[0]) if np.ndim(n) == 0 else vals.reshape(np.shape(n))


def _eval_f_prime(spec: NonlinearitySpec, e: np.ndarray) -> np.ndarray:
    """df/dE on continuous energy for a custom table, exact since the table
    is linear between its samples: the slope of the segment [k, k + 1)
    holding E, which gives a knot the slope of the segment above it, and the
    last segment at the top sample."""
    tab = np.asarray(spec.table)
    k = np.minimum(e.astype(np.intp), tab.size - 2)
    return tab[k + 1] - tab[k]


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
    energy = _read_real(energy, "energy", array=True)
    e = np.ravel(energy)
    if e.size and not e.min() >= 0.0:
        raise DomainError(f"energy must be >= 0, got {float(e[np.argmin(e >= 0.0)])!r}")
    if spec.kind == "identity":
        out = np.ones_like(e)
    else:
        f = eval_f(spec, e)
        if spec.kind == "q":
            x = spec.lam * e
            x_coth = np.divide(x, np.tanh(x), out=np.ones_like(x), where=x > 0.0)
            out = 0.5 * f * (1.0 + x_coth) if law == "amplitude" else f * f * x_coth
        else:
            # kerr: f = sqrt(1 - chi + chi E), so f' = chi / (2 f)
            fp = spec.chi / (2.0 * f) if spec.kind == "kerr" else _eval_f_prime(spec, e)
            out = f + e * fp if law == "amplitude" else f * f + 2.0 * e * f * fp
    finite = np.isfinite(out)
    if not np.all(finite):
        bad = float(e[np.argmin(finite)])
        raise DomainError(f"the {law} frequency overflows at E = {bad!r}")
    return float(out[0]) if np.ndim(energy) == 0 else out.reshape(np.shape(energy))


def f_factorial(spec: NonlinearitySpec, n: int) -> float:
    """Product f(0) f(1) ... f(n); requires every factor > 0."""
    n = _count(n, 0, "f_factorial needs an integer n >= 0")
    return float(np.prod(require_positive(spec, n)))


def log_f_factorial(spec: NonlinearitySpec, n_max: int) -> np.ndarray:
    """Array of log(f(0)...f(n)) for n = 0..n_max, computed in log space.

    Used by coherent-state weights where the plain product can overflow.
    """
    return np.cumsum(np.log(require_positive(spec, n_max)))


def require_positive(spec: NonlinearitySpec, n_max: int) -> np.ndarray:
    """Return f(0..n_max) after checking positivity.

    Raises ``DegenerateDeformationError`` naming the first level with
    f <= 0, and passes on the ``DomainError`` of a profile that cannot be
    evaluated there, such as an overflow.
    """
    factors = eval_f(spec, np.arange(_count(n_max, 0, "n_max must be >= 0") + 1))
    if np.min(factors) <= 0.0:
        bad = int(np.argmax(factors <= 0.0))
        raise DegenerateDeformationError(f"profile hits f({bad}) <= 0")
    return factors


def spec_to_dict(spec: NonlinearitySpec) -> dict:
    """JSON-ready description: the kind and its one parameter, if it has one."""
    fields = {field: getattr(spec, attr) for field, attr in _PARAMETERS.values()}
    return {"kind": spec.kind, **{field: list(value) if field == "table" else value
                                  for field, value in fields.items() if value is not None}}


class _Null:
    """A JSON null: a field the constructor sees as present, where None is absent."""

    def __repr__(self):
        return "None"


def spec_from_dict(data: dict) -> NonlinearitySpec:
    """Inverse of :func:`spec_to_dict`.  The constructor holds the field
    rule; this reader refuses what it cannot see, by its presence: an
    unknown field, and a JSON null."""
    if not isinstance(data, dict) or "kind" not in data:
        raise DomainError("nonlinearity description needs a 'kind' field")
    attrs = dict(_PARAMETERS.values())
    unknown = [key for key in data if key != "kind" and key not in attrs]
    if unknown:
        raise DomainError(f"nonlinearity description has an unknown field {unknown[0]!r}")
    return NonlinearitySpec(data["kind"], **{attrs[key]: _Null() if value is None else value
                                             for key, value in data.items() if key != "kind"})
