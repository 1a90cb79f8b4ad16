"""Truncated number-basis operators, states, and exact phase evolution.

All operators live on the first ``dim`` number states.  Truncation is not a
small perturbation of the commutator: [a, a+] picks up a defect of order dim
in the top corner, so every routine here treats dim as a hard boundary and
states are required to have negligible weight near it.

Deformed Hamiltonians are diagonal in the number basis, so time evolution
is no ODE solve but a congruence by the diagonal unitary diag(exp(-i H_n t)):
one phase per level, and entry mn turned by the product of two of them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, TruncationError, _count
from .nonlinearity import NonlinearitySpec, identity, log_f_factorial, require_positive

HAMILTONIAN_FORMS = ("symmetric", "normal", "normal_half", "kerr")

# Validation tolerances for density matrices.
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIG_TOL = 1e-10
_TAIL_TOL = 1e-8
_TAIL_FRACTION = 0.9
_DIM_RULE = "operator truncation needs dim >= 2"


def lowering_operator(dim: int) -> np.ndarray:
    """Truncated annihilation operator a[n-1, n] = sqrt(n), the f = 1 deformed ladder."""
    return deformed_lowering(identity(), dim)


def commutator_defect(dim: int) -> np.ndarray:
    """[a, a+] - I on the truncated space.

    Identically zero except the corner entry (dim-1, dim-1), which equals
    -dim: the truncation removes the ladder's top rung.
    """
    a = lowering_operator(dim)
    ad = a.conj().T
    return a @ ad - ad @ a - np.eye(dim)


def deformed_lowering(spec: NonlinearitySpec, dim: int) -> np.ndarray:
    """A_f = a f(n): entries sqrt(n) f(n) on the superdiagonal.

    The profile must be positive on levels 0..dim-1, otherwise the deformed
    ladder loses rank and coherent-state weights are undefined.
    """
    dim = _count(dim, 2, _DIM_RULE)
    fvals = require_positive(spec, dim - 1)
    n = np.arange(1.0, dim)
    return np.diag(np.sqrt(n) * fvals[1:], k=1).astype(complex)


@lru_cache(maxsize=8, typed=True)  # typed: a dim of 8.0 is refused, not read as 8
def _level_energies(spec: NonlinearitySpec, dim: int, form: str):
    """(f, H): the profile values the form reads, checked positive, and H(n)
    on levels 0..dim-1, both read-only.

    The symmetric form reads f(0..dim), one level past the top state, the
    normal forms f(0..dim-1); the kerr form reads none, and f is None.
    A process-wide table of the last few (spec, dim, form): a spec is a
    value, so the evolutions and invariants of one state evaluate it once.
    """
    dim = _count(dim, 2, _DIM_RULE)
    if form not in HAMILTONIAN_FORMS:
        raise DomainError(f"unknown hamiltonian form {form!r}")
    n = np.arange(dim, dtype=float)
    if form == "kerr":
        if spec.kind != "kerr":
            raise DomainError("the kerr hamiltonian form needs a kerr profile")
        fvals, h = None, n + spec.chi * n * (n - 1.0)
    else:
        fvals = require_positive(spec, dim if form == "symmetric" else dim - 1)
        if form == "symmetric":
            f2 = fvals * fvals
            h = 0.5 * (n * f2[:dim] + (n + 1.0) * f2[1:])
        else:
            h = n * fvals * fvals
            if form == "normal_half":
                h = h + 0.5
        fvals.flags.writeable = False
    h.flags.writeable = False
    return fvals, h


def hamiltonian_diagonal(
    spec: NonlinearitySpec, dim: int, form: str = "symmetric"
) -> np.ndarray:
    """Energy of each number state under the chosen operator ordering.

    * ``symmetric``    (A_f A_f+ + A_f+ A_f)/2 before truncation:
                       H(n) = (n f(n)^2 + (n+1) f(n+1)^2) / 2
    * ``normal``       A_f+ A_f: H(n) = n f(n)^2
    * ``normal_half``  A_f+ A_f + 1/2
    * ``kerr``         n + chi n (n-1), the Kerr medium form; requires a
                       kerr profile and coincides with ``normal`` for it

    The array is the caller's own copy of the shared level table.
    """
    return _level_energies(spec, dim, form)[1].copy()


def heisenberg_invariant(
    spec: NonlinearitySpec, dim: int, t: float, form: str = "symmetric"
) -> np.ndarray:
    """Constant-of-motion ladder operator Q(t) = a f(n) exp(i dH t).

    Entries Q[n-1, n] = sqrt(n) f(n) exp(i (H(n) - H(n-1)) t); the phase
    factors undo the Heisenberg rotation level by level, so expectation
    values in any evolving state stay frozen at their t = 0 value.  Only the
    superdiagonal is built, from one evaluation of the profile.
    """
    fvals, h = _level_energies(spec, dim, form)
    if fvals is None:  # the kerr form's H reads no profile, but Q does
        fvals = require_positive(spec, dim - 1)
    idx = np.arange(dim - 1)
    out = np.zeros((dim, dim), dtype=complex)
    out[idx, idx + 1] = (np.sqrt(np.arange(1.0, dim)) * fvals[1:dim]
                         * np.exp(1j * (h[1:] - h[:-1]) * float(t)))
    return out


def _tail_mass(m: np.ndarray) -> float:
    """Population of the levels n > _TAIL_FRACTION (dim - 1) of a square matrix."""
    dim = m.shape[0]
    return float(np.sum(np.diag(m).real[np.arange(dim) > _TAIL_FRACTION * (dim - 1)]))


def _hermiticity_residual(m: np.ndarray) -> float:
    """max |m_ij - conj(m_ji)| of a square complex matrix.

    The conjugate transpose is written once, in row order, and the
    difference lands in it, so the subtraction reads both operands row by
    row; the value is that of np.max(np.abs(m - m.conj().T)), bit for bit.
    A non-finite entry makes it NaN or inf (inf - inf is NaN here, not a
    warning), so the residual also screens the entries for finiteness.
    """
    t = np.conjugate(m.T, order="C")
    with np.errstate(invalid="ignore", over="ignore"):
        np.subtract(m, t, out=t)
    return float(np.max(np.abs(t)))


def _validated(m: np.ndarray, check_spectrum: bool) -> np.ndarray:
    """``m``, a complex array the caller owns, made read-only after the
    density-matrix checks.

    The order is fixed: shape, finiteness and hermiticity (one pass),
    trace, spectrum, tail, so a matrix that fails several checks always
    reports the same one.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("density matrix must be square")
    _count(m.shape[0], 2, "density matrix needs dim >= 2")
    herm = _hermiticity_residual(m)
    if not herm <= _HERM_TOL:
        # NaN fails every comparison, so the test is written to fail on it
        if not np.all(np.isfinite(m)):
            raise DomainError("density matrix has non-finite entries (NaN or inf)")
        raise DomainError(f"not hermitian: max deviation {herm:.3e}")
    tr = np.trace(m).real
    if abs(tr - 1.0) > _TRACE_TOL:
        raise DomainError(f"trace {tr!r} is not 1")
    if check_spectrum:
        w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if w.min() < -_EIG_TOL:
            raise DomainError(f"negative eigenvalue {w.min():.3e}")
    tail = _tail_mass(m)
    if tail >= _TAIL_TOL:
        raise TruncationError(
            f"population {tail:.3e} in the top levels; increase dim"
        )
    m.flags.writeable = False
    return m


def _field(data: dict, name: str, convert, what: str):
    """``convert(data[name])``; DomainError naming the field if it fails or
    meets a boolean anywhere, which float() reads as 0 or 1."""
    try:
        items = np.asarray(data[name], dtype=object).flat
        out = None if any(isinstance(v, (bool, np.bool_)) for v in items) else convert(data[name])
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None:
        raise DomainError(f"density field {name!r} must be {what}")
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Validated truncated density matrix.

    Construction checks hermiticity, unit trace, positivity (up to roundoff)
    and that almost no population sits in the top tenth of the basis, where
    truncation artifacts live.  Every matrix from outside the package
    (``DensityMatrix(...)``, ``from_dict``, the CLI's ``file:`` states) gets
    all four checks.  The package's own builders of states that are positive
    by construction skip only the positivity check, a dense
    eigendecomposition: ``density_from_amplitudes`` and the states built on
    it (rank-one projectors), and ``evolve_density`` (a congruence by a
    diagonal unitary, which keeps the spectrum to a few eps at any time).
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           _validated(np.array(self.matrix, dtype=complex), check_spectrum=True))

    @classmethod
    def _trusted(cls, matrix) -> "DensityMatrix":
        """A state positive semidefinite by construction (a rank-one
        projector, or a valid state turned by a diagonal unitary), up to
        roundoff far below the eigenvalue tolerance: every check but the
        spectrum runs.

        The state takes ownership of ``matrix``, a complex array its caller
        has just built and does not keep: no copy is made, and the array is
        made read-only."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", _validated(np.asarray(matrix, dtype=complex),
                                                     check_spectrum=False))
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.einsum("ij,ji->", self.matrix, self.matrix).real)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DensityMatrix":
        if not isinstance(data, dict) or not {"dim", "re", "im"} <= set(data):
            raise DomainError("density description needs dim, re, im fields")
        dim = _field(data, "dim", lambda v: _count(v, 0, "dim"), "an integer")
        re, im = (_field(data, name, lambda v: np.asarray(v, dtype=float), "an array of numbers")
                  for name in ("re", "im"))
        if re.shape != (dim, dim) or im.shape != (dim, dim):
            raise DomainError("re/im blocks must be dim x dim")
        return cls(re + 1j * im)


def density_from_amplitudes(amplitudes) -> DensityMatrix:
    """Pure-state projector |c><c| from a normalized amplitude vector."""
    c = np.asarray(amplitudes, dtype=complex).ravel()
    norm = np.linalg.norm(c)
    if norm == 0.0:
        raise DomainError("amplitude vector is zero")
    c = c / norm
    # rank one: its eigenvalues are 1 and zeros, up to ~2 eps
    return DensityMatrix._trusted(np.outer(c, c.conj()))


def vacuum_density(dim: int) -> DensityMatrix:
    return fock_density(0, dim)


def fock_density(n: int, dim: int) -> DensityMatrix:
    outside = f"level {n} is outside the truncated basis of dim {dim}"
    n = _count(n, 0, outside)
    c = np.zeros(_count(dim, n + 1, outside), dtype=complex)
    c[n] = 1.0
    return density_from_amplitudes(c)


def _log_factorials(n_max: int) -> np.ndarray:
    """[log 0!, log 1!, ..., log n_max!] as a running sum of log k."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n_max + 1.0)))))


def _log_powers(r: float, n: np.ndarray) -> np.ndarray:
    """log r^n for r >= 0: n log r, and 0^0 = 1 when r = 0."""
    return n * math.log(r) if r > 0.0 else np.where(n == 0, 0.0, -np.inf)


def _normalized(logmag: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Unit-norm amplitudes exp(logmag + i phase), the largest magnitude
    scaled to 1 before exponentiating so that no weight overflows."""
    mag = np.exp(logmag - logmag.max())
    mag /= np.linalg.norm(mag)
    return mag * (np.cos(phase) + 1j * np.sin(phase))


def _coherent_amplitudes(alpha: complex, spec: NonlinearitySpec, dim: int) -> np.ndarray:
    """Unit-norm weights alpha^n / (F(n) sqrt(n!)), n < dim, F(n) = f(0) ... f(n), assembled
    in log space (log F = 0 for the harmonic state); each state applies its own truncation rule."""
    dim = _count(dim, 2, "coherent state needs dim >= 2")
    logf = log_f_factorial(spec, dim - 1)
    r, phase0 = cmath.polar(alpha)
    n = np.arange(dim, dtype=float)
    return _normalized(_log_powers(r, n) - logf - 0.5 * _log_factorials(dim - 1), phase0 * n)


def coherent_density(alpha: complex, dim: int) -> DensityMatrix:
    """Harmonic coherent state on the truncated basis, the f = 1 deformed coherent state."""
    return density_from_amplitudes(_coherent_amplitudes(alpha, identity(), dim))


def evolve_density(
    rho: DensityMatrix, spec: NonlinearitySpec, t: float, form: str = "symmetric"
) -> DensityMatrix:
    """Exact evolution under the diagonal Hamiltonian.

    rho(t) = U rho U+ with U = diag(exp(-i H_m t)): one exponential per
    level, then rho_mn(t) = rho_mn e_m conj(e_n), which is
    rho_mn exp(-i (H_m - H_n) t).  The phase matrix has its diagonal set to
    exactly 1, so populations, trace and tail mass never move.  A congruence
    by a diagonal unitary rounded to working precision moves the spectrum by
    at most a few eps ||rho||_F at any t (Weyl's inequality), so the result
    is rechecked for hermiticity, trace and tail but not re-diagonalised.
    """
    h = _level_energies(spec, rho.dim, form)[1]
    e = np.exp(-1j * (h * float(t)))
    phase = np.outer(e, e.conj())
    np.fill_diagonal(phase, 1.0)
    np.multiply(rho.matrix, phase, out=phase)
    return DensityMatrix._trusted(phase)


def expectation(rho: DensityMatrix, op: np.ndarray) -> complex:
    op = np.asarray(op)
    if op.shape != (rho.dim, rho.dim):
        raise DomainError("operator and state dimensions differ")
    return complex(np.einsum("ij,ji->", rho.matrix, op))
