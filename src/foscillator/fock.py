"""Truncated number-basis operators, states, and exact phase evolution.

All operators live on the first ``dim`` number states.  Truncation is not a
small perturbation of the commutator: [a, a+] picks up a defect of order dim
in the top corner, so every routine here treats dim as a hard boundary and
states are required to have negligible weight near it.

Deformed Hamiltonians are diagonal in the number basis, which makes time
evolution an exact per-entry phase rotation rather than an ODE solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericToleranceError, TruncationError
from .nonlinearity import NonlinearitySpec, require_positive

HAMILTONIAN_FORMS = ("symmetric", "normal", "normal_half", "kerr")

# Validation tolerances for density matrices.
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIG_TOL = 1e-10
_TAIL_TOL = 1e-8
_TAIL_FRACTION = 0.9
# Largest a-priori eigenvalue drift for which evolve_density skips the
# eigendecomposition: a hundredth of _EIG_TOL.
_PHASE_DRIFT_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


def lowering_operator(dim: int) -> np.ndarray:
    """Truncated annihilation operator, a[n-1, n] = sqrt(n)."""
    if dim < 2:
        raise DomainError("operator truncation needs dim >= 2")
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def number_operator(dim: int) -> np.ndarray:
    if dim < 2:
        raise DomainError("operator truncation needs dim >= 2")
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def parity_operator(dim: int) -> np.ndarray:
    """diag((-1)^n)."""
    if dim < 2:
        raise DomainError("operator truncation needs dim >= 2")
    signs = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    return np.diag(signs).astype(complex)


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
    if dim < 2:
        raise DomainError("operator truncation needs dim >= 2")
    fvals = require_positive(spec, dim - 1)
    n = np.arange(1.0, dim)
    return np.diag(np.sqrt(n) * fvals[1:], k=1).astype(complex)


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
    """
    if dim < 2:
        raise DomainError("operator truncation needs dim >= 2")
    if form not in HAMILTONIAN_FORMS:
        raise DomainError(f"unknown hamiltonian form {form!r}")
    n = np.arange(dim, dtype=float)
    if form == "kerr":
        if spec.kind != "kerr":
            raise DomainError("the kerr hamiltonian form needs a kerr profile")
        return n + spec.chi * n * (n - 1.0)
    if form == "symmetric":
        # needs f one level past the top state
        fvals = require_positive(spec, dim)
        f2 = fvals * fvals
        return 0.5 * (n * f2[:dim] + (n + 1.0) * f2[1:])
    fvals = require_positive(spec, dim - 1)
    h = n * fvals * fvals
    if form == "normal_half":
        h = h + 0.5
    return h


def hamiltonian(spec: NonlinearitySpec, dim: int, form: str = "symmetric") -> np.ndarray:
    return np.diag(hamiltonian_diagonal(spec, dim, form)).astype(complex)


def heisenberg_invariant(
    spec: NonlinearitySpec, dim: int, t: float, form: str = "symmetric"
) -> np.ndarray:
    """Constant-of-motion ladder operator Q(t) = a f(n) exp(i dH t).

    Entries Q[n-1, n] = sqrt(n) f(n) exp(i (H(n) - H(n-1)) t); the phase
    factors undo the Heisenberg rotation level by level, so expectation
    values in any evolving state stay frozen at their t = 0 value.
    """
    a_f = deformed_lowering(spec, dim)
    h = hamiltonian_diagonal(spec, dim, form)
    phases = np.exp(1j * (h[1:] - h[:-1]) * float(t))
    out = a_f.copy()
    idx = np.arange(dim - 1)
    out[idx, idx + 1] *= phases
    return out


def _tail_mass(m: np.ndarray) -> float:
    """Population of the levels n > _TAIL_FRACTION (dim - 1) of a square matrix."""
    dim = m.shape[0]
    return float(np.sum(np.diag(m).real[np.arange(dim) > _TAIL_FRACTION * (dim - 1)]))


def _validated(matrix, check_spectrum: bool) -> np.ndarray:
    """Read-only complex copy of ``matrix`` after the density-matrix checks.

    The order is fixed: shape, hermiticity, trace, spectrum, tail, so a
    matrix that fails several checks always reports the same one.
    """
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("density matrix must be square")
    if m.shape[0] < 2:
        raise DomainError("density matrix needs dim >= 2")
    herm = np.max(np.abs(m - m.conj().T))
    if herm > _HERM_TOL:
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
    it always, ``evolve_density`` while its phases keep enough precision.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _validated(self.matrix, check_spectrum=True))

    @classmethod
    def _trusted(cls, matrix) -> "DensityMatrix":
        """A state positive semidefinite by construction, up to roundoff far
        below the eigenvalue tolerance: every check but the spectrum runs."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", _validated(matrix, check_spectrum=False))
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
        dim = int(data["dim"])
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
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
    c = np.zeros(dim, dtype=complex)
    c[0] = 1.0
    return density_from_amplitudes(c)


def fock_density(n: int, dim: int) -> DensityMatrix:
    if not 0 <= n < dim:
        raise DomainError("level index outside the truncated basis")
    c = np.zeros(dim, dtype=complex)
    c[n] = 1.0
    return density_from_amplitudes(c)


def _log_factorials(n_max: int) -> np.ndarray:
    """[log 0!, log 1!, ..., log n_max!] as a running sum of log k."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n_max + 1.0)))))


def _poisson_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    alpha = complex(alpha)
    n = np.arange(dim, dtype=float)
    r = abs(alpha)
    if r == 0.0:
        c = np.zeros(dim, dtype=complex)
        c[0] = 1.0
        return c
    logmag = n * math.log(r) - 0.5 * _log_factorials(dim - 1) - 0.5 * r * r
    phase = n * math.atan2(alpha.imag, alpha.real)
    return np.exp(logmag) * (np.cos(phase) + 1j * np.sin(phase))


def coherent_density(alpha: complex, dim: int) -> DensityMatrix:
    """Harmonic coherent state projected onto the truncated basis."""
    return density_from_amplitudes(_poisson_amplitudes(alpha, dim))


def coherent_truncation_dim(alpha: complex, tail: float = 1e-12) -> int:
    """Smallest dim whose Poisson tail mass is below ``tail``."""
    if not 0.0 < tail < 1.0:
        raise DomainError("tail must be in (0, 1)")
    x = abs(complex(alpha)) ** 2
    term = math.exp(-x)
    cum = term
    n = 0
    while 1.0 - cum >= tail:
        n += 1
        term *= x / n
        cum += term
        if n > 100_000:
            raise TruncationError("tail criterion not reached; amplitude too large")
    return n + 1


def evolve_density(
    rho: DensityMatrix, spec: NonlinearitySpec, t: float, form: str = "symmetric"
) -> DensityMatrix:
    """Exact evolution under the diagonal Hamiltonian.

    rho_mn(t) = rho_mn(0) exp(-i (H_m - H_n) t); populations never move, so
    trace and tail mass are preserved exactly.  The rotation is a conjugation
    by a diagonal unitary, which keeps the spectrum up to the rounding of the
    phases.  While that rounding provably moves the eigenvalues by less than
    a hundredth of the positivity tolerance, the result is rechecked for
    hermiticity, trace and tail only; past it (long times, where the phase
    angles lose their low digits) it is fully validated, eigenvalues
    included, and a state that lost its positivity that way raises
    ``NumericToleranceError``.
    """
    h = hamiltonian_diagonal(spec, rho.dim, form)
    angle = (h[:, None] - h[None, :]) * float(t)
    out = rho.matrix * np.exp(-1j * angle)
    # Rounding the angle, the exponential and the product moves entry mn by
    # at most ~eps |rho_mn| (|angle_mn| + 4); the spectrum moves by at most
    # the Frobenius norm of those moves.
    drift = _EPS * np.linalg.norm(np.abs(rho.matrix) * (np.abs(angle) + 4.0))
    if drift <= _PHASE_DRIFT_TOL:
        return DensityMatrix._trusted(out)
    try:
        return DensityMatrix(out)
    except DomainError as exc:
        # the rotation keeps hermiticity, trace and tail exactly, so only the
        # spectrum can fail, and only through the rounding of the phases
        raise NumericToleranceError(
            f"lost phase precision at t = {float(t):g}: rounding the angles "
            f"(H_m - H_n) t moves the spectrum by up to {drift:.1e}, and the "
            f"evolved state has a {exc}"
        ) from None


def expectation(rho: DensityMatrix, op: np.ndarray) -> complex:
    op = np.asarray(op)
    if op.shape != (rho.dim, rho.dim):
        raise DomainError("operator and state dimensions differ")
    return complex(np.einsum("ij,ji->", rho.matrix, op))
