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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, TruncationError, _complex, _count, _instance, _real
from .nonlinearity import NonlinearitySpec, identity, require_positive

HAMILTONIAN_FORMS = ("symmetric", "normal", "normal_half", "kerr")

# Validation tolerances for density matrices.
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIG_TOL = 1e-10
_TAIL_TOL = 1e-8
_TAIL_FRACTION = 0.9
_DIM_RULE = "operator truncation needs dim >= 2"
# What one rounded complex product per entry can add to a hermiticity
# residual r, as r -> (1 + _HERM_STEP) r + _HERM_STEP: a product rounds by at
# most sqrt(5) eps/2 relative, a phase exp(-i H t) has modulus 1 within 2 eps,
# and |rho_mn| <= 1 + dim _EIG_TOL in a valid state; 16 eps leaves room for
# the rounding of the residual's own evaluation.
_HERM_STEP = 16.0 * np.finfo(float).eps
_NORM_MIN = math.sqrt(np.finfo(float).tiny)  # below it |c|^2 leaves the normal range


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
    return _level_energies(_instance(spec, NonlinearitySpec, "spec"), dim, form)[1].copy()


def heisenberg_invariant(
    spec: NonlinearitySpec, dim: int, t: float, form: str = "symmetric"
) -> np.ndarray:
    """Constant-of-motion ladder operator Q(t) = a f(n) exp(i dH t).

    Entries Q[n-1, n] = sqrt(n) f(n) exp(i (H(n) - H(n-1)) t); the phase
    factors undo the Heisenberg rotation level by level, so expectation
    values in any evolving state stay frozen at their t = 0 value.  Only the
    superdiagonal is built, from one evaluation of the profile.
    """
    t = _real(t, "time t")
    fvals, h = _level_energies(_instance(spec, NonlinearitySpec, "spec"), dim, form)
    if fvals is None:  # the kerr form's H reads no profile, but Q does
        fvals = require_positive(spec, dim - 1)
    idx = np.arange(dim - 1)
    out = np.zeros((dim, dim), dtype=complex)
    out[idx, idx + 1] = (np.sqrt(np.arange(1.0, dim)) * fvals[1:dim]
                         * np.exp(1j * _angles(h[1:] - h[:-1], t)))
    return out


def _angles(energies: np.ndarray, t: float) -> np.ndarray:
    """The phase angles ``energies * t``; DomainError naming t when one of
    them is not finite, so that no phase exp(i angle) is NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        angles = energies * t
    if not np.isfinite(angles).all():
        raise DomainError(f"phase angles H t are not finite at t = {t!r}")
    return angles


def _tail_mass(m: np.ndarray) -> float:
    """Population of the levels n > _TAIL_FRACTION (dim - 1) of a square matrix."""
    dim = m.shape[0]
    return float(np.sum(np.diag(m).real[np.arange(dim) > _TAIL_FRACTION * (dim - 1)]))


def _hermiticity_residual(m: np.ndarray) -> float:
    """max |m_ij - conj(m_ji)| of a square complex matrix.

    The conjugate transpose is written once, in row order, and the
    difference lands in it, so the subtraction reads both operands row by
    row; the value is that of np.max(np.abs(m - m.conj().T)), bit for bit.
    A difference past the float range makes it inf, unwarned.
    """
    t = np.conjugate(m.T, order="C")
    with np.errstate(over="ignore"):
        np.subtract(m, t, out=t)
    return float(np.max(np.abs(t)))


def _check_hermitian(m: np.ndarray) -> float:
    """The hermiticity residual of ``m``, a finite matrix; DomainError above ``_HERM_TOL``."""
    herm = _hermiticity_residual(m)
    if herm > _HERM_TOL:
        raise DomainError(f"not hermitian: max deviation {herm:.3e}")
    return herm


def _check_trace(m: np.ndarray) -> None:
    tr = np.trace(m).real
    if abs(tr - 1.0) > _TRACE_TOL:
        raise DomainError(f"trace {float(tr)} is not 1")


def _check_tail(m: np.ndarray) -> None:
    tail = _tail_mass(m)
    if tail >= _TAIL_TOL:
        raise TruncationError(
            f"population {tail:.3e} in the top levels; increase dim"
        )


def _validated(m: np.ndarray) -> float:
    """The hermiticity residual of ``m``, a finite complex array, after the
    density-matrix checks.

    The order is fixed: shape, hermiticity, trace, spectrum, tail, so a
    matrix that fails several checks always reports the same one.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("density matrix must be square")
    _count(m.shape[0], 2, "density matrix needs dim >= 2")
    herm = _check_hermitian(m)
    _check_trace(m)
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    if w.min() < -_EIG_TOL:
        raise DomainError(f"negative eigenvalue {w.min():.3e}")
    _check_tail(m)
    return herm


@dataclass(frozen=True)
class DensityMatrix:
    """Validated truncated density matrix, read-only.

    Construction checks hermiticity, unit trace, positivity (up to roundoff)
    and that almost no population sits in the top tenth of the basis, where
    truncation artifacts live.  Every matrix from outside the package
    (``DensityMatrix(...)``, ``from_dict``, the CLI's ``file:`` states) gets
    all of these checks, the hermiticity one a dense O(dim^2) pass and the
    positivity one a dense eigendecomposition.  The package's own builders
    keep both by construction and check in O(dim) only what their inputs
    can break:

    * ``density_from_amplitudes`` and the states built on it (rank-one
      projectors): finite amplitudes, dim, trace and tail.  Hermitian to
      within one rounding of a complex product per entry, spectrum
      {1, 0, ...} to within a few eps.
    * ``evolve_density`` (a congruence by a diagonal unitary): finite phases.
      Populations, trace and tail are the input's bit for bit; the
      hermiticity residual grows by a bound carried from state to state, and
      the spectrum moves by at most a few eps ||rho||_F.
    """

    matrix: np.ndarray
    # an upper bound on the hermiticity residual, which evolve_density carries
    _herm_bound: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(_complex(self.matrix, "density matrix", array=True))
        _own(self, m, _validated(m))

    @classmethod
    def _adopt(cls, matrix: np.ndarray, herm_bound: float) -> "DensityMatrix":
        """A state its builder has checked: no check runs and no copy is
        made.  ``matrix`` is a complex array the builder does not keep, and
        ``herm_bound`` bounds its hermiticity residual."""
        rho = object.__new__(cls)
        _own(rho, matrix, herm_bound)
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
        dim = _count(data["dim"], 0, "density field 'dim' must be an integer >= 0")
        re, im = (_real(data[name], f"density field {name!r}", array=True) for name in ("re", "im"))
        if np.shape(re) != (dim, dim) or np.shape(im) != (dim, dim):
            raise DomainError("re/im blocks must be dim x dim")
        return cls(re + 1j * im)


def _own(rho: DensityMatrix, m: np.ndarray, herm_bound: float) -> None:
    m.flags.writeable = False
    object.__setattr__(rho, "matrix", m)
    object.__setattr__(rho, "_herm_bound", herm_bound)


def density_from_amplitudes(amplitudes) -> DensityMatrix:
    """Pure-state projector |c><c| from an amplitude vector, normalized here.

    A vector whose sum of squares overflows, or falls below the normal
    range, is first divided by its largest real or imaginary part.  The
    projector is hermitian and positive by construction, so the checks run
    in O(dim) on what the vector can break, in the order and with the
    messages of ``DensityMatrix``: dim >= 2, unit trace and the tail mass,
    the last two on the diagonal |c_n|^2, after the rule has read a 1-D
    vector of finite numbers.  Entry c_m conj(c_n) is the conjugate of
    c_n conj(c_m) to within the rounding of the two products, so the
    hermiticity residual is at most sqrt(5) eps max |c_n|^2 <= _HERM_STEP,
    and the eigenvalues are 1 and zeros to within a few eps.
    """
    c = _complex(amplitudes, "amplitudes", array=True)
    if c.ndim != 1:
        raise DomainError(f"amplitudes must be a 1-D vector, got shape {c.shape}")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(c)
    if not _NORM_MIN <= norm < math.inf:
        scale = np.max(np.abs([c.real, c.imag]), initial=0.0)
        if scale > 0.0:
            c = c / scale
            norm = np.linalg.norm(c)
    if norm == 0.0:
        raise DomainError("amplitude vector is zero")
    _count(c.size, 2, "density matrix needs dim >= 2")
    c = c / norm
    m = np.outer(c, c.conj())
    _check_trace(m)
    _check_tail(m)
    return DensityMatrix._adopt(m, _HERM_STEP)


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


def _coherent_weights(alpha1, alpha2, logf: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Unit-norm weights c[n1, n2] = alpha1^n1 alpha2^n2 / (sqrt(n1! n2!) F(n1 + n2)),
    n1 < d1, n2 < d2, of complex alphas and dims the caller has read, and
    ``logf`` = log F(n) for n = 0 .. d1 + d2 - 2, F(n) = f(0) ... f(n), from
    the caller's profile (zeros for the harmonic state); assembled in log
    space, and each state applies its own truncation rule.  One mode is the
    case alpha2 = 0, d2 = 1: column 0 holds alpha1^n / (F(n) sqrt(n!))."""
    half_log_fact = 0.5 * _log_factorials(max(d1, d2) - 1)
    r1, ph1 = cmath.polar(alpha1)
    r2, ph2 = cmath.polar(alpha2)
    n1, n2 = np.divmod(np.arange(d1 * d2), d2)  # the level pairs, row by row
    logmag = (_log_powers(r1, n1) + _log_powers(r2, n2) - logf[n1 + n2]
              - half_log_fact[n1] - half_log_fact[n2])
    return _normalized(logmag, ph1 * n1 + ph2 * n2).reshape(d1, d2)


def coherent_density(alpha: complex, dim: int) -> DensityMatrix:
    """Harmonic coherent state on the truncated basis, the f = 1 deformed
    coherent state: F(n) = 1, so log F is zero and no profile is evaluated."""
    alpha, dim = _complex(alpha, "alpha"), _count(dim, 2, "coherent state needs dim >= 2")
    return density_from_amplitudes(_coherent_weights(alpha, 0j, np.zeros(dim), dim, 1)[:, 0])


def evolve_density(
    rho: DensityMatrix, spec: NonlinearitySpec, t: float, form: str = "symmetric"
) -> DensityMatrix:
    """Exact evolution under the diagonal Hamiltonian.

    rho(t) = U rho U+ with U = diag(exp(-i H_m t)): one exponential per
    level, then rho_mn(t) = rho_mn e_m conj(e_n), which is
    rho_mn exp(-i (H_m - H_n) t).  DomainError names t when a phase angle
    H_m t is not finite.

    The result keeps what ``rho`` was checked for, by construction:

    * The phase matrix has its diagonal set to exactly 1, so populations,
      trace and tail mass are rho's own, bit for bit.
    * e_m conj(e_n) is the conjugate of e_n conj(e_m) to within one rounding,
      so the hermiticity residual r of rho becomes at most
      (1 + _HERM_STEP) r + _HERM_STEP, _HERM_STEP = 16 eps.  The result
      carries that bound; only when it passes ``_HERM_TOL``, after hundreds of
      chained evolutions or from a state within a few eps of the tolerance,
      is the residual measured, and the state refused above the tolerance.
    * A congruence by a diagonal unitary rounded to working precision moves
      the spectrum by at most a few eps ||rho||_F at any t (Weyl's
      inequality), so the result is not re-diagonalised.
    """
    rho, t = _instance(rho, DensityMatrix, "rho"), _real(t, "time t")
    h = _level_energies(_instance(spec, NonlinearitySpec, "spec"), rho.dim, form)[1]
    e = np.exp(-1j * _angles(h, t))
    phase = np.outer(e, e.conj())
    np.fill_diagonal(phase, 1.0)
    np.multiply(rho.matrix, phase, out=phase)
    herm = (1.0 + _HERM_STEP) * rho._herm_bound + _HERM_STEP
    if herm > _HERM_TOL:
        herm = _check_hermitian(phase)
    return DensityMatrix._adopt(phase, herm)


def expectation(rho: DensityMatrix, op: np.ndarray) -> complex:
    """Tr(rho op) for a dim x dim operator, its entries read as complex by the rule."""
    rho, op = _instance(rho, DensityMatrix, "rho"), _complex(op, "operator", array=True)
    if op.shape != (rho.dim, rho.dim):
        raise DomainError("operator and state dimensions differ")
    return complex(np.einsum("ij,ji->", rho.matrix, op))
