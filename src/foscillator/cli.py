"""Command-line front end.

Every run writes one artifact plus a ``<artifact>.meta.json`` sidecar
carrying the resolved parameters and self-check metrics.  The artifact has
one encoding: a JSON object for ``quantum-evolve`` and ``two-mode``, a CSV
table for every other command.  Output is
byte-deterministic: floats are printed with 17 significant digits, CSV uses
'.' decimals and LF line endings, JSON keys are sorted, and nothing
time- or host-dependent is emitted.

Exit codes: 0 success, 2 validation error (bad flags/config/physics
preconditions; one ``error:`` line, no artifact written), 3 numeric-tolerance
failure: a guard raised ``NumericToleranceError`` (one line, no artifact), or
a check breached its threshold (artifact and sidecar are written so the
breach can be inspected).

Each subcommand is declared once, in ``_COMMAND_TABLE``: name, help,
handler and flags.  The parser is built from that table,
and ``--config file.json`` is checked against it: each key names a flag of
the command (``beta_steps`` or ``beta-steps``), its value goes through the
flag's type and choices as if typed on the command line, and it overrides
the flag.  Unknown keys are refused.  A ``"nonlinearity"`` object is a
profile's JSON form, read by ``spec_from_dict``; it replaces the profile flags,
which the config may not also give, and is how a sidecar records the profile.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .classical import (
    _QUAD_TOL,
    _disk_quadrature,
    amplitude_trajectory,
    classical_invariants,
    gaussian_distribution,
    propagate_distribution,
    PhasePoint,
)
from .coherent import (
    eigen_residual,
    nonlinear_coherent_state,
    position_wavefunction,
    schmidt_spectrum,
    two_mode_coherent_state,
    two_mode_eigen_residuals,
)
from .errors import DomainError, NumericToleranceError
from .fock import (
    HAMILTONIAN_FORMS,
    _TAIL_TOL,
    _hermiticity_residual,
    _tail_mass,
    DensityMatrix,
    coherent_density,
    evolve_density,
    expectation,
    fock_density,
    heisenberg_invariant,
    vacuum_density,
)
from .nonlinearity import _PARAMETERS, KINDS, NonlinearitySpec, spec_from_dict, spec_to_dict
from .thermo import deformed_partition
from .tomography import quantum_tomogram, radon_classical
from .wigner import deformed_wigner, wigner_from_density


@dataclass
class Artifact:
    """Everything one command run produces, before rendering: either a float
    table (one row per line, one column per name) or a JSON object."""

    columns: Optional[list] = None
    data: Optional[np.ndarray] = None
    json_object: Optional[dict] = None
    checks: Dict[str, dict] = field(default_factory=dict)

    def add_check(self, name: str, value: float, threshold: Optional[float] = None):
        """A NaN or infinite value is never ok; JSON holds it as "nan", "inf" or "-inf"."""
        value = float(value)
        ok = math.isfinite(value) and (threshold is None or value <= threshold)
        self.checks[name] = {"value": value if math.isfinite(value) else str(value),
                             "threshold": threshold, "ok": ok}

    def breaches(self):
        return [k for k, c in self.checks.items() if not c["ok"]]


def _table(*columns) -> np.ndarray:
    """Equal-sized arrays, each raveled in C order, as the columns of a float table."""
    return np.column_stack([np.ravel(c) for c in columns]).astype(float, copy=False)


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 rounded as Python's ``abs(v) ** 2`` rounds it (libm hypot and pow),
    not by numpy's SIMD loops, whose last bit may depend on the CPU."""
    return np.array([abs(v) ** 2 for v in z.tolist()], dtype=float)


def _render(art: Artifact) -> tuple:
    """The artifact's text and file extension: a JSON object as JSON, a
    table as CSV."""
    if art.json_object is not None:
        return json.dumps(art.json_object, sort_keys=True, indent=2, allow_nan=False) + "\n", "json"
    row = ",".join(["%.17g"] * len(art.columns))
    lines = [",".join(art.columns)] + [row % tuple(values) for values in art.data.tolist()]
    return "\n".join(lines) + "\n", "csv"


# ---------------------------------------------------------------------------
# flag declarations, shared by the parser and the --config overlay

@dataclass(frozen=True)
class _Flag:
    """One option: its name, its short form if any, and the keyword
    arguments of ``add_argument``."""

    name: str
    kwargs: dict
    short: str = None

    @property
    def names(self) -> tuple:
        return (self.short, self.name) if self.short else (self.name,)

    @property
    def dest(self) -> str:
        return self.kwargs.get("dest", self.name[2:].replace("-", "_"))

    def from_config(self, key: str, value):
        """``value`` from a config file, converted and checked as if typed after
        this flag on the command line; a store_true flag takes a bool, --table a list."""
        if self.dest == "table" and isinstance(value, list):
            return value
        if self.kwargs.get("action") == "store_true":
            if not isinstance(value, bool):
                raise DomainError(f"config field {key!r} must be true or false")
            return value
        convert = self.kwargs.get("type", str)
        wanted = "a string" if convert is str else "a number or a string"
        if isinstance(value, bool) or not isinstance(value, (str, int, float)) \
                or (convert is str and not isinstance(value, str)):
            raise DomainError(f"config field {key!r} must be {wanted}, got {value!r}")
        try:
            out = convert(value if isinstance(value, str) else repr(value))
        except ValueError:
            raise DomainError(f"config field {key!r}: invalid {convert.__name__} value {value!r}")
        except argparse.ArgumentTypeError as exc:
            raise DomainError(f"config field {key!r}: {exc}")
        choices = self.kwargs.get("choices")
        if choices is not None and out not in choices:
            raise DomainError(f"config field {key!r}: {out!r} is not one of {', '.join(choices)}")
        return out


def _flag(name: str, short: str = None, **kwargs) -> _Flag:
    return _Flag(name, kwargs, short)


def _finite_float(text: str) -> float:
    """The type of every float flag: what ``float`` reads, except nan and +-inf."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


_finite_float.__name__ = "float"  # error messages still read "invalid float value: 'x'"


_LAW = _flag("--law", default="amplitude", choices=("amplitude", "canonical"))

_NONLINEARITY_FLAGS = (
    _flag("--kind", default="identity", choices=KINDS,
          help="deformation profile family"),
    _flag("--lambda", dest="lam", type=_finite_float, default=None,
          help="q-profile rate parameter (> 0)"),
    _flag("--chi", type=_finite_float, default=None, help="kerr-profile strength"),
    _flag("--table", type=str, default=None,
          help="comma-separated per-level samples for a custom profile"),
)
_PROFILE_DESTS = tuple(flag.dest for flag in _NONLINEARITY_FLAGS)

_X_FLAGS = (
    _flag("--x-min", type=_finite_float, default=-6.0),
    _flag("--x-max", type=_finite_float, default=6.0),
    _flag("--x-points", type=int, default=121),
)


def _grid_flags(extent: float, points: int) -> tuple:
    return (
        _flag("--extent", type=_finite_float, default=extent,
              help="grid half-width; axes run over [-extent, extent]"),
        _flag("--points", type=int, default=points, help="samples per axis"),
    )


_STATE_FORMS = "vacuum | fock:N | coherent:RE[,IM] | nl-coherent:RE[,IM] | file:PATH"
_STATE_FLAGS = (
    _flag("--state", default="vacuum", help=_STATE_FORMS),
    _flag("--dim", type=int, default=32),
)


def _build_spec(args):
    """The run's profile, from a config block or the profile flags, which
    then give way to its JSON form, so a sidecar's parameters replay the run."""
    spec = vars(args).pop("nonlinearity", None)
    if spec is None:
        field, attr = _PARAMETERS.get(args.kind, (None, None))
        if attr is not None and getattr(args, attr) is None:
            raise DomainError(f"the {args.kind} profile needs --{field}")
        table = args.table.split(",") if isinstance(args.table, str) else args.table
        spec = NonlinearitySpec(args.kind, lam=args.lam, chi=args.chi, table=table)
    for dest in _PROFILE_DESTS:
        delattr(args, dest)
    args.nonlinearity = spec_to_dict(spec)
    return spec


def _axis(args, grid: bool) -> np.ndarray:
    """The samples of the --extent grid axis or of the --x-min/--x-max axis;
    a span past the float range, where linspace steps by inf, is refused."""
    if grid:
        lo, hi, points, count, order, span = (-args.extent, args.extent, args.points, "--points",
                                              "--extent must be > 0", "2 * --extent")
    else:
        lo, hi, points, count, order, span = (args.x_min, args.x_max, args.x_points, "--x-points",
                                              "--x-max must exceed --x-min", "--x-max - --x-min")
    if points < 2:
        raise DomainError(f"{count} must be >= 2")
    if not hi > lo:
        raise DomainError(order)
    if not math.isfinite(hi - lo):
        raise DomainError(f"{span} overflows the float range")
    return np.linspace(lo, hi, points)


def _parse_state(token: str, dim: int, spec) -> DensityMatrix:
    """The density matrix named by a ``--state`` selector (see ``_STATE_FORMS``)."""
    kind, _, value = token.partition(":")
    if token == "vacuum":
        return vacuum_density(dim)
    if kind == "file":
        with open(value, "r", encoding="utf-8") as fh:
            return DensityMatrix.from_dict(json.load(fh))
    parts = value.split(",")
    try:
        if kind == "fock":
            n = int(value)
        elif kind in ("coherent", "nl-coherent") and len(parts) <= 2:
            alpha = complex(*(float(p) for p in parts))
        else:
            raise ValueError
    except ValueError:
        raise DomainError(f"cannot read --state {token!r}; expected {_STATE_FORMS}") from None
    if kind == "fock":
        return fock_density(n, dim)
    if kind == "coherent":
        return coherent_density(alpha, dim)
    return nonlinear_coherent_state(alpha, spec, dim).density()


# ---------------------------------------------------------------------------
# command implementations

def _cmd_classical_trajectory(args) -> Artifact:
    spec = _build_spec(args)
    if args.steps < 1:
        raise DomainError("--steps must be >= 1")
    try:
        e0 = 0.5 * (args.q0 ** 2 + args.p0 ** 2)
    except OverflowError:
        e0 = math.inf
    if e0 == math.inf:
        raise DomainError("the initial energy (q0^2 + p0^2)/2 overflows")
    times = np.linspace(0.0, args.t_max, args.steps + 1)
    alphas = amplitude_trajectory(spec, complex(args.q0, args.p0) / math.sqrt(2.0), times, args.law)
    q = math.sqrt(2.0) * alphas.real
    p = math.sqrt(2.0) * alphas.imag
    e = 0.5 * (q * q + p * p)
    inv = classical_invariants(spec, PhasePoint(q, p), times, args.law)
    art = Artifact(["t", "q", "p", "E", "q0", "p0"], _table(times, q, p, e, inv.q, inv.p))
    art.add_check("invariant_spread", np.max(np.hypot(inv.q - args.q0, inv.p - args.p0)), 1e-9)
    # relative to E0 past E0 = 1, where rounding alone moves E by a few ulp of E0
    art.add_check("energy_drift", np.max(np.abs(e - e0)) / max(1.0, e0), 1e-12)
    return art


def _cmd_classical_propagate(args) -> Artifact:
    spec = _build_spec(args)
    dist = gaussian_distribution(args.center_q, args.center_p, args.sigma)
    moved = propagate_distribution(dist, spec, args.time, args.law)
    axis = _axis(args, grid=True)
    qq, pp = np.meshgrid(axis, axis, indexing="ij")
    # Past |q|, |p| ~ 1.3e154 the energy (q^2 + p^2)/2 and the Gaussian
    # exponent overflow to inf: the identity flow then reads a density of 0
    # there, and a deformed frequency refuses the energy with a DomainError,
    # so numpy's overflow warnings would only repeat what the run reports
    with np.errstate(over="ignore"):
        vals = np.asarray(moved.density(qq, pp), dtype=float)
    art = Artifact(["q", "p", "value"], _table(qq, pp, vals))
    norm, quadrature_error = _disk_quadrature(moved)
    art.add_check("norm_residual", abs(norm - 1.0), 1e-6)
    art.add_check("quadrature_error", quadrature_error, _QUAD_TOL)
    art.add_check("min_value", float(vals.min()))
    return art


def _cmd_quantum_evolve(args) -> Artifact:
    spec = _build_spec(args)
    rho0 = _parse_state(args.state, args.dim, spec)
    rho_t = evolve_density(rho0, spec, args.time, args.form)
    m = rho_t.matrix
    art = Artifact(json_object=rho_t.to_dict())
    q0 = expectation(rho0, heisenberg_invariant(spec, rho0.dim, 0.0, args.form))
    qt = expectation(rho_t, heisenberg_invariant(spec, rho_t.dim, args.time, args.form))
    art.add_check("trace_residual", abs(np.trace(m).real - 1.0), 1e-10)
    art.add_check("hermiticity_residual", _hermiticity_residual(m), 1e-12)
    art.add_check("purity_drift", abs(rho_t.purity() - rho0.purity()), 1e-10)
    art.add_check("tail_mass", _tail_mass(m), _TAIL_TOL)
    art.add_check("invariant_drift", abs(qt - q0), 1e-9)
    return art


def _cmd_wigner(args) -> Artifact:
    spec = _build_spec(args)
    rho = _parse_state(args.state, args.dim, spec)
    axis = _axis(args, grid=True)
    if args.variant == "standard":
        grid = wigner_from_density(rho, axis, axis)
    else:
        variant = args.variant.replace("-", "_")
        grid = deformed_wigner(rho, spec, axis, axis, variant=variant, pad=args.pad)
    qq, pp = np.meshgrid(axis, axis, indexing="ij")
    art = Artifact(["q", "p", "re", "im"], _table(qq, pp, grid.values.real, grid.values.imag))
    art.add_check("normalization", grid.normalization())
    imag_threshold = None if args.variant == "deformed-parity" else 1e-9
    art.add_check("max_imag", grid.max_imag(), imag_threshold)
    art.add_check("min_real", grid.min_real())
    return art


def _cmd_tomogram(args) -> Artifact:
    spec = _build_spec(args)
    x_axis = _axis(args, grid=False)
    if args.source == "quantum":
        rho = _parse_state(args.state, args.dim, spec)
        sl = quantum_tomogram(rho, args.mu, args.nu, x_axis)
    else:
        dist = gaussian_distribution(args.center_q, args.center_p, args.sigma)
        if args.time != 0.0:
            dist = propagate_distribution(dist, spec, args.time, args.law)
        sl = radon_classical(dist, args.mu, args.nu, x_axis)
    art = Artifact(["x", "value"], _table(sl.x_axis, sl.values))
    art.add_check("norm_residual", abs(sl.norm - 1.0), 1e-6)
    # a NaN minimum stays NaN and breaches; a minimum of -0.0 reads 0.0
    low = sl.min_value()
    art.add_check("negativity", 0.0 if low >= 0.0 else -low, 1e-9)
    if args.source == "classical":
        art.add_check("quadrature_error", sl.quadrature_error, _QUAD_TOL)
    return art


def _cmd_coherent(args) -> Artifact:
    spec = _build_spec(args)
    alpha = complex(args.alpha_re, args.alpha_im)
    state = nonlinear_coherent_state(alpha, spec, args.dim)
    if args.wavefunction:
        x_axis = _axis(args, grid=False)
        psi = position_wavefunction(state, x_axis)
        art = Artifact(["x", "re", "im", "abs2"],
                       _table(x_axis, psi.real, psi.imag, _abs2(psi)))
    else:
        amps = state.amplitudes
        art = Artifact(["n", "re", "im", "abs2"],
                       _table(np.arange(amps.size), amps.real, amps.imag, _abs2(amps)))
    art.add_check("norm_residual", abs(np.linalg.norm(state.amplitudes) - 1.0), 1e-12)
    art.add_check("eigen_residual", eigen_residual(state), 1e-8)
    art.add_check("top_weight", abs(state.amplitudes[-1]) ** 2, 1e-12)
    return art


def _cmd_two_mode(args) -> Artifact:
    spec = _build_spec(args)
    a1 = complex(args.alpha1_re, args.alpha1_im)
    a2 = complex(args.alpha2_re, args.alpha2_im)
    state = two_mode_coherent_state(a1, a2, spec, (args.dim1, args.dim2))
    spectrum = schmidt_spectrum(state)
    sv = spectrum.singular_values
    art = Artifact(json_object={
        "alpha1": {"re": a1.real, "im": a1.imag},
        "alpha2": {"re": a2.real, "im": a2.imag},
        "dims": [args.dim1, args.dim2],
        "nonlinearity": spec_to_dict(spec),
        "singular_values": [float(s) for s in sv],
        "entropy": spectrum.entropy,
        "sigma2": spectrum.sigma2,
        "separable": spectrum.separable,
    })
    r1, r2 = two_mode_eigen_residuals(state)
    art.add_check("frobenius_residual", abs(np.linalg.norm(state.coefficients) - 1.0), 1e-12)
    art.add_check("sigma_sq_residual", abs(float(np.sum(sv * sv)) - 1.0), 1e-10)
    art.add_check("eigen_residual_1", r1, 1e-8)
    art.add_check("eigen_residual_2", r2, 1e-8)
    return art


def _cmd_thermo(args) -> Artifact:
    if args.beta_steps < 1:
        raise DomainError("--beta-steps must be >= 1")
    if args.beta_steps == 1:
        if args.beta_max != args.beta_min:
            raise DomainError("one step needs --beta-min == --beta-max")
        betas = np.array([args.beta_min])
    else:
        if not args.beta_max > args.beta_min:
            raise DomainError("--beta-max must exceed --beta-min")
        betas = np.linspace(args.beta_min, args.beta_max, args.beta_steps)
    rows = []
    for beta in betas:
        rep = deformed_partition(float(beta), args.g)
        rows.append((rep.beta, rep.z0, rep.z, rep.energy, rep.entropy,
                     rep.free_energy, rep.correction))
    art = Artifact(["beta", "Z0", "Zf", "E", "S", "F", "correction"], np.array(rows, dtype=float))
    min_entropy = float(np.min(art.data[:, 4]))
    art.add_check("min_entropy", min_entropy)
    # the entropy of a Gibbs state is >= 0; a first-order S below 0 means
    # beta g <chi> is too large for the expansion
    art.add_check("negative_entropy", max(0.0, -min_entropy), 0.0)
    return art


# ---------------------------------------------------------------------------
# the command table

@dataclass(frozen=True)
class _Command:
    name: str
    help: str
    handler: Callable[[argparse.Namespace], Artifact]
    flags: tuple

    @property
    def options(self) -> tuple:
        """The command's own flags, then the ones every command takes."""
        return self.flags + (
            _flag("--output", short="-o", default=None,
                  help="artifact path; '-' writes the artifact to stdout "
                       "(default: <command>.json for quantum-evolve and two-mode, "
                       "<command>.csv otherwise)"),
            _flag("--config", default=None, help="JSON file whose entries override the flags"),
        )


_COMMAND_TABLE = {cmd.name: cmd for cmd in (
    _Command("classical-trajectory", "sample the deformed amplitude flow and its invariants",
             _cmd_classical_trajectory, _NONLINEARITY_FLAGS + (
                 _flag("--q0", type=_finite_float, default=1.0),
                 _flag("--p0", type=_finite_float, default=0.0),
                 _flag("--t-max", type=_finite_float, default=10.0),
                 _flag("--steps", type=int, default=100),
                 _LAW,
             )),
    _Command("classical-propagate", "transport a gaussian phase-space density along the flow",
             _cmd_classical_propagate, _NONLINEARITY_FLAGS + (
                 _flag("--center-q", type=_finite_float, default=1.0),
                 _flag("--center-p", type=_finite_float, default=0.0),
                 _flag("--sigma", type=_finite_float, default=0.5),
                 _flag("--time", type=_finite_float, default=1.0),
                 _LAW,
             ) + _grid_flags(extent=4.0, points=41)),
    _Command("quantum-evolve", "evolve a truncated density matrix under a deformed hamiltonian",
             _cmd_quantum_evolve, _NONLINEARITY_FLAGS + _STATE_FLAGS + (
                 _flag("--time", type=_finite_float, default=1.0),
                 _flag("--form", default="symmetric", choices=HAMILTONIAN_FORMS),
             )),
    _Command("wigner", "Wigner function on a phase-space grid",
             _cmd_wigner, _NONLINEARITY_FLAGS + _STATE_FLAGS + (
                 _flag("--variant", default="standard",
                       choices=("standard", "usual-parity", "deformed-parity")),
                 _flag("--pad", type=int, default=10,
                       help="extra levels for the deformed exponential"),
             ) + _grid_flags(extent=3.0, points=41)),
    _Command("tomogram", "symplectic tomogram along one ray",
             _cmd_tomogram, _NONLINEARITY_FLAGS + (
                 _flag("--mu", type=_finite_float, default=1.0),
                 _flag("--nu", type=_finite_float, default=0.0),
                 _flag("--source", default="quantum", choices=("quantum", "classical")),
             ) + _STATE_FLAGS + (
                 _flag("--center-q", type=_finite_float, default=0.0),
                 _flag("--center-p", type=_finite_float, default=0.0),
                 _flag("--sigma", type=_finite_float, default=1.0),
                 _flag("--time", type=_finite_float, default=0.0),
                 _LAW,
             ) + _X_FLAGS),
    _Command("coherent", "deformed coherent state amplitudes or position wavefunction",
             _cmd_coherent, _NONLINEARITY_FLAGS + (
                 _flag("--alpha-re", type=_finite_float, default=1.0),
                 _flag("--alpha-im", type=_finite_float, default=0.0),
                 _flag("--dim", type=int, default=40),
                 _flag("--wavefunction", action="store_true",
                       help="emit psi(x) on an x grid instead of the amplitude table"),
             ) + _X_FLAGS),
    _Command("two-mode", "two-mode deformed coherent state and its Schmidt spectrum",
             _cmd_two_mode, _NONLINEARITY_FLAGS + (
                 _flag("--alpha1-re", type=_finite_float, default=1.0),
                 _flag("--alpha1-im", type=_finite_float, default=0.0),
                 _flag("--alpha2-re", type=_finite_float, default=1.0),
                 _flag("--alpha2-im", type=_finite_float, default=0.0),
                 _flag("--dim1", type=int, default=40),
                 _flag("--dim2", type=int, default=40),
             )),
    _Command("thermo", "partition function and first-order deformed corrections",
             _cmd_thermo, (
                 _flag("--beta-min", type=_finite_float, default=0.5),
                 _flag("--beta-max", type=_finite_float, default=2.0),
                 _flag("--beta-steps", type=int, default=16),
                 _flag("--g", type=_finite_float, default=0.0,
                       help="first-order coupling of the level weight n^2"),
             )),
)}


# ---------------------------------------------------------------------------
# parser construction and config overlay

class _Parser(argparse.ArgumentParser):
    """Raises ``DomainError`` on a bad command line instead of printing usage
    and exiting, so ``main`` reports it like a bad --config value.  -1e-3, -inf
    and -nan are values too: Python 3.11 took only -1 and -1.5 forms as ones."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fosc",
        description="Deformed (f-)oscillator toolkit: classical flows, Fock dynamics, "
                    "Wigner functions, tomograms, coherent states, thermodynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMAND_TABLE.values():
        p = sub.add_parser(cmd.name, help=cmd.help)
        for flag in cmd.options:
            p.add_argument(*flag.names, **flag.kwargs)
    return parser


def _apply_config(args, cmd: _Command):
    """Overlay --config JSON onto parsed flags, each value typed by its flag."""
    if args.config is None:
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise DomainError("config must be a JSON object")
    flags = {f.dest: f for f in cmd.options if f.dest != "config"}
    profile = [key for key in data if key.replace("-", "_") in _PROFILE_DESTS]
    if "nonlinearity" in data and profile and "kind" in flags:
        raise DomainError(f"config gives both a 'nonlinearity' block and "
                          f"the profile field {profile[0]!r}")
    for key, value in data.items():
        if key == "nonlinearity" and "kind" in flags:
            args.nonlinearity = spec_from_dict(value)
            continue
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise DomainError(f"unknown config field {key!r} for {cmd.name}")
        setattr(args, flag.dest, flag.from_config(key, value))


def _write_outputs(args, art: Artifact) -> str:
    text, extension = _render(art)
    status = "ok" if not art.breaches() else "tolerance-breach"
    sidecar = json.dumps(
        {
            "command": args.command,
            "parameters": {key: value for key, value in vars(args).items()
                           if key not in ("command", "output", "config")},
            "checks": art.checks,
            "status": status,
        },
        sort_keys=True,
        indent=2,
        allow_nan=False,
    ) + "\n"
    output = args.output or f"{args.command}.{extension}"
    if output == "-":
        sys.stdout.write(text)
        sys.stderr.write(sidecar)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(output + ".meta.json", "w", encoding="utf-8", newline="") as fh:
            fh.write(sidecar)
    return status


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cmd = _COMMAND_TABLE[args.command]
        _apply_config(args, cmd)
        artifact = cmd.handler(args)
        status = _write_outputs(args, artifact)
    except NumericToleranceError as exc:
        print(f"numeric tolerance failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the size it could not allocate; a bare one is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    if status != "ok":
        breached = ", ".join(artifact.breaches())
        print(f"numeric tolerance failure: {breached}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
