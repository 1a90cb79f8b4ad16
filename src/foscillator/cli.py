"""Command-line front end.

Every run writes one artifact (CSV or JSON) plus a ``<artifact>.meta.json``
sidecar carrying the resolved parameters and self-check metrics.  Output is
byte-deterministic: floats are printed with 17 significant digits, CSV uses
'.' decimals and LF line endings, JSON keys are sorted, and nothing
time- or host-dependent is emitted.

Exit codes: 0 success, 2 validation error (bad flags/config/physics
preconditions; no artifact written), 3 numeric-tolerance failure (artifact
and sidecar are written so the breach can be inspected).

``--config file.json`` overlays values onto the parsed flags; unknown keys
are rejected.  ``FOSC_THREADS`` is validated (a non-negative integer; 0 or
unset = auto) but starts no threads: the Wigner maps are batched
contractions.  It never changes the bytes produced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .classical import (
    amplitude_trajectory,
    classical_invariants,
    gaussian_distribution,
    phase_space_integral,
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
    DensityMatrix,
    coherent_density,
    evolve_density,
    expectation,
    fock_density,
    heisenberg_invariant,
    vacuum_density,
)
from .nonlinearity import spec_from_dict, spec_to_dict
from .thermo import deformed_partition, linear_thermo
from .tomography import quantum_tomogram, radon_classical, ray_from_scale_angle
from .wigner import deformed_wigner, wigner_from_density

_FLOAT_FMT = ".17g"
_COMMANDS = (
    "classical-trajectory",
    "classical-propagate",
    "quantum-evolve",
    "wigner",
    "tomogram",
    "coherent",
    "two-mode",
    "thermo",
)


def _fmt(v) -> str:
    return format(float(v), _FLOAT_FMT)


@dataclass
class Artifact:
    """Everything one command run produces, before rendering."""

    columns: Optional[list] = None
    rows: Optional[list] = None
    json_object: Optional[dict] = None
    checks: Dict[str, dict] = field(default_factory=dict)

    def add_check(self, name: str, value: float, threshold: Optional[float] = None):
        value = float(value)
        ok = True if threshold is None else (value <= threshold)
        self.checks[name] = {"value": value, "threshold": threshold, "ok": bool(ok)}

    def breaches(self):
        return [k for k, c in self.checks.items() if not c["ok"]]


def _render_csv(art: Artifact) -> str:
    if art.columns is None:
        raise DomainError("this command has no CSV representation")
    lines = [",".join(art.columns)]
    for row in art.rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _render_json(art: Artifact) -> str:
    obj = art.json_object
    if obj is None:
        obj = {"columns": art.columns, "rows": [[float(v) for v in row] for row in art.rows]}
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# shared flag groups

def _add_nonlinearity_flags(p: argparse.ArgumentParser):
    p.add_argument("--kind", default="identity",
                   choices=["identity", "q", "kerr", "custom"],
                   help="deformation profile family")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="q-profile rate parameter (> 0)")
    p.add_argument("--chi", type=float, default=None,
                   help="kerr-profile strength")
    p.add_argument("--table", type=str, default=None,
                   help="comma-separated per-level samples for a custom profile")


def _build_spec(args):
    data = {"kind": args.kind}
    if args.kind == "q":
        if args.lam is None:
            raise DomainError("the q profile needs --lambda")
        data["lambda"] = args.lam
    elif args.kind == "kerr":
        if args.chi is None:
            raise DomainError("the kerr profile needs --chi")
        data["chi"] = args.chi
    elif args.kind == "custom":
        if args.table is None:
            raise DomainError("the custom profile needs --table")
        data["table"] = [float(v) for v in str(args.table).split(",")]
    return spec_from_dict(data)


def _add_grid_flags(p: argparse.ArgumentParser, extent: float, points: int):
    p.add_argument("--extent", type=float, default=extent,
                   help="grid half-width; axes run over [-extent, extent]")
    p.add_argument("--points", type=int, default=points,
                   help="samples per axis")


def _add_x_flags(p: argparse.ArgumentParser):
    p.add_argument("--x-min", type=float, default=-6.0)
    p.add_argument("--x-max", type=float, default=6.0)
    p.add_argument("--x-points", type=int, default=121)


def _x_axis(args) -> np.ndarray:
    if args.x_points < 2:
        raise DomainError("--x-points must be >= 2")
    if not args.x_max > args.x_min:
        raise DomainError("--x-max must exceed --x-min")
    return np.linspace(args.x_min, args.x_max, args.x_points)


def _grid_axis(args) -> np.ndarray:
    if args.points < 2:
        raise DomainError("--points must be >= 2")
    if not args.extent > 0:
        raise DomainError("--extent must be > 0")
    return np.linspace(-args.extent, args.extent, args.points)


def _parse_complex_token(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise DomainError(f"cannot parse complex value from {text!r}")


def _parse_state(token: str, dim: int, spec) -> DensityMatrix:
    """State selector: vacuum | fock:N | coherent:RE[,IM] | nl-coherent:RE[,IM] | file:PATH."""
    if token == "vacuum":
        return vacuum_density(dim)
    if token.startswith("fock:"):
        return fock_density(int(token[5:]), dim)
    if token.startswith("coherent:"):
        return coherent_density(_parse_complex_token(token[9:]), dim)
    if token.startswith("nl-coherent:"):
        state = nonlinear_coherent_state(_parse_complex_token(token[12:]), spec, dim)
        return state.density()
    if token.startswith("file:"):
        with open(token[5:], "r", encoding="utf-8") as fh:
            return DensityMatrix.from_dict(json.load(fh))
    raise DomainError(f"unknown state selector {token!r}")


def _threads_from_env() -> Optional[int]:
    raw = os.environ.get("FOSC_THREADS", "").strip()
    if raw == "":
        n = 0
    else:
        try:
            n = int(raw)
        except ValueError:
            raise DomainError(f"FOSC_THREADS must be an integer, got {raw!r}")
        if n < 0:
            raise DomainError("FOSC_THREADS must be >= 0")
    if n == 0:
        return min(4, os.cpu_count() or 1)
    return n


# ---------------------------------------------------------------------------
# command implementations

def _cmd_classical_trajectory(args) -> Artifact:
    spec = _build_spec(args)
    if args.steps < 1:
        raise DomainError("--steps must be >= 1")
    times = np.linspace(0.0, args.t_max, args.steps + 1)
    alpha0 = complex(args.q0, args.p0) / math.sqrt(2.0)
    alphas = amplitude_trajectory(spec, alpha0, times, args.law)
    art = Artifact(columns=["t", "q", "p", "E", "q0", "p0"], rows=[])
    e0 = 0.5 * (args.q0 ** 2 + args.p0 ** 2)
    spread = 0.0
    drift = 0.0
    for t, a in zip(times, alphas):
        q = math.sqrt(2.0) * a.real
        p = math.sqrt(2.0) * a.imag
        e = 0.5 * (q * q + p * p)
        inv = classical_invariants(spec, PhasePoint(q, p), t, args.law)
        art.rows.append((t, q, p, e, inv.q, inv.p))
        spread = max(spread, math.hypot(inv.q - args.q0, inv.p - args.p0))
        drift = max(drift, abs(e - e0))
    art.add_check("invariant_spread", spread, 1e-9)
    art.add_check("energy_drift", drift, 1e-12)
    return art


def _cmd_classical_propagate(args) -> Artifact:
    spec = _build_spec(args)
    dist = gaussian_distribution(args.center_q, args.center_p, args.sigma)
    moved = propagate_distribution(dist, spec, args.time, args.law)
    axis = _grid_axis(args)
    qq, pp = np.meshgrid(axis, axis, indexing="ij")
    vals = np.asarray(moved.density(qq, pp), dtype=float)
    art = Artifact(columns=["q", "p", "value"], rows=[])
    for i, qv in enumerate(axis):
        for j, pv in enumerate(axis):
            art.rows.append((qv, pv, vals[i, j]))
    art.add_check("norm_residual", abs(phase_space_integral(moved) - 1.0), 1e-6)
    art.add_check("min_value", float(vals.min()))
    return art


def _cmd_quantum_evolve(args) -> Artifact:
    spec = _build_spec(args)
    rho0 = _parse_state(args.state, args.dim, spec)
    rho_t = evolve_density(rho0, spec, args.time, args.form)
    m = rho_t.matrix
    art = Artifact(columns=["m", "n", "re", "im"], rows=[])
    for i in range(rho_t.dim):
        for j in range(rho_t.dim):
            art.rows.append((i, j, m[i, j].real, m[i, j].imag))
    art.json_object = rho_t.to_dict()
    q0 = expectation(rho0, heisenberg_invariant(spec, rho0.dim, 0.0, args.form))
    qt = expectation(rho_t, heisenberg_invariant(spec, rho_t.dim, args.time, args.form))
    art.add_check("trace_residual", abs(np.trace(m).real - 1.0), 1e-10)
    art.add_check("hermiticity_residual", float(np.max(np.abs(m - m.conj().T))), 1e-12)
    art.add_check("purity_drift", abs(rho_t.purity() - rho0.purity()), 1e-10)
    cut = 0.9 * (rho_t.dim - 1)
    tail = float(np.sum(np.diag(m).real[np.arange(rho_t.dim) > cut]))
    art.add_check("tail_mass", tail, 1e-8)
    art.add_check("invariant_drift", abs(qt - q0), 1e-9)
    return art


def _cmd_wigner(args) -> Artifact:
    spec = _build_spec(args)
    rho = _parse_state(args.state, args.dim, spec)
    axis = _grid_axis(args)
    if args.variant == "standard":
        grid = wigner_from_density(rho, axis, axis)
    else:
        variant = args.variant.replace("-", "_")
        grid = deformed_wigner(rho, spec, axis, axis, variant=variant,
                               pad=args.pad, workers=_threads_from_env())
    art = Artifact(columns=["q", "p", "re", "im"], rows=[])
    for i, qv in enumerate(axis):
        for j, pv in enumerate(axis):
            w = grid.values[i, j]
            art.rows.append((qv, pv, w.real, w.imag))
    art.add_check("normalization", grid.normalization())
    imag_threshold = None if args.variant == "deformed-parity" else 1e-9
    art.add_check("max_imag", grid.max_imag(), imag_threshold)
    art.add_check("min_real", grid.min_real())
    return art


def _cmd_tomogram(args) -> Artifact:
    spec = _build_spec(args)
    if args.s is not None or args.theta is not None:
        if args.s is None or args.theta is None:
            raise DomainError("--s and --theta must be given together")
        mu, nu = ray_from_scale_angle(args.s, args.theta)
    else:
        mu, nu = args.mu, args.nu
    x_axis = _x_axis(args)
    if args.source == "quantum":
        rho = _parse_state(args.state, args.dim, spec)
        sl = quantum_tomogram(rho, mu, nu, x_axis)
    else:
        dist = gaussian_distribution(args.center_q, args.center_p, args.sigma)
        if args.time != 0.0:
            dist = propagate_distribution(dist, spec, args.time, args.law)
        sl = radon_classical(dist, mu, nu, x_axis)
    art = Artifact(columns=["x", "value"], rows=[(x, v) for x, v in zip(sl.x_axis, sl.values)])
    art.add_check("norm_residual", abs(sl.norm - 1.0), 1e-6)
    art.add_check("negativity", max(0.0, -sl.min_value()), 1e-9)
    return art


def _cmd_coherent(args) -> Artifact:
    spec = _build_spec(args)
    alpha = complex(args.alpha_re, args.alpha_im)
    state = nonlinear_coherent_state(alpha, spec, args.dim)
    if args.wavefunction:
        x_axis = _x_axis(args)
        psi = position_wavefunction(state, x_axis)
        art = Artifact(columns=["x", "re", "im", "abs2"],
                       rows=[(x, v.real, v.imag, abs(v) ** 2) for x, v in zip(x_axis, psi)])
        span = math.sqrt(2.0 * state.dim + 1.0) + 4.0
        gx, gw = np.polynomial.legendre.leggauss(max(240, 4 * state.dim))
        dens = np.abs(position_wavefunction(state, span * gx)) ** 2
        art.add_check("wave_norm_residual", abs(float(np.dot(gw, dens) * span) - 1.0), 1e-6)
    else:
        art = Artifact(columns=["n", "re", "im", "abs2"],
                       rows=[(n, c.real, c.imag, abs(c) ** 2)
                             for n, c in enumerate(state.amplitudes)])
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
    art = Artifact(columns=["k", "sigma"], rows=[(k, s) for k, s in enumerate(sv)])
    art.json_object = {
        "alpha1": {"re": a1.real, "im": a1.imag},
        "alpha2": {"re": a2.real, "im": a2.imag},
        "dims": [args.dim1, args.dim2],
        "nonlinearity": spec_to_dict(spec),
        "singular_values": [float(s) for s in sv],
        "entropy": spectrum.entropy,
        "sigma2": spectrum.sigma2,
        "separable": spectrum.separable,
    }
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
    art = Artifact(columns=["beta", "Z0", "Zf", "E", "S", "F", "correction"], rows=[])
    identity_residual = 0.0
    min_entropy = math.inf
    for beta in betas:
        base = linear_thermo(float(beta))
        rep = deformed_partition(float(beta), args.g)
        art.rows.append((rep.beta, base.z, rep.z, rep.energy, rep.entropy,
                         rep.free_energy, rep.correction))
        log_zf = math.log(base.z) - beta * args.g * rep.chi_mean
        identity_residual = max(
            identity_residual,
            abs(rep.entropy - (beta * rep.energy + log_zf)),
            abs(rep.free_energy + log_zf / beta),
        )
        min_entropy = min(min_entropy, rep.entropy)
    art.add_check("identity_residual", identity_residual, 1e-10)
    art.add_check("min_entropy", min_entropy)
    return art


_DISPATCH: Dict[str, Callable] = {
    "classical-trajectory": _cmd_classical_trajectory,
    "classical-propagate": _cmd_classical_propagate,
    "quantum-evolve": _cmd_quantum_evolve,
    "wigner": _cmd_wigner,
    "tomogram": _cmd_tomogram,
    "coherent": _cmd_coherent,
    "two-mode": _cmd_two_mode,
    "thermo": _cmd_thermo,
}

_DEFAULT_FORMAT = {
    "classical-trajectory": "csv",
    "classical-propagate": "csv",
    "quantum-evolve": "json",
    "wigner": "csv",
    "tomogram": "csv",
    "coherent": "csv",
    "two-mode": "json",
    "thermo": "csv",
}


# ---------------------------------------------------------------------------
# parser construction and config overlay

def build_parser():
    parser = argparse.ArgumentParser(
        prog="fosc",
        description="Deformed (f-)oscillator toolkit: classical flows, Fock dynamics, "
                    "Wigner functions, tomograms, coherent states, thermodynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dest_map: Dict[str, set] = {}

    def common(p, fmt_default):
        p.add_argument("--output", default=None,
                       help="artifact path; '-' writes the artifact to stdout "
                            "(default: <command>.<format>)")
        p.add_argument("--format", default=fmt_default, choices=["csv", "json"])
        p.add_argument("--config", default=None,
                       help="JSON file whose entries override the flags")

    p = sub.add_parser("classical-trajectory",
                       help="sample the deformed amplitude flow and its invariants")
    _add_nonlinearity_flags(p)
    p.add_argument("--q0", type=float, default=1.0)
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--law", default="amplitude", choices=["amplitude", "canonical"])
    common(p, _DEFAULT_FORMAT["classical-trajectory"])
    dest_map["classical-trajectory"] = {a.dest for a in p._actions}

    p = sub.add_parser("classical-propagate",
                       help="transport a gaussian phase-space density along the flow")
    _add_nonlinearity_flags(p)
    p.add_argument("--center-q", type=float, default=1.0)
    p.add_argument("--center-p", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--law", default="amplitude", choices=["amplitude", "canonical"])
    _add_grid_flags(p, extent=4.0, points=41)
    common(p, _DEFAULT_FORMAT["classical-propagate"])
    dest_map["classical-propagate"] = {a.dest for a in p._actions}

    p = sub.add_parser("quantum-evolve",
                       help="evolve a truncated density matrix under a deformed hamiltonian")
    _add_nonlinearity_flags(p)
    p.add_argument("--state", default="vacuum")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--form", default="symmetric",
                   choices=["symmetric", "normal", "normal_half", "kerr"])
    common(p, _DEFAULT_FORMAT["quantum-evolve"])
    dest_map["quantum-evolve"] = {a.dest for a in p._actions}

    p = sub.add_parser("wigner", help="Wigner function on a phase-space grid")
    _add_nonlinearity_flags(p)
    p.add_argument("--state", default="vacuum")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--variant", default="standard",
                   choices=["standard", "usual-parity", "deformed-parity"])
    p.add_argument("--pad", type=int, default=10,
                   help="extra levels for the deformed exponential")
    _add_grid_flags(p, extent=3.0, points=41)
    common(p, _DEFAULT_FORMAT["wigner"])
    dest_map["wigner"] = {a.dest for a in p._actions}

    p = sub.add_parser("tomogram", help="symplectic tomogram along one ray")
    _add_nonlinearity_flags(p)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--s", type=float, default=None,
                   help="ray scale; alternative to --mu/--nu, with --theta")
    p.add_argument("--theta", type=float, default=None,
                   help="ray angle; alternative to --mu/--nu, with --s")
    p.add_argument("--source", default="quantum", choices=["quantum", "classical"])
    p.add_argument("--state", default="vacuum")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--center-q", type=float, default=0.0)
    p.add_argument("--center-p", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--time", type=float, default=0.0)
    p.add_argument("--law", default="amplitude", choices=["amplitude", "canonical"])
    _add_x_flags(p)
    common(p, _DEFAULT_FORMAT["tomogram"])
    dest_map["tomogram"] = {a.dest for a in p._actions}

    p = sub.add_parser("coherent",
                       help="deformed coherent state amplitudes or position wavefunction")
    _add_nonlinearity_flags(p)
    p.add_argument("--alpha-re", type=float, default=1.0)
    p.add_argument("--alpha-im", type=float, default=0.0)
    p.add_argument("--dim", type=int, default=40)
    p.add_argument("--wavefunction", action="store_true",
                   help="emit psi(x) on an x grid instead of the amplitude table")
    _add_x_flags(p)
    common(p, _DEFAULT_FORMAT["coherent"])
    dest_map["coherent"] = {a.dest for a in p._actions}

    p = sub.add_parser("two-mode",
                       help="two-mode deformed coherent state and its Schmidt spectrum")
    _add_nonlinearity_flags(p)
    p.add_argument("--alpha1-re", type=float, default=1.0)
    p.add_argument("--alpha1-im", type=float, default=0.0)
    p.add_argument("--alpha2-re", type=float, default=1.0)
    p.add_argument("--alpha2-im", type=float, default=0.0)
    p.add_argument("--dim1", type=int, default=40)
    p.add_argument("--dim2", type=int, default=40)
    common(p, _DEFAULT_FORMAT["two-mode"])
    dest_map["two-mode"] = {a.dest for a in p._actions}

    p = sub.add_parser("thermo",
                       help="partition function and first-order deformed corrections")
    p.add_argument("--beta-min", type=float, default=0.5)
    p.add_argument("--beta-max", type=float, default=2.0)
    p.add_argument("--beta-steps", type=int, default=16)
    p.add_argument("--g", type=float, default=0.0,
                   help="first-order coupling of the level weight n^2")
    common(p, _DEFAULT_FORMAT["thermo"])
    dest_map["thermo"] = {a.dest for a in p._actions}

    return parser, dest_map


def _apply_config(args, dest_map):
    """Overlay --config JSON onto parsed flags; unknown keys are rejected."""
    if not getattr(args, "config", None):
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise DomainError("config must be a JSON object")
    allowed = dest_map[args.command]
    for key, value in data.items():
        if key == "nonlinearity":
            if not isinstance(value, dict):
                raise DomainError("config nonlinearity must be an object")
            spec = spec_from_dict(value)  # validates
            args.kind = spec.kind
            args.lam = value.get("lambda", None)
            args.chi = value.get("chi", None)
            table = value.get("table", None)
            args.table = ",".join(str(v) for v in table) if table else None
            continue
        dest = key.replace("-", "_")
        if dest in ("command", "config") or dest not in allowed:
            raise DomainError(f"unknown config field {key!r} for {args.command}")
        setattr(args, dest, value)


def _resolved_parameters(args) -> dict:
    skip = {"command", "output", "format", "config"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def _write_outputs(args, art: Artifact) -> str:
    text = _render_csv(art) if args.format == "csv" else _render_json(art)
    status = "ok" if not art.breaches() else "tolerance-breach"
    sidecar = json.dumps(
        {
            "command": args.command,
            "parameters": _resolved_parameters(args),
            "checks": art.checks,
            "status": status,
        },
        sort_keys=True,
        indent=2,
    ) + "\n"
    output = args.output or f"{args.command}.{args.format}"
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
    parser, dest_map = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, dest_map)
        artifact = _DISPATCH[args.command](args)
    except NumericToleranceError as exc:
        print(f"numeric tolerance failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        status = _write_outputs(args, artifact)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if status != "ok":
        breached = ", ".join(artifact.breaches())
        print(f"numeric tolerance failure: {breached}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
