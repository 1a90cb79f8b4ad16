"""Oracles of the foscillator benchmark: is an op's output right?

``check_op`` compares an op's output against references built here from
numpy and scipy alone, never from foscillator, and raises ``OracleMiss`` on
a mismatch.  ``CliOracle`` checks what a ``fosc`` command wrote.  Checks run
in the process that drives the load, after the op has been timed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import expm
from scipy.special import eval_hermite, eval_laguerre, gammainc, gammaln

import ops


class OracleMiss(Exception):
    """An op's output disagrees with the benchmark's reference."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise OracleMiss(what)


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class CliOracle:
    """A README command must exit 0 with sidecar status ``ok``, and write the
    same bytes every time it is repeated within a run."""

    def __init__(self):
        self._first = {}

    def check(self, command: str, code: int, artifact, sidecar) -> None:
        _require(code == 0, f"{command} exited {code}")
        _require(artifact is not None and sidecar is not None, f"{command} wrote no artifact")
        _require(json.loads(sidecar).get("status") == "ok", f"{command} sidecar status is not ok")
        first = self._first.setdefault(command, (artifact, sidecar))
        _require(first == (artifact, sidecar), f"{command} artifact differs from its first run")


def _f_levels(profile, n: np.ndarray) -> np.ndarray:
    """f(n) of the kerr and q profiles, written out independently."""
    kind, value = profile
    n = np.asarray(n, dtype=float)
    if kind == "kerr":
        return np.sqrt(1.0 - value + value * n)
    x = value * n
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, np.sqrt(np.sinh(safe) / safe), 1.0)


def _coherent_weights(alpha: complex, profile, dim: int) -> np.ndarray:
    """c_n ~ alpha^n / (sqrt(n!) f(0)...f(n)), normalized."""
    n = np.arange(dim, dtype=float)
    if alpha == 0:
        c = np.zeros(dim, dtype=complex)
        c[0] = 1.0
        return c
    log_f = np.cumsum(np.log(_f_levels(profile, n)))
    logmag = n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1.0) - log_f
    c = np.exp(logmag - logmag.max()) * np.exp(1j * n * np.angle(alpha))
    return c / np.linalg.norm(c)


def _truncation_slack(alpha: complex, dim: int) -> float:
    """Bound on what truncating a coherent state to ``dim`` levels changes.

    The dropped Poisson tail P(N >= dim) = gammainc(dim, |alpha|^2) puts the
    renormalized state within trace distance sqrt(tail) of the exact one, so
    |W| moves by at most 4 sqrt(tail); the same slack covers tomogram values.
    """
    return 4.0 * math.sqrt(float(gammainc(dim, abs(alpha) ** 2)))


def _check_wigner_std(op, out) -> None:
    rho, w = out
    _require(bool(np.all(np.isfinite(w))), "non-finite Wigner value")
    _require(float(np.max(np.abs(w.imag))) <= 1e-9, "standard Wigner of a hermitian state is not real")
    _require(float(np.max(np.abs(w))) <= 2.0 + 1e-9, "|W| exceeds 2")
    axis = ops.axis(ops.WIGNER_EXTENT, ops.WIGNER_POINTS)
    qq, pp = np.meshgrid(axis, axis, indexing="ij")
    norm = np.trapezoid(np.trapezoid(w.real, axis, axis=1), axis) / (2.0 * math.pi)
    _require(abs(norm - 1.0) <= 1e-6, f"Wigner normalization {norm!r}")
    # the origin is a grid point: W(0, 0) = 2 Tr[P rho]
    parity = 2.0 * float(np.sum(np.where(np.arange(rho.shape[0]) % 2, -1.0, 1.0) * np.diag(rho).real))
    _require(abs(w[ops.WIGNER_POINTS // 2, ops.WIGNER_POINTS // 2].real - parity) <= 1e-9, "W(0, 0) != 2 <P>")
    state = op["state"]
    if state["kind"] == "coherent":
        alpha0 = complex(*state["alpha"])
        ref = 2.0 * np.exp(-2.0 * np.abs((qq + 1j * pp) / math.sqrt(2.0) - alpha0) ** 2)
        tol = 1e-9 + _truncation_slack(alpha0, op["dim"])
        _require(_max_abs(w.real, ref) <= tol, "coherent Wigner misses 2 exp(-2|a - a0|^2)")
    elif state["kind"] == "fock":
        n, s = state["n"], qq * qq + pp * pp
        ref = 2.0 * (-1.0) ** n * np.exp(-s) * eval_laguerre(n, 2.0 * s)
        _require(_max_abs(w.real, ref) <= 1e-9, "Fock Wigner misses the Laguerre closed form")


def _check_wigner_deformed(op, out) -> None:
    rho, w = out
    _require(bool(np.all(np.isfinite(w))), "non-finite deformed Wigner value")
    _require(float(np.max(np.abs(w))) <= 2.0 + 1e-9, "|W| exceeds 2")
    if op["variant"] == "usual_parity":
        _require(float(np.max(np.abs(w.imag))) <= 1e-9, "usual-parity Wigner is not real")
    # one grid point recomputed from its definition: 2 Tr[P rho U_f(alpha)]
    dim, big = op["dim"], op["dim"] + ops.DEFORMED_PAD
    n = np.arange(1, big, dtype=float)
    a_f = np.diag(np.sqrt(n) * _f_levels(op["profile"], n), k=1)
    i, j = op["check_index"]
    axis = ops.axis(ops.DEFORMED_EXTENT, ops.DEFORMED_POINTS)
    alpha = (axis[i] + 1j * axis[j]) / math.sqrt(2.0)
    u = expm(2.0 * (alpha * a_f.T - np.conjugate(alpha) * a_f))[:dim, :dim]
    levels = np.arange(dim, dtype=float)
    if op["variant"] == "usual_parity":
        parity = np.where(levels % 2, -1.0, 1.0)
    else:
        parity = np.exp(1j * math.pi * levels * _f_levels(op["profile"], levels) ** 2)
    ref = 2.0 * np.sum(parity * np.diag(rho @ u))
    _require(abs(w[i, j] - ref) <= 1e-9, f"deformed Wigner at grid point {i},{j} misses its definition")


def _check_evolve(op, out) -> None:
    rho0, q0, steps = out
    start = np.trace(rho0 @ q0)
    for rho_t, q_t in steps:
        _require(_max_abs(np.diag(rho_t), np.diag(rho0)) <= 1e-14, "evolution moved populations")
        _require(_max_abs(np.abs(rho_t), np.abs(rho0)) <= 1e-14, "evolution changed coherence moduli")
        drift = abs(np.trace(rho_t @ q_t) - start)
        _require(drift < 1e-9, f"Heisenberg invariant drifted by {drift:.3e}")


def _check_slice(x, values, norm) -> None:
    _require(bool(np.all(np.isfinite(values))), "non-finite tomogram value")
    _require(abs(norm - 1.0) <= 1e-6, f"tomogram norm {norm!r}")
    _require(float(np.min(values)) >= -1e-9, "negative tomogram value")
    area = float(np.trapezoid(values, x))
    _require(abs(area - 1.0) <= 1e-6, f"tomogram area on the slice axis {area!r}")


def _check_tomogram(op, out) -> None:
    x, values, norm = out
    _check_slice(x, values, norm)
    mu, nu = op["ray"]
    r = math.hypot(mu, nu)
    state = op["state"]
    if state["kind"] == "coherent":
        # X = mu q + nu p of a coherent state is normal with mean <X>, variance r^2/2
        alpha0 = complex(*state["alpha"])
        mean = math.sqrt(2.0) * (mu * alpha0.real + nu * alpha0.imag)
        ref = np.exp(-((x - mean) / r) ** 2) / (r * math.sqrt(math.pi))
        tol = 1e-8 + _truncation_slack(alpha0, op["dim"]) / r
        _require(_max_abs(values, ref) <= tol, "coherent tomogram misses its Gaussian closed form")
    elif state["kind"] == "fock":
        n, y = state["n"], x / r
        ref = eval_hermite(n, y) ** 2 * np.exp(-y * y) / (2.0 ** n * math.factorial(n) * math.sqrt(math.pi) * r)
        _require(_max_abs(values, ref) <= 1e-8, "Fock tomogram misses its Hermite closed form")


def _check_coherent(op, out) -> None:
    amps, coeff, sv, entropy = out
    ref = _coherent_weights(complex(*op["alpha"]), op["profile"], op["dim"])
    _require(_max_abs(amps, ref) <= 1e-12, "deformed coherent amplitudes miss alpha^n / (sqrt(n!) F(n))")
    (a1, a2), (d1, d2) = (complex(*a) for a in op["alpha2"]), op["dims"]
    n1 = np.arange(d1, dtype=float)[:, None]
    n2 = np.arange(d2, dtype=float)[None, :]
    log_f = np.cumsum(np.log(_f_levels(op["profile"], np.arange(d1 + d2 - 1))))
    logmag = (n1 * math.log(abs(a1)) + n2 * math.log(abs(a2)) - 0.5 * gammaln(n1 + 1.0)
              - 0.5 * gammaln(n2 + 1.0) - log_f[(n1 + n2).astype(int)])
    ref2 = np.exp(logmag - logmag.max()) * np.exp(1j * (n1 * np.angle(a1) + n2 * np.angle(a2)))
    ref2 /= np.linalg.norm(ref2)
    _require(_max_abs(coeff, ref2) <= 1e-12, "two-mode coefficients miss their closed form")
    ref_sv = np.linalg.svd(ref2, compute_uv=False)
    _require(_max_abs(sv, ref_sv) <= 1e-10, "Schmidt spectrum misses the SVD of the coefficients")
    _require(abs(float(np.sum(sv * sv)) - 1.0) <= 1e-10, "Schmidt weights do not sum to 1")
    p = ref_sv[ref_sv > 1e-150] ** 2
    _require(abs(entropy + float(np.sum(p * np.log(p)))) <= 1e-10, "entanglement entropy")


def _close(a: float, b: float, what: str) -> None:
    _require(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12), f"{what}: {a!r} vs closed form {b!r}")


def _thermo_closed(beta: float):
    """Z, E, <n^2>, <n^3> of the harmonic ladder, x = e^-beta."""
    x, one_minus_x = math.exp(-beta), -math.expm1(-beta)
    z = 1.0 / (2.0 * math.sinh(0.5 * beta))
    energy = 0.5 / math.tanh(0.5 * beta)
    n2 = x * (1.0 + x) / one_minus_x ** 2
    n3 = x * (1.0 + 4.0 * x + x * x) / one_minus_x ** 3
    return z, energy, n2, n3


def _check_thermo_linear(op, rep) -> None:
    beta = op["beta"]
    z, energy, _, _ = _thermo_closed(beta)
    _close(rep.z, z, "Z")
    _close(rep.energy, energy, "E")
    _close(rep.entropy, beta * energy + math.log(z), "S")
    _close(rep.free_energy, -math.log(z) / beta, "F")


def _check_thermo_deformed(op, rep) -> None:
    beta, g = op["beta"], op["g"]
    z0, e0, n2, n3 = _thermo_closed(beta)
    h_chi = n3 + 0.5 * n2
    energy = e0 + g * (n2 + beta * (e0 * n2 - h_chi))
    log_z = math.log(z0) - beta * g * n2
    _close(rep.z0, z0, "Z0")
    _close(rep.chi_mean, n2, "<n^2>")
    _close(rep.z, z0 * (1.0 - beta * g * n2), "Z_f")
    _close(rep.energy, energy, "E_f")
    _close(rep.entropy, beta * energy + log_z, "S_f")
    _close(rep.free_energy, -log_z / beta, "F_f")


def _check_classical(op, out) -> None:
    x, values, norm = out
    _check_slice(x, values, norm)
    if op["center"] == [0.0, 0.0]:
        # a centered isotropic Gaussian is invariant under the energy-dependent rotation
        sr = op["sigma"] * math.hypot(*op["ray"])
        ref = np.exp(-0.5 * (x / sr) ** 2) / (math.sqrt(2.0 * math.pi) * sr)
        _require(_max_abs(values, ref) <= 1e-9, "centered Gaussian tomogram misses its closed form")


_ORACLES = {
    "wigner_std": _check_wigner_std,
    "wigner_deformed": _check_wigner_deformed,
    "evolve": _check_evolve,
    "tomogram": _check_tomogram,
    "coherent": _check_coherent,
    "thermo_linear": _check_thermo_linear,
    "thermo_deformed": _check_thermo_deformed,
    "classical": _check_classical,
}


def check_op(op: dict, out) -> None:
    """Raise ``OracleMiss`` unless ``out`` is the right answer for ``op``."""
    _ORACLES[op["kind"]](op, out)
