"""Op bodies of the foscillator benchmark: the code that is timed.

This is the only benchmark module the process that runs the ops loads
(``worker.py``), so it imports nothing foscillator does not load itself:
numpy and the standard library.  Every library call goes through the
package namespace, so a tracer that rebinds ``foscillator.<name>`` sees it.
"""

from __future__ import annotations

import importlib
import math
import os
import time

import numpy as np

WIGNER_EXTENT = 8.0
WIGNER_POINTS = 81
DEFORMED_EXTENT = 3.0
DEFORMED_POINTS = 21
DEFORMED_DIM = 30
DEFORMED_PAD = 10
SLICE_POINTS = 401


def _spec(F, profile):
    kind, value = profile
    return F.kerr(value) if kind == "kerr" else F.q_oscillator(value)


def _build_state(F, state: dict, dim: int):
    if state["kind"] == "coherent":
        return F.coherent_density(complex(*state["alpha"]), dim)
    if state["kind"] == "fock":
        return F.fock_density(state["n"], dim)
    return F.nonlinear_coherent_state(complex(*state["alpha"]), _spec(F, state["profile"]), dim).density()


def axis(extent: float, points: int) -> np.ndarray:
    return np.linspace(-extent, extent, points)


def _slice_axis(mu: float, nu: float, half_width: float) -> np.ndarray:
    return np.linspace(-half_width, half_width, SLICE_POINTS) * math.hypot(mu, nu)


def _workers(op: dict):
    return min(4, os.cpu_count() or 1) if op["threaded"] else None


def run_op(F, op: dict):
    """Run one op; returns what the op's oracle needs.  A ``cli`` op runs
    ``fosc`` with ``op['argv']`` in this interpreter and returns its exit code."""
    kind = op["kind"]
    if kind == "cli":
        return importlib.import_module(F.__name__ + ".cli").main(op["argv"])
    if kind == "wigner_std":
        rho = _build_state(F, op["state"], op["dim"])
        grid = axis(WIGNER_EXTENT, WIGNER_POINTS)
        return rho.matrix, F.wigner_from_density(rho, grid, grid).values
    if kind == "wigner_deformed":
        rho = _build_state(F, op["state"], op["dim"])
        grid = axis(DEFORMED_EXTENT, DEFORMED_POINTS)
        values = F.deformed_wigner(rho, _spec(F, op["profile"]), grid, grid, variant=op["variant"],
                                   pad=DEFORMED_PAD, workers=_workers(op)).values
        return rho.matrix, values
    if kind == "evolve":
        spec = _spec(F, op["profile"])
        rho0 = _build_state(F, op["state"], op["dim"])
        q0 = F.heisenberg_invariant(spec, op["dim"], 0.0)
        steps = [(F.evolve_density(rho0, spec, t).matrix, F.heisenberg_invariant(spec, op["dim"], t))
                 for t in op["times"]]
        return rho0.matrix, q0, steps
    if kind == "tomogram":
        rho = _build_state(F, op["state"], op["dim"])
        mu, nu = op["ray"]
        sl = F.quantum_tomogram(rho, mu, nu, _slice_axis(mu, nu, math.sqrt(2.0 * op["dim"] + 1.0) + 4.0))
        return sl.x_axis, sl.values, sl.norm
    if kind == "coherent":
        spec = _spec(F, op["profile"])
        single = F.nonlinear_coherent_state(complex(*op["alpha"]), spec, op["dim"])
        a1, a2 = (complex(*a) for a in op["alpha2"])
        pair = F.two_mode_coherent_state(a1, a2, spec, tuple(op["dims"]))
        spectrum = F.schmidt_spectrum(pair)
        return single.amplitudes, pair.coefficients, spectrum.singular_values, spectrum.entropy
    if kind == "thermo_linear":
        return F.linear_thermo(op["beta"])
    if kind == "thermo_deformed":
        return F.deformed_partition(op["beta"], op["g"])
    if kind == "classical":
        qc, pc = op["center"]
        dist = F.gaussian_distribution(qc, pc, op["sigma"])
        moved = F.propagate_distribution(dist, _spec(F, op["profile"]), op["time"])
        mu, nu = op["ray"]
        sl = F.radon_classical(moved, mu, nu, _slice_axis(mu, nu, math.hypot(qc, pc) + 6.0 * op["sigma"]))
        return sl.x_axis, sl.values, sl.norm
    raise ValueError(f"unknown op kind {kind!r}")


def declared_errors(F) -> tuple:
    """The exception classes ``foscillator.errors`` declares."""
    errors = importlib.import_module(F.__name__ + ".errors")
    return tuple(v for v in vars(errors).values()
                 if isinstance(v, type) and issubclass(v, Exception) and v.__module__ == errors.__name__)


def _direct(call):
    return call()


def attempt(F, op: dict, declared: tuple, wrap=None):
    """Time one op, called through ``wrap`` if given.

    Returns ``(seconds, status, payload)``: ``ok`` with the op's output,
    ``refused`` when it raised a declared error, ``crash`` on any other
    exception; the payload of the last two is a one-line reason.
    """
    start = time.perf_counter()
    try:
        out = (wrap or _direct)(lambda: run_op(F, op))
    except declared as exc:
        return time.perf_counter() - start, "refused", f"{op['kind']} {type(exc).__name__}"
    except Exception as exc:  # a crash is reported, not fatal to the run
        return time.perf_counter() - start, "crash", f"{op['kind']} {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, "ok", out
