"""The package surface: what ``foscillator.__all__`` promises can be imported,
what its modules may raise, what they cache for the whole process, and the
README's Python examples."""

import ast
import importlib
import inspect
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import foscillator
from foscillator import (DegenerateRayError, DomainError, custom, errors, identity, kerr,
                         nonlinearity, q_oscillator)


def test_exported_names_are_unique_and_star_importable():
    names = foscillator.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from foscillator import *", namespace)
    assert set(names) <= set(namespace)


def test_every_public_name_is_exported():
    # __all__ is read off the imports; a public name bound after it would be
    # missing from star imports
    public = {name for name, value in vars(foscillator).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(foscillator.__all__)


# The two raises of another class, each turned into one ``error:`` line by
# ``cli``: argparse reports the first as a bad flag value, and ``_parse_state``
# catches the second to name the accepted state forms.  The finiteness half
# of the real rule raises the class its caller passes for a non-finite value:
# DomainError, or DegenerateRayError for the rays of ``tomography``.
_OTHER_RAISES = {("cli", "_finite_float", "ArgumentTypeError"),
                 ("cli", "_parse_state", "ValueError"), ("errors", "_finite", "error")}


def _name(node):
    """The class name in ``X``, ``X(...)`` or ``module.X``."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _raises(tree):
    """(enclosing function, raised class name) for each ``raise`` in ``tree``;
    a bare ``raise`` re-raises the class its ``except`` clause caught."""
    def visit(node, function, caught):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler):
            caught = _name(node.type)
        if isinstance(node, ast.Raise):
            yield function, caught if node.exc is None else _name(node.exc)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function, caught)
    return visit(tree, None, None)


def test_modules_raise_only_the_package_errors():
    # the exit contract: every refusal is a foscillator.errors class, which
    # cli turns into exit 2 or 3 with one line
    typed = {name for name, value in vars(errors).items()
             if inspect.isclass(value) and issubclass(value, Exception)}
    found = set()
    for path in sorted(Path(foscillator.__file__).parent.glob("*.py")):
        for function, name in _raises(ast.parse(path.read_text(encoding="utf-8"))):
            if name not in typed:
                found.add((path.stem, function, name))
    assert found == _OTHER_RAISES


# Every size argument of a public function or of require_positive (a
# parameter named dim, dims, n, n_max or pad): a call that takes the size, a
# valid value, and the least value accepted.  A pair of dims is tried one
# entry at a time.
_SIZE_NAMES = {"dim", "dims", "n", "n_max", "pad"}
_SIZE_CALLS = {
    ("coherent_density", "dim"): (lambda d: foscillator.coherent_density(0.3, d), 20, 2),
    ("commutator_defect", "dim"): (foscillator.commutator_defect, 4, 2),
    ("deformed_lowering", "dim"): (lambda d: foscillator.deformed_lowering(kerr(0.1), d), 4, 2),
    ("deformed_parity_operator", "dim"):
        (lambda d: foscillator.deformed_parity_operator(kerr(0.1), d), 4, 2),
    ("deformed_wigner", "pad"): (lambda pad: foscillator.deformed_wigner(
        foscillator.vacuum_density(4), kerr(0.1), [0.0], [0.0], pad=pad), 3, 0),
    ("deformed_wigner_values", "pad"): (lambda pad: foscillator.deformed_wigner_values(
        foscillator.vacuum_density(4), kerr(0.1), 0.0, 0.0, pad=pad), 3, 0),
    ("f_factorial", "n"): (lambda n: foscillator.f_factorial(kerr(0.1), n), 4, 0),
    # dim 1 passes the level's range and is refused as a density matrix
    ("fock_density", "dim"): (lambda d: foscillator.fock_density(0, d), 8, 2),
    ("fock_density", "n"): (lambda n: foscillator.fock_density(n, 8), 3, 0),
    ("fock_tomogram_closed", "n"):
        (lambda n: foscillator.fock_tomogram_closed(n, 1.0, 0.0, np.zeros(3)), 3, 0),
    ("hamiltonian_diagonal", "dim"):
        (lambda d: foscillator.hamiltonian_diagonal(kerr(0.1), d), 4, 2),
    ("heisenberg_invariant", "dim"):
        (lambda d: foscillator.heisenberg_invariant(kerr(0.1), d, 1.0), 4, 2),
    ("hermite_functions", "n_max"): (lambda n: foscillator.hermite_functions(n, np.zeros(3)), 4, 0),
    ("log_f_factorial", "n_max"): (lambda n: foscillator.log_f_factorial(kerr(0.1), n), 4, 0),
    ("lowering_operator", "dim"): (foscillator.lowering_operator, 4, 2),
    ("nonlinear_coherent_state", "dim"):
        (lambda d: foscillator.nonlinear_coherent_state(0.3, kerr(0.1), d), 20, 2),
    ("require_positive", "n_max"): (lambda n: nonlinearity.require_positive(kerr(0.1), n), 4, 0),
    ("two_mode_coherent_state", "dims"):
        (lambda d: foscillator.two_mode_coherent_state(0.2, 0.2, identity(), (d, 20)), 20, 2),
    ("vacuum_density", "dim"): (foscillator.vacuum_density, 4, 2),
    # a level or an energy on a continuous axis, not a count: eval_f takes 2.5
    ("eval_f", "n"): None,
}


def test_every_size_argument_has_a_valid_call():
    functions = {name: getattr(foscillator, name) for name in foscillator.__all__}
    functions["require_positive"] = nonlinearity.require_positive
    found = {(name, param) for name, function in functions.items() if inspect.isfunction(function)
             for param in inspect.signature(function).parameters if param in _SIZE_NAMES}
    assert found == set(_SIZE_CALLS)


@pytest.mark.parametrize("name, param", sorted(key for key, call in _SIZE_CALLS.items() if call))
def test_sizes_are_integers_by_one_rule(name, param):
    # 2.5 and True were truncated or passed to numpy, which raised its own
    # TypeError or ValueError or ran on
    call, valid, minimum = _SIZE_CALLS[name, param]
    call(np.int64(valid))
    for bad in (2.5, float(valid), True, np.True_, minimum - 1):
        with pytest.raises(DomainError):
            call(bad)


# Every numeric argument of a public function or of a public container that
# checks its fields (PhaseSpaceDistribution, DensityMatrix and the coherent
# states in _CONTAINERS; a parameter named in _NUMERIC_NAMES or annotated with
# float, complex or ndarray, and a size name that the size rule leaves to a
# continuous axis) is a real one, in _REAL_CALLS: the calls that put a value
# in it, each with valid values in its other arguments; or a complex array,
# in _COMPLEX_ARRAYS.
_NUMERIC_NAMES = {"alpha", "alpha0", "alpha1", "alpha2", "amplitudes", "beta", "center_p",
                  "center_q", "chi", "coefficients", "energy", "g", "lam", "matrix", "mu", "nu",
                  "op", "p", "p_axis", "point", "q", "q_axis", "sigma", "support_radius", "t",
                  "table", "times", "x", "x_axis"}
_CONTAINERS = ("PhaseSpaceDistribution", "DensityMatrix", "CoherentStateVector", "TwoModeState")
_AXIS = np.linspace(-4.0, 4.0, 3)


def _with_entry(v):
    return [-4.0, 4.0, v]


def _state():
    return foscillator.nonlinear_coherent_state(0.3, kerr(0.1), 20)


def _blob():
    return foscillator.gaussian_distribution(0.5, 0.0, 0.5)


_REAL_CALLS = {
    ("amplitude_trajectory", "alpha0"):
        [lambda v: foscillator.amplitude_trajectory(kerr(0.1), v, [1.0])],
    ("amplitude_trajectory", "times"):
        [lambda v: foscillator.amplitude_trajectory(kerr(0.1), 0.5, _with_entry(v))],
    ("chi_expectation", "beta"): [foscillator.chi_expectation],
    ("CoherentStateVector", "alpha"):
        [lambda v: foscillator.CoherentStateVector(v, kerr(0.1), [1.0, 0.0])],
    ("classical_invariants", "point"): [
        lambda v: foscillator.classical_invariants(kerr(0.1), foscillator.PhasePoint(v, 0.5), 1.0),
        lambda v: foscillator.classical_invariants(kerr(0.1), foscillator.PhasePoint(0.5, v), 1.0)],
    ("classical_invariants", "t"):
        [lambda v: foscillator.classical_invariants(kerr(0.1), foscillator.PhasePoint(0.5, 0.5),
                                                    v)],
    ("classical_tomogram_evolved", "mu"):
        [lambda v: foscillator.classical_tomogram_evolved(_blob(), kerr(0.1), 1.0, v, 0.5, [0.0])],
    ("classical_tomogram_evolved", "nu"):
        [lambda v: foscillator.classical_tomogram_evolved(_blob(), kerr(0.1), 1.0, 0.5, v, [0.0])],
    ("classical_tomogram_evolved", "t"):
        [lambda v: foscillator.classical_tomogram_evolved(_blob(), kerr(0.1), v, 1.0, 0.5, [0.0])],
    ("classical_tomogram_evolved", "x_axis"): [lambda v: foscillator.classical_tomogram_evolved(
        _blob(), kerr(0.1), 1.0, 1.0, 0.5, _with_entry(v))],
    ("coherent_density", "alpha"): [lambda v: foscillator.coherent_density(v, 20)],
    ("custom", "table"): [lambda v: custom([1.0, v])],
    ("deformed_partition", "beta"): [lambda v: foscillator.deformed_partition(v, 1e-3)],
    ("deformed_partition", "g"): [lambda v: foscillator.deformed_partition(1.0, v)],
    ("deformed_wigner", "p_axis"): [lambda v: foscillator.deformed_wigner(
        foscillator.vacuum_density(4), kerr(0.1), _AXIS, _with_entry(v))],
    ("deformed_wigner", "q_axis"): [lambda v: foscillator.deformed_wigner(
        foscillator.vacuum_density(4), kerr(0.1), _with_entry(v), _AXIS)],
    ("deformed_wigner_values", "p"): [lambda v: foscillator.deformed_wigner_values(
        foscillator.vacuum_density(4), kerr(0.1), 0.5, v)],
    ("deformed_wigner_values", "q"): [lambda v: foscillator.deformed_wigner_values(
        foscillator.vacuum_density(4), kerr(0.1), v, 0.5)],
    ("eval_f", "n"): [lambda v: foscillator.eval_f(identity(), v),
                      lambda v: foscillator.eval_f(identity(), [0.5, v])],
    ("evolve_amplitude", "alpha0"): [lambda v: foscillator.evolve_amplitude(kerr(0.1), v, 1.0)],
    ("evolve_amplitude", "t"): [lambda v: foscillator.evolve_amplitude(kerr(0.1), 0.5, v)],
    ("evolve_density", "t"):
        [lambda v: foscillator.evolve_density(foscillator.vacuum_density(4), kerr(0.1), v)],
    ("exact_deformed_report", "beta"): [lambda v: foscillator.exact_deformed_report(v, 1e-3)],
    ("exact_deformed_report", "g"): [lambda v: foscillator.exact_deformed_report(1.0, v)],
    ("frequency", "energy"): [lambda v: foscillator.frequency(identity(), v),
                              lambda v: foscillator.frequency(identity(), [0.5, v])],
    ("fock_tomogram_closed", "mu"): [lambda v: foscillator.fock_tomogram_closed(1, v, 0.5, 0.0)],
    ("fock_tomogram_closed", "nu"): [lambda v: foscillator.fock_tomogram_closed(1, 0.5, v, 0.0)],
    ("fock_tomogram_closed", "x"):
        [lambda v: foscillator.fock_tomogram_closed(1, 1.0, 0.5, v),
         lambda v: foscillator.fock_tomogram_closed(1, 1.0, 0.5, _with_entry(v))],
    ("gaussian_distribution", "center_p"): [lambda v: foscillator.gaussian_distribution(0.5, v)],
    ("gaussian_distribution", "center_q"): [lambda v: foscillator.gaussian_distribution(v, 0.5)],
    ("gaussian_distribution", "sigma"): [lambda v: foscillator.gaussian_distribution(0.0, 0.0, v)],
    ("gaussian_distribution", "support_radius"):
        [lambda v: foscillator.gaussian_distribution(0.0, 0.0, 0.5, support_radius=v)],
    ("hermite_functions", "x"): [lambda v: foscillator.hermite_functions(3, v),
                                 lambda v: foscillator.hermite_functions(3, _with_entry(v))],
    ("heisenberg_invariant", "t"): [lambda v: foscillator.heisenberg_invariant(kerr(0.1), 4, v)],
    ("kerr", "chi"): [kerr],
    ("linear_thermo", "beta"): [foscillator.linear_thermo],
    ("mean_energy", "beta"): [foscillator.mean_energy],
    ("nonlinear_coherent_state", "alpha"):
        [lambda v: foscillator.nonlinear_coherent_state(v, kerr(0.1), 20)],
    ("occupation", "beta"): [foscillator.occupation],
    ("occupation_second_moment", "beta"): [foscillator.occupation_second_moment],
    ("partition_closed", "beta"): [foscillator.partition_closed],
    ("PhaseSpaceDistribution", "support_radius"):
        [lambda v: foscillator.PhaseSpaceDistribution(lambda q, p: 0.0 * q, v)],
    ("position_wavefunction", "x"):
        [lambda v: foscillator.position_wavefunction(_state(), v),
         lambda v: foscillator.position_wavefunction(_state(), _with_entry(v))],
    ("propagate_distribution", "t"):
        [lambda v: foscillator.propagate_distribution(_blob(), kerr(0.1), v)],
    ("q_oscillator", "lam"): [q_oscillator],
    ("quantum_tomogram", "mu"):
        [lambda v: foscillator.quantum_tomogram(foscillator.vacuum_density(4), v, 0.5, [0.0])],
    ("quantum_tomogram", "nu"):
        [lambda v: foscillator.quantum_tomogram(foscillator.vacuum_density(4), 0.5, v, [0.0])],
    ("quantum_tomogram", "x_axis"): [lambda v: foscillator.quantum_tomogram(
        foscillator.vacuum_density(4), 1.0, 0.5, _with_entry(v))],
    ("radon_classical", "mu"): [lambda v: foscillator.radon_classical(_blob(), v, 0.5, [0.0])],
    ("radon_classical", "nu"): [lambda v: foscillator.radon_classical(_blob(), 0.5, v, [0.0])],
    ("radon_classical", "x_axis"):
        [lambda v: foscillator.radon_classical(_blob(), 1.0, 0.5, _with_entry(v))],
    ("thermal_series", "beta"): [foscillator.thermal_series],
    ("TwoModeState", "alpha1"):
        [lambda v: foscillator.TwoModeState(v, 0.2, kerr(0.1), [[1.0, 0.0], [0.0, 0.0]])],
    ("TwoModeState", "alpha2"):
        [lambda v: foscillator.TwoModeState(0.2, v, kerr(0.1), [[1.0, 0.0], [0.0, 0.0]])],
    ("two_mode_coherent_state", "alpha1"):
        [lambda v: foscillator.two_mode_coherent_state(v, 0.2, kerr(0.1), (20, 20))],
    ("two_mode_coherent_state", "alpha2"):
        [lambda v: foscillator.two_mode_coherent_state(0.2, v, kerr(0.1), (20, 20))],
    ("wigner_from_density", "p_axis"): [lambda v: foscillator.wigner_from_density(
        foscillator.vacuum_density(4), _AXIS, _with_entry(v))],
    ("wigner_from_density", "q_axis"): [lambda v: foscillator.wigner_from_density(
        foscillator.vacuum_density(4), _with_entry(v), _AXIS)],
    ("wigner_values", "p"):
        [lambda v: foscillator.wigner_values(foscillator.vacuum_density(4), 0.5, v)],
    ("wigner_values", "q"):
        [lambda v: foscillator.wigner_values(foscillator.vacuum_density(4), v, 0.5)],
}
# The kernels read by the type half alone, since their domains hold
# infinities: each non-finite value is answered (None) or refused with the
# start of the kernel's own message.  eval_f and frequency take E = +inf where
# the profile allows it, as the identity does, and hermite_functions clamps
# +-inf.
_KERNELS = {
    ("eval_f", "n"): {math.inf: None, -math.inf: "profile argument must be >= 0, got -inf",
                      math.nan: "profile argument must be >= 0, got nan"},
    ("frequency", "energy"): {math.inf: None, -math.inf: "energy must be >= 0, got -inf",
                              math.nan: "energy must be >= 0, got nan"},
    ("hermite_functions", "x"): {math.inf: None, -math.inf: None, math.nan: "x must not be NaN"},
}
# A ray's coefficients are numbers by the rule, but a non-finite one, which
# defines no line family, is a DegenerateRayError.
_RAYS = {(name, param) for name, param in _REAL_CALLS if param in ("mu", "nu")}
# Complex amplitudes: 1j is valid, and each part is read by the rule.
_COMPLEX = {key for key in _REAL_CALLS if key[1].startswith("alpha")}
# A profile's parameter of None is absent, and refused as missing.
_ABSENT = {("kerr", "chi"), ("q_oscillator", "lam")}


def _first(template, v):
    """``template``, a nested list, with its first entry replaced by ``v``."""
    head = _first(template[0], v) if isinstance(template[0], list) else v
    return [head] + template[1:]


# Each complex array argument: the call, a valid nested list of floats whose
# first entry a test replaces, and a valid one with an imaginary entry.
_COMPLEX_ARRAYS = {
    ("CoherentStateVector", "amplitudes"):
        (lambda v: foscillator.CoherentStateVector(0.3, kerr(0.1), v), [1.0, 0.5, 0.0],
         [1j, 0.5, 0.0]),
    ("TwoModeState", "coefficients"):
        (lambda v: foscillator.TwoModeState(0.3, 0.2, kerr(0.1), v), [[1.0, 0.0], [0.0, 0.0]],
         [[1j, 0.0], [0.0, 0.0]]),
    ("density_from_amplitudes", "amplitudes"):
        (foscillator.density_from_amplitudes, [1.0, 0.5, 0.0], [1j, 0.5, 0.0]),
    ("DensityMatrix", "matrix"):
        (foscillator.DensityMatrix, [[1.0, 0.0], [0.0, 0.0]],
         [[0.5, -0.5j, 0.0, 0.0], [0.5j, 0.5, 0.0, 0.0], [0.0] * 4, [0.0] * 4]),
    ("expectation", "op"): (lambda v: foscillator.expectation(foscillator.vacuum_density(2), v),
                            [[1.0, 0.0], [0.0, 1.0]], [[1j, 0.0], [0.0, 1.0]]),
    ("schmidt_spectrum", "state"):
        (foscillator.schmidt_spectrum, [[1.0, 0.0], [0.0, 0.0]], [[1j, 0.0], [0.0, 0.0]]),
}


def _numeric_parameters():
    functions = {name: getattr(foscillator, name) for name in foscillator.__all__
                 if inspect.isfunction(getattr(foscillator, name))}
    functions.update((name, getattr(foscillator, name)) for name in _CONTAINERS)
    return {(name, param) for name, function in functions.items()
            for param, spec in inspect.signature(function).parameters.items()
            if param in _NUMERIC_NAMES
            or any(kind in str(spec.annotation) for kind in ("float", "complex", "ndarray"))
            or (name, param) in _SIZE_CALLS and _SIZE_CALLS[name, param] is None}


def test_every_real_argument_has_a_call():
    # a public function that gains a numeric or array argument fails here
    # until the argument has an entry
    assert _numeric_parameters() == set(_REAL_CALLS) | set(_COMPLEX_ARRAYS)


@pytest.mark.parametrize("name, param", sorted(_REAL_CALLS))
def test_reals_are_finite_by_one_rule(name, param):
    # a bool, a string, None or a complex number was read as a number, ran on
    # to NaN, or raised numpy's or Python's own TypeError, ValueError or
    # AttributeError; nan and inf gave NaN answers or RuntimeWarnings
    complex_ok = (name, param) in _COMPLEX
    not_finite = DegenerateRayError if (name, param) in _RAYS else DomainError
    none_ok = inspect.signature(getattr(foscillator, name)).parameters[param].default is None
    domain = _KERNELS.get((name, param), {})
    for call in _REAL_CALLS[name, param]:
        for good in ((1.0, np.float64(1.0), np.int64(1)) + ((1j,) if complex_ok else ())
                     + ((None,) if none_ok else ())
                     + tuple(v for v, refusal in domain.items() if refusal is None)):
            call(good)
        for bad in (math.nan, math.inf, -math.inf):
            message = domain.get(bad, "must be finite, got ")
            if message is None:
                continue
            with pytest.raises(not_finite, match=re.escape(message)):
                call(bad)
            if complex_ok:
                with pytest.raises(DomainError, match=r"^Im \w+ must be finite, got "):
                    call(complex(0.5, bad))
        for bad in ((True, np.True_, "1.0", object()) + (() if none_ok else (None,))
                    + (() if complex_ok else (1j,))):
            absent = bad is None and (name, param) in _ABSENT
            message = " needs a " if absent else " must be a number, got "
            with pytest.raises(DomainError, match=message):
                call(bad)


@pytest.mark.parametrize("name, param", sorted(_COMPLEX_ARRAYS))
def test_complex_arrays_are_read_by_one_rule(name, param):
    # strings and bools were read as numbers, an operator of strings or a
    # coefficient matrix of them raised numpy's TypeError or UFuncTypeError,
    # and a NaN operator gave a NaN expectation
    call, real, imaginary = _COMPLEX_ARRAYS[name, param]
    for good in (real, _first(real, np.float64(1.0)), np.array(real), np.array(real, dtype=int),
                 imaginary, np.array(imaginary)):
        call(good)
    for bad in (True, np.True_, "1", None, object(), 10 ** 400):
        with pytest.raises(DomainError, match=" must be a number, got "):
            call(_first(real, bad))
    for bad in (math.nan, math.inf, complex(0.0, math.nan)):
        with pytest.raises(DomainError, match=" must be finite, got "):
            call(_first(real, bad))
    for bad in (np.array(real, dtype=bool), np.array(real).astype(str)):
        with pytest.raises(DomainError, match=" must be a number, got "):
            call(bad)
    with pytest.raises(DomainError, match=" must be finite, got "):
        call(np.full(np.shape(real), math.nan))


# The five parameters bounded at 0 by the sign rule ``errors._sign``: a call
# that puts a value in it, the name its messages use, whether the bound is
# strict (> 0) or not (>= 0), and None if the call answers the least value
# the rule allows, or else the start of the message of the range rule that
# refuses it next.  The strict three are read by ``_real`` first, so their
# NaN and -inf are refused as not finite; the two kernels answer +inf, and
# their sign rule refuses NaN.
_SIGNED = {
    ("PhaseSpaceDistribution", "support_radius"):
        (lambda v: foscillator.PhaseSpaceDistribution(lambda q, p: 0.0 * q, v), "support radius",
         True, None),
    ("gaussian_distribution", "sigma"): (lambda v: foscillator.gaussian_distribution(0.0, 0.0, v),
                                         "sigma", True, "sigma = 5e-324 is too small"),
    ("linear_thermo", "beta"): (foscillator.linear_thermo, "beta", True,
                                "at beta = 5e-324, Z = 1/(2 sinh(beta/2)) leaves the float range"),
    ("eval_f", "n"):
        (lambda v: foscillator.eval_f(identity(), v), "profile argument", False, None),
    ("frequency", "energy"): (lambda v: foscillator.frequency(identity(), v), "energy", False, None),
}


@pytest.mark.parametrize("name, param", sorted(_SIGNED))
def test_sign_bounds_are_one_rule(name, param):
    # five checks written by hand, each with its own message, are one rule;
    # -0.0 is the bound itself, refused where the bound is strict
    call, label, strict, next_rule = _SIGNED[name, param]
    bound = f"{label} must be {'>' if strict else '>='} 0, got "
    below = (0.0, -0.0) if strict else ()
    for bad in below + (math.nextafter(0.0, -math.inf), -1.0):
        with pytest.raises(DomainError, match=f"^{re.escape(bound + repr(bad))}$"):
            call(bad)
    for bad in (math.nan, -math.inf):
        message = f"{label} must be finite, got " if strict else bound
        with pytest.raises(DomainError, match=f"^{re.escape(message + repr(bad))}$"):
            call(bad)
    least = math.nextafter(0.0, math.inf) if strict else 0.0
    for value in (least,) if strict else (least, -0.0):
        assert errors._sign(value, label, strict) is value
        if next_rule is None:
            call(value)
        else:
            with pytest.raises(DomainError, match=f"^{re.escape(next_rule)}"):
                call(value)


# The five point evaluations, each on q and p: the pair rule ``errors._pair``
# refuses shapes that do not broadcast, with the Wigner maps' message.
_PAIRS = {
    "wigner_values": lambda q, p: foscillator.wigner_values(foscillator.vacuum_density(4), q, p),
    "deformed_wigner_values": lambda q, p: foscillator.deformed_wigner_values(
        foscillator.vacuum_density(4), kerr(0.1), q, p),
    "classical_invariants": lambda q, p: foscillator.classical_invariants(
        kerr(0.1), foscillator.PhasePoint(q, p), 0.5).q,
    "gaussian density": lambda q, p: _blob().density(q, p),
    "transported density":
        lambda q, p: foscillator.propagate_distribution(_blob(), kerr(0.1), 0.5).density(q, p),
}


@pytest.mark.parametrize("name", sorted(_PAIRS))
def test_point_pairs_are_one_rule(name):
    # the classical evaluations raised numpy's untyped ValueError
    call = _PAIRS[name]
    with pytest.raises(DomainError,
                       match=r"^q and p do not broadcast: shapes \(2,\) and \(3,\)$"):
        call([1.0, 2.0], [1.0, 2.0, 3.0])
    assert np.shape(call([1.0, 2.0], [[1.0], [2.0], [3.0]])) == (3, 2)
    assert np.shape(call(np.ones((2, 3)), np.ones((2, 3)))) == (2, 3)


# Every object argument of a public function or container: a parameter
# annotated with a profile, a state, a density or a point, each with the call
# that puts a value in it and valid values in its other arguments.  The type
# rule ``errors._instance`` refuses any other object, naming the argument.
_OBJECTS = ("NonlinearitySpec", "DensityMatrix", "PhaseSpaceDistribution", "PhasePoint",
            "CoherentStateVector", "TwoModeState")
_OBJECT_CALLS = {
    ("amplitude_trajectory", "spec"): lambda v: foscillator.amplitude_trajectory(v, 0.5, [1.0]),
    ("classical_invariants", "point"):
        lambda v: foscillator.classical_invariants(kerr(0.1), v, 0.5),
    ("classical_invariants", "spec"): lambda v: foscillator.classical_invariants(
        v, foscillator.PhasePoint(0.5, 0.5), 0.5),
    ("classical_tomogram_evolved", "dist"):
        lambda v: foscillator.classical_tomogram_evolved(v, kerr(0.1), 1.0, 1.0, 0.5, [0.0]),
    ("classical_tomogram_evolved", "spec"):
        lambda v: foscillator.classical_tomogram_evolved(_blob(), v, 1.0, 1.0, 0.5, [0.0]),
    ("CoherentStateVector", "spec"):
        lambda v: foscillator.CoherentStateVector(0.3, v, [1.0, 0.0]),
    ("deformed_lowering", "spec"): lambda v: foscillator.deformed_lowering(v, 4),
    ("deformed_parity_operator", "spec"): lambda v: foscillator.deformed_parity_operator(v, 4),
    ("deformed_wigner", "rho"):
        lambda v: foscillator.deformed_wigner(v, kerr(0.1), [0.0], [0.0]),
    ("deformed_wigner", "spec"):
        lambda v: foscillator.deformed_wigner(foscillator.vacuum_density(4), v, [0.0], [0.0]),
    ("deformed_wigner_values", "rho"):
        lambda v: foscillator.deformed_wigner_values(v, kerr(0.1), 0.0, 0.0),
    ("deformed_wigner_values", "spec"): lambda v: foscillator.deformed_wigner_values(
        foscillator.vacuum_density(4), v, 0.0, 0.0),
    ("eigen_residual", "state"): foscillator.eigen_residual,
    ("eval_f", "spec"): lambda v: foscillator.eval_f(v, 1.0),
    ("evolve_amplitude", "spec"): lambda v: foscillator.evolve_amplitude(v, 0.5, 1.0),
    ("evolve_density", "rho"): lambda v: foscillator.evolve_density(v, kerr(0.1), 1.0),
    ("evolve_density", "spec"):
        lambda v: foscillator.evolve_density(foscillator.vacuum_density(4), v, 1.0, "kerr"),
    ("expectation", "rho"): lambda v: foscillator.expectation(v, np.eye(4)),
    ("f_factorial", "spec"): lambda v: foscillator.f_factorial(v, 3),
    ("frequency", "spec"): lambda v: foscillator.frequency(v, 1.0),
    ("hamiltonian_diagonal", "spec"): lambda v: foscillator.hamiltonian_diagonal(v, 4, "kerr"),
    ("heisenberg_invariant", "spec"):
        lambda v: foscillator.heisenberg_invariant(v, 4, 1.0, "kerr"),
    ("log_f_factorial", "spec"): lambda v: foscillator.log_f_factorial(v, 3),
    ("nonlinear_coherent_state", "spec"):
        lambda v: foscillator.nonlinear_coherent_state(0.3, v, 20),
    ("phase_space_integral", "dist"): foscillator.phase_space_integral,
    ("position_wavefunction", "state"): lambda v: foscillator.position_wavefunction(v, 0.0),
    ("propagate_distribution", "dist"):
        lambda v: foscillator.propagate_distribution(v, kerr(0.1), 1.0),
    ("propagate_distribution", "spec"):
        lambda v: foscillator.propagate_distribution(_blob(), v, 1.0),
    ("quantum_tomogram", "rho"): lambda v: foscillator.quantum_tomogram(v, 1.0, 0.0, [0.0]),
    ("radon_classical", "dist"): lambda v: foscillator.radon_classical(v, 1.0, 0.0, [0.0]),
    ("spec_to_dict", "spec"): foscillator.spec_to_dict,
    ("two_mode_coherent_state", "spec"):
        lambda v: foscillator.two_mode_coherent_state(0.2, 0.2, v, (20, 20)),
    ("two_mode_eigen_residuals", "state"): foscillator.two_mode_eigen_residuals,
    ("TwoModeState", "spec"):
        lambda v: foscillator.TwoModeState(0.2, 0.2, v, [[1.0, 0.0], [0.0, 0.0]]),
    ("wigner_from_density", "rho"): lambda v: foscillator.wigner_from_density(v, [0.0], [0.0]),
    ("wigner_values", "rho"): lambda v: foscillator.wigner_values(v, 0.0, 0.0),
}


def _object_parameters():
    functions = {name: getattr(foscillator, name) for name in foscillator.__all__
                 if inspect.isfunction(getattr(foscillator, name))}
    functions.update((name, getattr(foscillator, name)) for name in _CONTAINERS)
    return {(name, param): kind for name, function in functions.items()
            for param, spec in inspect.signature(function).parameters.items()
            for kind in _OBJECTS if kind in str(spec.annotation)
            and (name, param) not in _COMPLEX_ARRAYS}


def test_every_object_argument_has_a_call():
    # a public function that gains an object argument fails here until the
    # argument has an entry
    assert set(_object_parameters()) == set(_OBJECT_CALLS)


@pytest.mark.parametrize("name, param", sorted(_OBJECT_CALLS))
def test_objects_are_read_by_one_type_rule(name, param):
    # each raised the builtin AttributeError or TypeError, or was kept
    # unchecked until a density or profile was evaluated
    kind = _object_parameters()[name, param]
    other = foscillator.vacuum_density(2) if kind == "NonlinearitySpec" else kerr(0.1)
    for bad in (None, "kerr", {}, (1.0, 2.0), [[1.0, 0.0], [0.0, 0.0]], np.eye(2), other):
        with pytest.raises(DomainError,
                           match=f"^{param} must be a {kind}, got {type(bad).__name__}$"):
            _OBJECT_CALLS[name, param](bad)


@pytest.mark.parametrize("call, message", [
    (lambda: foscillator.eval_f("kerr", 1.0), "spec must be a NonlinearitySpec, got str"),
    (lambda: foscillator.evolve_density(np.eye(3) / 3, identity(), 1.0),
     "rho must be a DensityMatrix, got ndarray"),
    (lambda: foscillator.wigner_values([[1, 0], [0, 0]], 0, 0),
     "rho must be a DensityMatrix, got list"),
    (lambda: foscillator.quantum_tomogram(None, 1, 0, [0.0]),
     "rho must be a DensityMatrix, got NoneType"),
    (lambda: foscillator.radon_classical({}, 1, 0, [0.0]),
     "dist must be a PhaseSpaceDistribution, got dict"),
    (lambda: foscillator.classical_invariants(identity(), (1.0, 2.0), 0.5),
     "point must be a PhasePoint, got tuple"),
], ids=["eval_f", "evolve_density", "wigner_values", "quantum_tomogram", "radon_classical",
        "classical_invariants"])
def test_objects_of_the_wrong_type_are_domain_errors(call, message):
    # each raised the builtin AttributeError
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


# Each process-wide cache of the package, with arguments to call it on.  A
# cache hands the same objects to every caller, so each array it returns
# must be read-only.
_CACHES = {
    ("classical", "_clenshaw_curtis"): [(16,)],
    ("classical", "_periodic_trapezoid"): [(16,)],
    ("fock", "_level_energies"): [(q_oscillator(0.1), 8, "symmetric"), (kerr(0.1), 8, "normal"),
                                  (identity(), 8, "normal_half"), (kerr(0.1), 8, "kerr"),
                                  (custom(table=[1.0, 1.1, 1.3, 1.2, 1.0, 1.1, 1.2, 1.3, 1.4]), 8,
                                   "symmetric")],
    ("wigner", "_rotation"): [(0,), (3,)],
    ("wigner", "_hermite_table"): [(np.linspace(-3.0, 3.0, 5).tobytes(),)],
}


def _cached_functions(tree):
    """Names of the functions in ``tree`` decorated with ``functools.cache``
    or ``functools.lru_cache``, called or not."""
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and any(_name(d) in ("cache", "lru_cache") for d in node.decorator_list)}


def test_process_wide_caches_are_listed():
    found = set()
    for path in sorted(Path(foscillator.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.stem, name) for name in _cached_functions(tree)}
    assert found == set(_CACHES)


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("module, name", sorted(_CACHES))
def test_caches_hand_out_read_only_arrays(module, name):
    function = getattr(importlib.import_module(f"foscillator.{module}"), name)
    for args in _CACHES[module, name]:
        arrays = list(_arrays(function(*args)))
        assert arrays and not any(a.flags.writeable for a in arrays)


_README_PYTHON = re.findall(r"^```python\n(.*?)^```$",
                            (Path(__file__).resolve().parents[1] / "README.md").read_text(),
                            flags=re.MULTILINE | re.DOTALL)


def test_readme_has_a_python_example():
    assert _README_PYTHON


@pytest.mark.parametrize("source", _README_PYTHON,
                         ids=[f"block{i}" for i in range(len(_README_PYTHON))])
def test_readme_python_example_runs_clean(tmp_path, source):
    # each block as printed, in a fresh process where a RuntimeWarning is an error
    package_root = str(Path(foscillator.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", source],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
