"""Command-line front end: artifacts, sidecars, exit codes, determinism."""

import json
import math
import os
import resource
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import foscillator
from foscillator import (
    DensityMatrix,
    DomainError,
    PhasePoint,
    amplitude_trajectory,
    classical_invariants,
    coherent_density,
    evolve_density,
    kerr,
    linear_thermo,
    nonlinear_coherent_state,
    q_oscillator,
    schmidt_spectrum,
    two_mode_coherent_state,
    two_mode_eigen_residuals,
    wigner_from_density,
)
from foscillator.cli import _COMMAND_TABLE, _apply_config, build_parser, main


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _read_sidecar(path):
    """The sidecar, read as strict JSON: NaN and Infinity are refused."""
    with open(str(path) + ".meta.json", "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_refuse_constant)


def _fosc(argv, options=(), **kwargs):
    """``python [options] -m foscillator argv`` in a child process that imports
    the package under test, whatever the working directory."""
    package_root = str(Path(foscillator.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *options, "-m", "foscillator", *argv],
                          capture_output=True, text=True, env=env, **kwargs)


def test_tomogram_vacuum(tmp_path):
    out = tmp_path / "slice.csv"
    code = main(["tomogram", "--state", "vacuum", "--output", str(out)])
    assert code == 0
    meta = _read_sidecar(out)
    assert meta["status"] == "ok"
    assert meta["checks"]["norm_residual"]["value"] < 1e-6
    assert "quadrature_error" not in meta["checks"]  # a quantum slice is a finite sum
    header = out.read_text().splitlines()[0]
    assert header == "x,value"


def test_degenerate_ray_exits_2_without_artifact(tmp_path):
    out = tmp_path / "bad.csv"
    code = main(["tomogram", "--mu", "0", "--nu", "0", "--output", str(out)])
    assert code == 2
    assert not out.exists()


def test_thermo_zero_coupling_columns_match(tmp_path):
    out = tmp_path / "thermo.csv"
    assert main(["thermo", "--beta-min", "0.5", "--beta-max", "2", "--g", "0",
                 "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for row in rows:
        assert row[1] == row[2]  # Z0 and Zf byte-identical
        assert row[1] == format(linear_thermo(float(row[0])).z, ".17g")


def test_negative_first_order_entropy_exits_3_with_the_artifact(tmp_path, capsys):
    # beta g <n^2> ~ 20 here: far outside the first-order expansion, whose
    # Zf and S come out negative
    out = tmp_path / "thermo.csv"
    assert main(["thermo", "--beta-min", "0.001", "--beta-max", "0.001", "--beta-steps", "1",
                 "--g", "0.01", "--output", str(out)]) == 3
    assert capsys.readouterr().err == "numeric tolerance failure: negative_entropy\n"
    entropy = float(out.read_text().splitlines()[1].split(",")[4])
    meta = _read_sidecar(out)
    assert meta["status"] == "tolerance-breach"
    assert meta["checks"]["min_entropy"] == {"value": entropy, "threshold": None, "ok": True}
    assert meta["checks"]["negative_entropy"] == {"value": -entropy, "threshold": 0.0, "ok": False}
    assert entropy < 0.0


def test_repeated_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["thermo", "--beta-min", "0.2", "--beta-max", "3", "--g", "0.002"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert _read_sidecar(a) == _read_sidecar(b)


def test_short_output_flag_writes_the_same_artifact(tmp_path, capsys):
    argv = ["tomogram", "--state", "vacuum", "--x-points", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert _read_sidecar(a) == _read_sidecar(b)
    # the config key is still the long name; the short form is no key
    for cmd in _COMMAND_TABLE.values():
        keys = {f.dest for f in cmd.options}
        assert "output" in keys and "o" not in keys
    c = tmp_path / "c.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output": str(c)}))
    assert main(argv + ["--config", str(cfg)]) == 0
    assert c.read_bytes() == a.read_bytes()
    cfg.write_text(json.dumps({"o": str(c)}))
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: unknown config field 'o' for tomogram\n"


def test_deformed_wigner_runs_are_byte_identical(tmp_path):
    argv = ["wigner", "--variant", "usual-parity", "--kind", "kerr", "--chi", "0.1",
            "--state", "coherent:0.8", "--dim", "12", "--extent", "1.5",
            "--points", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta = _read_sidecar(a)
    assert meta["checks"]["max_imag"]["value"] < 1e-9


def test_quantum_evolve_json_round_trip(tmp_path):
    out = tmp_path / "rho.json"
    argv = ["quantum-evolve", "--kind", "kerr", "--chi", "0.1",
            "--state", "coherent:1.0", "--dim", "24", "--time", "1.5",
            "--output", str(out)]
    assert main(argv) == 0
    with open(out, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    parsed = DensityMatrix.from_dict(data)
    expected = evolve_density(coherent_density(1.0, 24), kerr(0.1), 1.5)
    np.testing.assert_array_equal(parsed.matrix, expected.matrix)
    meta = _read_sidecar(out)
    assert meta["checks"]["invariant_drift"]["value"] < 1e-9
    m = expected.matrix
    assert meta["checks"]["hermiticity_residual"]["value"] == float(np.max(np.abs(m - m.conj().T)))
    assert meta["checks"]["trace_residual"]["ok"]


def test_two_mode_json_matches_library(tmp_path):
    out = tmp_path / "pair.json"
    assert main(["two-mode", "--kind", "kerr", "--chi", "0.1",
                 "--output", str(out)]) == 0
    with open(out, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    sp = schmidt_spectrum(two_mode_coherent_state(1.0, 1.0, kerr(0.1), (40, 40)))
    np.testing.assert_allclose(data["singular_values"], sp.singular_values, atol=1e-14)
    assert data["sigma2"] == pytest.approx(sp.sigma2, rel=1e-12)
    assert data["separable"] is False


@pytest.mark.parametrize("form", ["symmetric", "normal", "normal_half", "kerr"])
def test_quantum_evolve_form_picks_the_hamiltonian(tmp_path, form):
    out = tmp_path / "rho.json"
    assert main(["quantum-evolve", "--kind", "kerr", "--chi", "0.1", "--state", "coherent:0.8,0.3",
                 "--dim", "24", "--time", "1.3", "--form", form, "--output", str(out)]) == 0
    with open(out, "r", encoding="utf-8") as fh:
        parsed = DensityMatrix.from_dict(json.load(fh))
    rho0 = coherent_density(0.8 + 0.3j, 24)
    expected = evolve_density(rho0, kerr(0.1), 1.3, form=form)
    np.testing.assert_array_equal(parsed.matrix, expected.matrix)
    if form != "symmetric":  # the symmetric form turns the state differently
        symmetric = evolve_density(rho0, kerr(0.1), 1.3).matrix
        assert np.max(np.abs(parsed.matrix - symmetric)) > 1e-2
    assert _read_sidecar(out)["parameters"]["form"] == form


def test_two_mode_takes_complex_amplitudes_and_unequal_dims(tmp_path):
    out = tmp_path / "pair.json"
    assert main(["two-mode", "--kind", "q", "--lambda", "0.1", "--alpha1-re", "0.6",
                 "--alpha1-im", "0.5", "--alpha2-re", "-0.4", "--alpha2-im", "0.7",
                 "--dim1", "30", "--dim2", "22", "--output", str(out)]) == 0
    with open(out, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    state = two_mode_coherent_state(0.6 + 0.5j, -0.4 + 0.7j, q_oscillator(0.1), (30, 22))
    sp = schmidt_spectrum(state)
    assert data["alpha1"] == {"re": 0.6, "im": 0.5}
    assert data["alpha2"] == {"re": -0.4, "im": 0.7}
    assert data["dims"] == [30, 22]
    assert data["singular_values"] == sp.singular_values.tolist()
    assert (data["entropy"], data["sigma2"]) == (sp.entropy, sp.sigma2)
    checks = _read_sidecar(out)["checks"]
    r1, r2 = two_mode_eigen_residuals(state)
    assert (checks["eigen_residual_1"]["value"], checks["eigen_residual_2"]["value"]) == (r1, r2)


def test_classical_trajectory_checks(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["classical-trajectory", "--kind", "q", "--lambda", "0.1",
                 "--q0", "1.4", "--p0", "0", "--t-max", "20", "--steps", "80",
                 "--output", str(out)]) == 0
    meta = _read_sidecar(out)
    assert meta["checks"]["invariant_spread"]["value"] < 1e-9
    assert meta["checks"]["energy_drift"]["value"] < 1e-12
    header = out.read_text().splitlines()[0]
    assert header == "t,q,p,E,q0,p0"


def test_classical_trajectory_columns_are_the_library_arrays(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["classical-trajectory", "--kind", "kerr", "--chi", "0.2", "--q0", "1.1",
                 "--p0", "-0.7", "--t-max", "12", "--steps", "30", "--law", "canonical",
                 "--output", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    times = np.linspace(0.0, 12.0, 31)
    alphas = amplitude_trajectory(kerr(0.2), complex(1.1, -0.7) / math.sqrt(2.0), times, "canonical")
    q, p = math.sqrt(2.0) * alphas.real, math.sqrt(2.0) * alphas.imag
    back = classical_invariants(kerr(0.2), PhasePoint(q, p), times, "canonical")
    np.testing.assert_array_equal(table[:, 0], times)
    np.testing.assert_array_equal(table[:, 1], q)
    np.testing.assert_array_equal(table[:, 2], p)
    np.testing.assert_array_equal(table[:, 4], back.q)
    np.testing.assert_array_equal(table[:, 5], back.p)


@pytest.mark.parametrize("q0", ["100", "1e4"])
def test_energy_drift_is_relative_to_a_large_orbit(tmp_path, q0):
    # E0 = 5000 and 5e7: rounding alone moved E by 3.6e-12 and 2.2e-8, and
    # the absolute threshold made both correct runs exit 3
    out = tmp_path / "traj.csv"
    assert main(["classical-trajectory", "--q0", q0, "--output", str(out)]) == 0
    assert _read_sidecar(out)["checks"]["energy_drift"]["value"] <= 1e-12


def test_energy_drift_still_catches_a_drifting_flow(tmp_path, monkeypatch, capsys):
    # a flow that scales E by 1 + 1e-9 breaches the relative check
    exact = foscillator.cli.amplitude_trajectory
    monkeypatch.setattr(foscillator.cli, "amplitude_trajectory",
                        lambda *args: exact(*args) * math.sqrt(1.0 + 1e-9))
    out = tmp_path / "traj.csv"
    assert main(["classical-trajectory", "--q0", "100", "--output", str(out)]) == 3
    assert "energy_drift" in capsys.readouterr().err
    check = _read_sidecar(out)["checks"]["energy_drift"]
    assert not check["ok"]
    assert check["value"] == pytest.approx(1e-9, rel=1e-6)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv", [
    ["wigner", "--dim", "100000"],
    ["wigner", "--points", "100000"],
    ["classical-propagate", "--points", "100000"],
    ["tomogram", "--x-points", "20000000"],
    ["thermo", "--beta-steps", "1000000000"],
], ids=" ".join)
def test_failed_allocation_exits_2_with_one_line(tmp_path, argv):
    # each wants 4.8 to 149 GiB; the child runs under a 2 GiB address-space
    # limit, which binds only that process, so numpy's MemoryError is raised
    # at once instead of an exit 1 with a traceback
    out = tmp_path / "a.csv"
    proc = _fosc(argv + ["--output", str(out)], preexec_fn=_limit_address_space, timeout=120)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate")
    assert list(tmp_path.iterdir()) == []


def test_frequency_overflow_exits_2_with_one_line(tmp_path):
    # lam E = 1003.52: f is finite there, the canonical frequency is not
    out = tmp_path / "traj.csv"
    proc = _fosc(["classical-trajectory", "--kind", "q", "--lambda", "1", "--q0", "44.8",
                  "--law", "canonical", "--output", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: the canonical frequency overflows at E = 1003.5199999999999"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["classical-propagate", "--kind", "kerr", "--chi", "-1"],
     "kerr profile hit 1 - chi + chi*n <= 0 at n = 16.0"),
    (["classical-propagate", "--kind", "kerr", "--chi", "1e6"],
     "kerr profile hit 1 - chi + chi*n <= 0 at n = 0.9799999999999999"),
    (["classical-propagate", "--kind", "q", "--lambda", "1e6"],
     "profile evaluated to a non-finite value at n = 16.0: f overflows the float range"),
    (["classical-propagate", "--sigma", "1e-300"],
     "sigma = 1e-300 is too small: 1/(2 pi sigma^2) overflows"),
    (["classical-trajectory", "--q0", "1e300"], "the initial energy (q0^2 + p0^2)/2 overflows"),
    (["classical-trajectory", "--p0", "1e300"], "the initial energy (q0^2 + p0^2)/2 overflows"),
])
def test_classical_edge_values_exit_2_with_one_line(tmp_path, capsys, argv, message):
    # each raised a TypeError, IndexError, ZeroDivisionError or OverflowError
    # before; a numpy RuntimeWarning is an error here
    assert main(argv + ["--output", str(tmp_path / "a.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("profile, message", [
    ([], None),
    (["--kind", "kerr", "--chi", "0.1"], "profile evaluated to a non-finite value at n = inf"),
    (["--kind", "q", "--lambda", "0.1"],
     "profile evaluated to a non-finite value at n = inf: f overflows the float range"),
], ids=["identity", "kerr", "q"])
def test_wide_classical_grid_runs_without_warnings(tmp_path, profile, message):
    # the energy and the Gaussian exponent overflow at the far corners of a
    # finite grid; two numpy RuntimeWarnings were printed there, each an
    # error in this child process
    out = tmp_path / "blob.csv"
    proc = _fosc(["classical-propagate", "--extent", "1e200", "--points", "3", *profile,
                  "--output", str(out)], options=["-W", "error::RuntimeWarning"])
    if message is None:
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = [[float(v) for v in row.split(",")] for row in out.read_text().splitlines()[1:]]
        assert [value for q, p, value in rows if abs(q) + abs(p) > 0.0] == [0.0] * 8
        assert rows[4][2] > 0.0
    else:
        assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, blob", [
    (["classical-propagate", "--center-q", "2e154"],
     "(2e+154, 0) of sigma 0.5 on the support radius 2e+154"),
    (["classical-propagate", "--sigma", "1e154"],
     "(1, 0) of sigma 1e+154 on the support radius 8.5e+154"),
    (["tomogram", "--source", "classical", "--center-q", "1e200"],
     "(1e+200, 0) of sigma 1 on the support radius 1e+200"),
    (["tomogram", "--source", "classical", "--center-q", "1e200", "--time", "1", "--kind", "kerr",
      "--chi", "0.1"], "(1e+200, 0) of sigma 1 on the support radius 1e+200"),
], ids=["centre", "sigma", "slice", "kerr-slice"])
def test_blob_past_the_float_range_exits_2_without_warnings(tmp_path, argv, blob):
    # each printed numpy overflow warnings, then exited 3 on a check or 2 on
    # a non-finite density; a RuntimeWarning is an error in this child process
    proc = _fosc(argv + ["--output", str(tmp_path / "out.csv")],
                 options=["-W", "error::RuntimeWarning"])
    assert (proc.returncode, proc.stderr) == (
        2, f"error: the blob at {blob}: its exponent leaves the float range\n")
    assert list(tmp_path.iterdir()) == []


def test_blob_inside_the_float_range_runs_without_warnings(tmp_path):
    # too narrow for its radius to integrate, but no overflow on its support
    out = tmp_path / "blob.csv"
    proc = _fosc(["classical-propagate", "--center-q", "1e153", "--output", str(out)],
                 options=["-W", "error::RuntimeWarning"])
    assert (proc.returncode, proc.stderr) == (3, "numeric tolerance failure: norm_residual\n")
    assert _read_sidecar(out)["status"] == "tolerance-breach"


@pytest.mark.parametrize("argv, beta", [
    (["thermo", "--beta-min", "1500", "--beta-max", "1500", "--beta-steps", "1", "--g", "0.001"], "1500.0"),
    (["thermo", "--beta-max", "1e6"], "66667.13333333333"),
])
def test_thermo_past_the_float_range_of_z_exits_2_with_one_line(tmp_path, capsys, argv, beta):
    # math.sinh raised an OverflowError traceback here
    assert main(argv + ["--output", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == (f"error: at beta = {beta}, Z = 1/(2 sinh(beta/2)) leaves "
                                       "the float range: beta must be <= 1416.79\n")
    assert list(tmp_path.iterdir()) == []


def test_thermo_below_the_float_range_exits_2_with_one_line(tmp_path, capsys):
    # 2 sinh(beta/2) was 0 here: a ZeroDivisionError traceback, exit 1
    argv = ["thermo", "--beta-min", "5e-324", "--beta-max", "5e-324", "--beta-steps", "1"]
    assert main(argv + ["--output", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == ("error: at beta = 5e-324, <n^3> = x (1 + 4x + x^2)/(1 - x)^3 "
                                       "leaves the float range: beta must be >= 4.05654e-103\n")
    assert list(tmp_path.iterdir()) == []


def test_thermo_at_small_beta_exits_0(tmp_path):
    # the thermal series stopped converging below beta ~ 1.25e-4 (exit 2)
    out = tmp_path / "t.csv"
    assert main(["thermo", "--beta-min", "1e-5", "--beta-max", "1e-4", "--beta-steps", "3",
                 "--g", "0", "--output", str(out)]) == 0
    assert _read_sidecar(out)["status"] == "ok"


@pytest.mark.parametrize("source", ["quantum", "classical"])
def test_tomogram_far_out_on_x_is_zero(tmp_path, capsys, source):
    # the quantum slice wrote nan in 4 of 5 cells and exited 0; the classical
    # one overflowed in (X / r)^2 (a RuntimeWarning is an error here)
    out = tmp_path / "slice.csv"
    assert main(["tomogram", "--source", source, "--state", "vacuum", "--x-min=-1e300",
                 "--x-max=1e300", "--x-points", "5", "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    values = [float(row.split(",")[1]) for row in out.read_text().splitlines()[1:]]
    assert values[:2] + values[3:] == [0.0] * 4
    assert values[2] > 0.0
    assert _read_sidecar(out)["status"] == "ok"


@pytest.mark.parametrize("low, written, code", [(math.nan, None, 3), (-0.0, 0.0, 0), (-1e-3, 1e-3, 3)])
def test_negativity_check_keeps_nan(tmp_path, monkeypatch, low, written, code):
    # max(0.0, -nan) is 0.0 in Python, so a nan cell passed the check; a
    # minimum of -0.0 still reads 0.0, not -0.0; strict JSON holds nan as text
    def fake(rho, mu, nu, x):
        values = np.full(x.shape, 0.5)
        values[1] = low
        return foscillator.TomogramSlice(mu, nu, x, values, norm=1.0)

    monkeypatch.setattr(foscillator.cli, "quantum_tomogram", fake)
    out = tmp_path / "slice.csv"
    assert main(["tomogram", "--output", str(out)]) == code
    value = _read_sidecar(out)["checks"]["negativity"]["value"]
    if written is None:
        assert value == "nan"
    else:
        assert value == written and math.copysign(1.0, value) == 1.0


def test_coherent_amplitude_table(tmp_path):
    out = tmp_path / "amps.csv"
    assert main(["coherent", "--kind", "kerr", "--chi", "0.1",
                 "--alpha-re", "1.0", "--dim", "40", "--output", str(out)]) == 0
    meta = _read_sidecar(out)
    assert meta["checks"]["eigen_residual"]["value"] < 1e-8
    first = out.read_text().splitlines()[1].split(",")
    assert float(first[1]) == pytest.approx(0.6191053719393739, rel=1e-12)


def test_coherent_wavefunction_norm_check(tmp_path):
    out = tmp_path / "wave.csv"
    assert main(["coherent", "--wavefunction", "--alpha-re", "0.5",
                 "--x-min", "-7", "--x-max", "7", "--x-points", "701",
                 "--output", str(out)]) == 0
    meta = _read_sidecar(out)
    assert meta["status"] == "ok"
    assert meta["checks"]["norm_residual"]["value"] < 1e-12


def test_quantum_norms_take_no_gauss_legendre_rule(tmp_path, monkeypatch):
    # the tomogram norm is the trace and the wavefunction's is sum |c_n|^2,
    # so a state of dim 1700 costs no dense node eigenproblem
    def refuse(*args):
        raise AssertionError("a Gauss-Legendre rule was built")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    out = tmp_path / "slice.csv"
    assert main(["tomogram", "--state", "fock:1500", "--dim", "1700", "--x-min", "-60",
                 "--x-max", "60", "--x-points", "5", "--output", str(out)]) == 0
    assert _read_sidecar(out)["checks"]["norm_residual"]["value"] < 1e-12
    out = tmp_path / "wave.csv"
    assert main(["coherent", "--wavefunction", "--dim", "40", "--output", str(out)]) == 0
    assert _read_sidecar(out)["status"] == "ok"


def test_state_selector_from_file(tmp_path):
    rho = coherent_density(0.5, 12)
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(rho.to_dict()))
    out = tmp_path / "w.csv"
    assert main(["wigner", "--state", f"file:{state_path}", "--dim", "12",
                 "--extent", "6", "--points", "7", "--output", str(out)]) == 0


def test_state_file_with_a_negative_eigenvalue_exits_2(tmp_path, capsys):
    # hermitian, unit trace and an empty tail: only the spectrum check fails
    m = np.zeros((12, 12))
    m[0, 0], m[1, 1], m[0, 1], m[1, 0] = 0.5, 0.5, 0.7, 0.7
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({"dim": 12, "re": m.tolist(), "im": np.zeros_like(m).tolist()}))
    out = tmp_path / "w.csv"
    assert main(["wigner", "--state", f"file:{state_path}", "--dim", "12",
                 "--extent", "6", "--points", "7", "--output", str(out)]) == 2
    assert "negative eigenvalue" in capsys.readouterr().err
    assert not out.exists()


def test_state_file_with_nan_exits_2_with_one_line(tmp_path, capsys):
    # Python's json writes and reads NaN; such a state is refused as input
    m = np.diag([0.5, 0.5] + [0.0] * 10)
    m[1, 1] = float("nan")
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({"dim": 12, "re": m.tolist(), "im": np.zeros_like(m).tolist()}))
    out = tmp_path / "evolved.json"
    assert main(["quantum-evolve", "--state", f"file:{state_path}", "--dim", "12",
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: density field 're' must be finite, got nan\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["wigner", "quantum-evolve", "tomogram"])
def test_empty_basis_exits_2_with_one_line(tmp_path, capsys, command):
    out = tmp_path / "out.dat"
    assert main([command, "--dim", "0", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: level 0 is outside the truncated basis of dim 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["tomogram", "--x-max", "inf"],
    ["wigner", "--extent", "inf"],
    ["classical-trajectory", "--t-max", "nan"],
    ["classical-trajectory", "--q0", "nan"],
    ["coherent", "--alpha-re", "nan"],
    ["two-mode", "--alpha1-re", "nan"],
    ["thermo", "--g", "inf"],
    # argparse read these as a missing value: "expected one argument"
    ["classical-trajectory", "--q0", "-inf"],
    ["tomogram", "--x-min", "-Infinity"],
    ["coherent", "--alpha-re", "-nan"],
])
def test_non_finite_float_flag_exits_2_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "out.dat"
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: fosc {argv[0]}: argument {argv[1]}: {argv[2]!r} is not a finite number\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_config_value_exits_2_with_one_line(tmp_path, capsys, text):
    # Python's json reads NaN, Infinity and an overflowing literal as floats
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"x_max": %s}' % text)
    out = tmp_path / "slice.csv"
    assert main(["tomogram", "--config", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'x_max': ") and err.count("\n") == 1
    assert "is not a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["classical-trajectory", "--q0", "-1e-3"],
    ["tomogram", "--x-min", "-1e-3"],
    ["coherent", "--alpha-re", "-2E-1"],
], ids=lambda argv: argv[0])
def test_negative_number_in_exponent_form_is_a_value(tmp_path, argv):
    # argparse took only -1 and -1.5 forms as negative numbers, and read
    # --q0 -1e-3 as a missing value
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv[:1] + [f"{argv[1]}={argv[2]}", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


_NEGATIVE_TEXT = st.builds(lambda x, form: form.format(-x), st.floats(0.0, 1e300),
                           st.sampled_from(["{!r}", "{:e}", "{:E}", "{:.3g}", "{:.0e}", "{:.1f}"]))


# Every flag whose value argparse types or checks, with its command.
_TYPED_FLAGS = [(cmd.name, flag) for cmd in _COMMAND_TABLE.values() for flag in cmd.options
                if flag.kwargs.get("type", str) is not str or "choices" in flag.kwargs]
_FLOAT_FLAGS = [(name, flag) for name, flag in _TYPED_FLAGS
                if flag.kwargs.get("type") not in (None, str, int)]


def _flag_text(flag):
    """Text for ``flag``: negative and exponent forms, nan and inf, integers,
    its choices, and text outside them."""
    texts = [_NEGATIVE_TEXT, st.floats().map(repr), st.integers(-10 ** 20, 10 ** 20).map(str),
             st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e-3",
                              "2.0", "0x10", "1_000", " 7 ", "", "true"]),
             st.text(st.characters(exclude_categories=("Cs",)), max_size=6)]
    if "choices" in flag.kwargs:
        texts.append(st.sampled_from(flag.kwargs["choices"]))
    return st.one_of(texts)


def _config_value(flag):
    """A config entry for ``flag``: its text, and for a number flag any JSON
    value too, which goes to the flag as its JSON text."""
    if flag.kwargs.get("type", str) is str:
        return _flag_text(flag)
    return st.one_of(_flag_text(flag), st.floats(), st.integers(-10 ** 20, 10 ** 20),
                     st.booleans(), st.none(), st.lists(st.integers(), max_size=2))


def _readings(command, flag, value):
    """What ``fosc command --flag=TEXT`` and a config holding {dest: value}
    parse to, TEXT being ``value`` or its JSON text: ("value", v), or
    ("error", the message after its prefix, ``fosc command: `` or
    ``config field 'dest': ``)."""
    text = value if isinstance(value, str) else json.dumps(value)

    def read(parse, prefix):
        try:
            return "value", getattr(parse(), flag.dest)
        except DomainError as exc:
            assert str(exc).startswith(prefix)
            return "error", str(exc)[len(prefix):]

    argv = read(lambda: build_parser().parse_args([command, f"{flag.name}={text}"]),
                f"fosc {command}: ")
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({flag.dest: value}, fh)

        def from_config():
            args = build_parser().parse_args([command, "--config", path])
            _apply_config(args, _COMMAND_TABLE[command])
            return args

        config = read(from_config, f"config field {flag.dest!r}: ")
    return argv, config


@settings(max_examples=300)
@given(data=st.data())
def test_a_config_entry_reads_as_its_flag_on_the_command_line(data):
    # one reading of a value, by the command's own flags: the config once
    # had its own copy of their types, finiteness and choices
    command, flag = data.draw(st.sampled_from(_TYPED_FLAGS), label="flag")
    argv, config = _readings(command, flag, data.draw(_config_value(flag), label="value"))
    assert config == argv


@given(text=_NEGATIVE_TEXT, command_flag=st.sampled_from(_FLOAT_FLAGS))
def test_negative_float_text_reads_as_in_a_config(text, command_flag):
    # argparse took only -1 and -1.5 forms as negative numbers
    assert _readings(*command_flag, text) == (("value", float(text)),) * 2


def test_every_float_flag_refuses_non_finite_values():
    for command, flag in _FLOAT_FLAGS:
        for value in (math.nan, math.inf, -math.inf, "nan", "-inf"):
            argv, config = _readings(command, flag, value)
            text = value if isinstance(value, str) else json.dumps(value)
            message = f"argument {flag.name}: {text!r} is not a finite number"
            assert argv == config == ("error", message)


def test_csv_rows_follow_the_library_grid(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["wigner", "--state", "coherent:0.5,0.25", "--dim", "12", "--extent", "6",
                 "--points", "5", "--output", str(out)]) == 0
    axis = np.linspace(-6.0, 6.0, 5)
    grid = wigner_from_density(coherent_density(complex(0.5, 0.25), 12), axis, axis)
    rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
    expected = [[q, p, grid.values[i, j].real, grid.values[i, j].imag]
                for i, q in enumerate(axis) for j, p in enumerate(axis)]
    assert rows == expected


def test_coherent_abs2_column_is_abs_squared(tmp_path):
    out = tmp_path / "amps.csv"
    assert main(["coherent", "--kind", "q", "--lambda", "0.05", "--alpha-re", "1.3",
                 "--alpha-im", "-0.7", "--dim", "50", "--output", str(out)]) == 0
    amps = nonlinear_coherent_state(complex(1.3, -0.7), q_oscillator(0.05), 50).amplitudes
    rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
    assert rows == [[n, c.real, c.imag, abs(c) ** 2] for n, c in enumerate(amps)]


def test_fock_state_selector_min_real(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["wigner", "--state", "fock:1", "--dim", "24", "--extent", "4",
                 "--points", "41", "--output", str(out)]) == 0
    meta = _read_sidecar(out)
    assert meta["checks"]["min_real"]["value"] == pytest.approx(-2.0, abs=1e-6)


def test_config_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g": 0.01}))
    out = tmp_path / "t.csv"
    assert main(["thermo", "--beta-min", "1", "--beta-max", "2", "--g", "0",
                 "--config", str(cfg), "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows[0][1] != rows[0][2]  # coupling came from the config file
    meta = _read_sidecar(out)
    assert meta["parameters"]["g"] == 0.01


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    out = tmp_path / "t.csv"
    code = main(["thermo", "--config", str(cfg), "--output", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("quantum-evolve", {"dim": 40.5}),
    ("quantum-evolve", {"dim": True}),
    ("quantum-evolve", {"state": 5}),
    ("quantum-evolve", {"format": "xml"}),
    ("quantum-evolve", {"help": True}),
    ("wigner", {"variant": "bogus"}),
    ("coherent", {"wavefunction": "yes"}),
])
def test_config_values_are_typed_by_their_flags(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.dat"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_string_is_converted_like_a_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta_steps": "3"}))
    out = tmp_path / "t.csv"
    assert main(["thermo", "--config", str(cfg), "--output", str(out)]) == 0
    assert _read_sidecar(out)["parameters"]["beta_steps"] == 3
    assert len(out.read_text().splitlines()) == 4


def test_nonlinearity_config_block(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonlinearity": {"kind": "kerr", "chi": 0.5}}))
    out = tmp_path / "rho.json"
    assert main(["quantum-evolve", "--state", "fock:1", "--dim", "8",
                 "--config", str(cfg), "--output", str(out)]) == 0
    meta = _read_sidecar(out)
    assert meta["parameters"]["nonlinearity"] == {"kind": "kerr", "chi": 0.5}


def test_numeric_tolerance_breach_exits_3(tmp_path):
    out = tmp_path / "w.csv"
    code = main(["wigner", "--variant", "deformed-parity", "--kind", "custom",
                 "--table", "1,10000000,20000000", "--state", "vacuum",
                 "--dim", "3", "--pad", "0", "--extent", "2", "--points", "3",
                 "--output", str(out)])
    assert code == 3


def test_stdout_artifact(capsys):
    assert main(["tomogram", "--state", "vacuum", "--x-points", "5",
                 "--output", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("x,value\n")
    assert json.loads(captured.err)["status"] == "ok"


def test_csv_uses_17_significant_digits(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["thermo", "--beta-min", "1", "--beta-max", "1",
                 "--beta-steps", "1", "--output", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[1] == format(0.9595173756674719, ".17g")


def test_module_entry_point(tmp_path):
    out = tmp_path / "t.csv"
    proc = _fosc(["thermo", "--beta-min", "1", "--beta-max", "2", "--output", str(out)])
    assert proc.returncode == 0
    assert out.exists()


@pytest.mark.parametrize("argv, message", [
    (["thermo", "--g", "x"], "argument --g: invalid float value: 'x'"),
    (["thermo", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["wigner", "--variant", "odd"], "argument --variant: invalid choice: 'odd'"),
    ([], "required: command"),
])
def test_bad_command_line_returns_2_with_one_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: fosc")
    assert message in captured.err
    assert captured.err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["thermo", "--help"])
    assert info.value.code == 0
    assert "--beta-min" in capsys.readouterr().out


def test_bad_flag_value_in_a_subprocess_exits_2_with_one_line(tmp_path):
    out = tmp_path / "t.csv"
    proc = _fosc(["thermo", "--beta-steps", "many", "--output", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: fosc thermo: argument --beta-steps: invalid int value: 'many'"]
    assert not out.exists()


def test_missing_profile_parameter_exits_2(tmp_path, capsys):
    out = tmp_path / "t.csv"
    for kind, flag in (("q", "--lambda"), ("kerr", "--chi"), ("custom", "--table")):
        assert main(["quantum-evolve", "--kind", kind, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: the {kind} profile needs {flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["--kind", "q", "--lambda", "0.1", "--chi", "0.3"], None, "the q profile takes no 'chi' field"),
    (["--table", "1,1.1"], None, "the identity profile takes no 'table' field"),
    ([], {"nonlinearity": {"kind": "kerr", "chi": 0.1, "lambda": 0.2}},
     "the kerr profile takes no 'lambda' field"),
    (["--kind", "q", "--lambda", "0.1"], {"chi": 0.3}, "the q profile takes no 'chi' field"),
    (["--kind", "identity", "--chi", "0"], None, "the identity profile takes no 'chi' field"),
    ([], {"kind": "identity", "chi": 0}, "the identity profile takes no 'chi' field"),
    ([], {"nonlinearity": {"kind": "identity", "chi": 0}},
     "the identity profile takes no 'chi' field"),
], ids=["flag", "identity-flag", "config-block", "config-field", "default-value-flag",
        "default-value-config-field", "default-value-config-block"])
def test_parameter_of_another_kind_exits_2(tmp_path, capsys, argv, config, message):
    # it had no effect, yet the sidecar recorded it; a value equal to the
    # default was let through
    out = tmp_path / "amps.csv"
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    assert main(["coherent"] + argv + ["--output", str(out)]) == 2
    _one_error_line(capsys, message)
    assert not out.exists()


@pytest.mark.parametrize("state", ["coherent:1.0+0.5j", "fock:x", "nl-coherent:1,2,3"])
def test_bad_state_selector_names_the_accepted_forms(tmp_path, capsys, state):
    out = tmp_path / "w.csv"
    assert main(["wigner", "--state", state, "--dim", "8", "--output", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--state" in err
    assert "vacuum | fock:N | coherent:RE[,IM] | nl-coherent:RE[,IM] | file:PATH" in err


def test_quantum_evolve_past_phase_precision_exits_0(tmp_path):
    # at t = 1e7 the angles (H_m - H_n) t have lost their low digits, but one
    # phase per level keeps the evolution a unitary congruence: the written
    # state passes full validation and its sidecar checks
    out = tmp_path / "rho.json"
    assert main(["quantum-evolve", "--kind", "kerr", "--chi", "0.1", "--state", "coherent:1.0",
                 "--dim", "60", "--time", "1e7", "--output", str(out)]) == 0
    assert _read_sidecar(out)["status"] == "ok"
    with open(out, "r", encoding="utf-8") as fh:
        rho = DensityMatrix.from_dict(json.load(fh))
    np.testing.assert_allclose(np.linalg.eigvalsh(rho.matrix),
                               np.linalg.eigvalsh(coherent_density(1.0, 60).matrix),
                               rtol=0.0, atol=1e-13)


def test_profile_overflow_exits_2_with_one_line(tmp_path):
    # f = sqrt(sinh(n)/n) leaves the float range at n = 1428 for lambda = 1
    out = tmp_path / "amps.csv"
    proc = _fosc(["coherent", "--kind", "q", "--lambda", "1", "--dim", "1500",
                  "--output", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: profile evaluated to a non-finite value at n = 1428.0: "
        "f overflows the float range"]
    assert list(tmp_path.iterdir()) == []


_FILAMENT = ["tomogram", "--source", "classical", "--kind", "q", "--lambda", "0.2",
             "--center-q", "2", "--center-p", "0.5", "--sigma", "0.5", "--mu", "0.6", "--nu", "0.8"]


def test_unresolved_filaments_exit_3(tmp_path, capsys):
    out = tmp_path / "slice.csv"
    assert main(_FILAMENT + ["--time", "300", "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert "the density has filaments finer than 4096 line nodes resolve" in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_classical_propagate_norm_resolves_at_long_times(tmp_path):
    # the slices of this density at t = 300 are refused above, but its norm
    # is a disk integral whose cost does not grow with t
    out = tmp_path / "moved.csv"
    assert main(["classical-propagate", "--kind", "q", "--lambda", "0.2", "--center-q", "2",
                 "--center-p", "0.5", "--sigma", "0.5", "--time", "300", "--output", str(out)]) == 0
    checks = _read_sidecar(out)["checks"]
    assert checks["norm_residual"]["value"] < 1e-12
    assert checks["quadrature_error"]["ok"]


@pytest.mark.parametrize("argv", [
    _FILAMENT + ["--time", "3"],
    ["classical-propagate", "--kind", "q", "--lambda", "0.2", "--center-q", "1", "--time", "1.5"],
])
def test_classical_commands_report_the_quadrature_error(tmp_path, argv):
    out = tmp_path / "a.csv"
    assert main(argv + ["--output", str(out)]) == 0
    check = _read_sidecar(out)["checks"]["quadrature_error"]
    assert check["threshold"] == 1e-11
    assert check["ok"] and 0.0 <= check["value"] <= 1e-11
    b = tmp_path / "b.csv"
    assert main(argv + ["--output", str(b)]) == 0
    assert out.read_bytes() == b.read_bytes()
    assert _read_sidecar(out) == _read_sidecar(b)


_README_COMMANDS = [line for line in
                    (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
                    if line.startswith("fosc ")]


def test_readme_lists_every_command():
    assert sorted(line.split()[1] for line in _README_COMMANDS) == sorted(_COMMAND_TABLE)


@pytest.mark.parametrize("line", _README_COMMANDS, ids=lambda line: line.split()[1])
def test_readme_command_runs_clean(tmp_path, line):
    # each README example, as typed, in a fresh process where a RuntimeWarning is an error
    argv = shlex.split(line)[1:]
    proc = _fosc(argv, options=("-W", "error::RuntimeWarning"), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    output = argv[argv.index("--output") + 1]
    assert _read_sidecar(tmp_path / output)["status"] == "ok"


# each command at a size that reads the profile on levels 0..2 at most,
# which the shortest drawn table covers
_PROFILE_RUNS = {
    "classical-trajectory": ["--q0", "1", "--steps", "5", "--t-max", "1"],
    "classical-propagate": ["--center-q", "0.3", "--sigma", "0.1", "--time", "0.5",
                            "--extent", "1", "--points", "5"],
    "quantum-evolve": ["--state", "vacuum", "--dim", "2", "--time", "0.5"],
    "wigner": ["--state", "vacuum", "--dim", "2", "--extent", "1", "--points", "3",
               "--variant", "usual-parity", "--pad", "0"],
    "tomogram": ["--source", "classical", "--center-q", "0.3", "--sigma", "0.1",
                 "--time", "0.5", "--x-points", "5"],
    "coherent": ["--alpha-re", "0.001", "--dim", "3"],
    "two-mode": ["--alpha1-re", "1e-7", "--alpha2-re", "1e-7", "--dim1", "2", "--dim2", "2"],
}
_PROFILE_FLAGS = st.one_of(
    st.just(["--kind", "identity"]),
    st.floats(0.01, 1.0).map(lambda lam: ["--kind", "q", "--lambda", repr(lam)]),
    st.floats(0.0, 0.5).map(lambda chi: ["--kind", "kerr", "--chi", repr(chi)]),
    st.lists(st.floats(1.0, 2.0), min_size=3, max_size=6, unique=True).map(
        lambda table: ["--kind", "custom", "--table", ",".join(map(repr, sorted(table)))]),
)
_PROFILE_ARGV = st.builds(lambda name, profile: [name, *_PROFILE_RUNS[name], *profile],
                          st.sampled_from(sorted(_PROFILE_RUNS)), _PROFILE_FLAGS)


def _readme_examples(test):
    """The README commands, without their --output, as explicit examples."""
    for line in _README_COMMANDS:
        argv = shlex.split(line)[1:]
        at = argv.index("--output")
        test = example(argv=argv[:at] + argv[at + 2:])(test)
    return test


@settings(max_examples=40)
@given(argv=_PROFILE_ARGV)
@_readme_examples
def test_sidecar_parameters_replay_the_run(argv):
    # the sidecar recorded the profile as four flag fields, three of them
    # null, which --config refused: 7 of the 8 README commands exited 2
    with tempfile.TemporaryDirectory() as workdir:
        first, again, config = (os.path.join(workdir, name) for name in ("a", "b", "cfg.json"))
        assert main(argv + ["--output", first]) == 0
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(_read_sidecar(first)["parameters"], fh)
        assert main(argv + ["--config", config, "--output", again]) == 0
        for suffix in ("", ".meta.json"):
            assert Path(first + suffix).read_bytes() == Path(again + suffix).read_bytes()


def _one_error_line(capsys, message):
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_non_finite_check_value_is_not_ok_and_is_strict_json(tmp_path, capsys):
    # the grid sum overflows; the sidecar held "value": Infinity with status ok
    out = tmp_path / "w.csv"
    assert main(["wigner", "--extent", "1e300", "--points", "3", "--output", str(out)]) == 3
    assert capsys.readouterr().err == "numeric tolerance failure: normalization\n"
    meta = _read_sidecar(out)
    assert meta["checks"]["normalization"] == {"value": "inf", "threshold": None, "ok": False}
    assert meta["status"] == "tolerance-breach"
    assert out.exists()


@pytest.mark.parametrize("argv, message", [
    (["tomogram", "--x-points", "1"], "--x-points must be >= 2"),
    (["tomogram", "--x-min", "1", "--x-max", "1"], "--x-max must exceed --x-min"),
    (["coherent", "--wavefunction", "--x-max", "-7"], "--x-max must exceed --x-min"),
    (["wigner", "--points", "1"], "--points must be >= 2"),
    (["classical-propagate", "--extent", "0"], "--extent must be > 0"),
    (["classical-trajectory", "--steps", "0"], "--steps must be >= 1"),
    (["thermo", "--beta-steps", "0"], "--beta-steps must be >= 1"),
    (["thermo", "--beta-steps", "1", "--beta-min", "1", "--beta-max", "2"],
     "one step needs --beta-min == --beta-max"),
    (["thermo", "--beta-min", "2", "--beta-max", "1"], "--beta-max must exceed --beta-min"),
    # a span past the float range: linspace stepped by inf, so coherent wrote
    # an x column of nan, inf, 1e308 with status ok, and the others failed
    # further on, after numpy warnings
    (["coherent", "--wavefunction", "--x-min=-1e308", "--x-max=1e308", "--x-points", "3"],
     "--x-max - --x-min overflows the float range"),
    (["tomogram", "--x-min=-1e308", "--x-max=1e308", "--x-points", "3"],
     "--x-max - --x-min overflows the float range"),
    (["wigner", "--extent", "1e308", "--points", "3"], "2 * --extent overflows the float range"),
    (["classical-propagate", "--extent", "1e308", "--points", "3"],
     "2 * --extent overflows the float range"),
])
def test_range_checks_exit_2_with_one_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out.dat"
    assert main(argv + ["--output", str(out)]) == 2
    _one_error_line(capsys, message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["quantum-evolve", "--time", "0.5"],
    ["wigner", "--extent", "6", "--points", "5"],
    ["tomogram", "--mu", "0.6", "--nu", "0.8", "--x-points", "9"],
], ids=lambda argv: argv[0])
def test_nonlinear_coherent_state_selector(tmp_path, capsys, argv):
    state = ["--kind", "kerr", "--chi", "0.1", "--state", "nl-coherent:0.8,0.3"]
    out = tmp_path / "out.dat"
    assert main(argv + state + ["--dim", "30", "--output", str(out)]) == 0
    assert _read_sidecar(out)["status"] == "ok"
    if argv[0] == "quantum-evolve":
        expected = evolve_density(nonlinear_coherent_state(0.8 + 0.3j, kerr(0.1), 30).density(),
                                  kerr(0.1), 0.5)
        np.testing.assert_array_equal(DensityMatrix.from_dict(json.loads(out.read_text())).matrix,
                                      expected.matrix)
    # the top weight of the truncated state must stay below 1e-12
    refused = tmp_path / "refused.dat"
    assert main(argv + state + ["--dim", "6", "--output", str(refused)]) == 2
    _one_error_line(capsys, "top weight 3.544e-04 exceeds the tail criterion; increase dim")
    assert not refused.exists()


def test_custom_profile_with_a_zero_level_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "amps.csv"
    assert main(["coherent", "--kind", "custom", "--table", "1,0,1", "--dim", "3",
                 "--output", str(out)]) == 2
    _one_error_line(capsys, "profile hits f(1) <= 0")
    assert not out.exists()


def test_classical_flow_on_a_custom_table(tmp_path, capsys):
    # an energy inside the table runs; past its last sample (E = 2) the
    # table has no value
    profile = ["classical-trajectory", "--kind", "custom", "--table", "1,1.1,1.3", "--steps", "20"]
    out = tmp_path / "traj.csv"
    assert main(profile + ["--q0", "1.2", "--output", str(out)]) == 0
    assert _read_sidecar(out)["status"] == "ok"
    refused = tmp_path / "refused.csv"
    assert main(profile + ["--q0", "2.1", "--output", str(refused)]) == 2
    _one_error_line(capsys, "custom table covers [0, 2] only")
    assert not refused.exists()


@pytest.mark.parametrize("q0", ["1.5", "1.9"])
def test_flow_on_a_custom_table_keeps_its_invariants(tmp_path, q0):
    # the exact slope of the table's segment: a central difference of f left
    # invariant_spread at 1.7e-9 and 2.0e-9, past its 1e-9 threshold
    out = tmp_path / "traj.csv"
    assert main(["classical-trajectory", "--kind", "custom", "--table", "1,1.1,1.3",
                 "--q0", q0, "--output", str(out)]) == 0
    assert _read_sidecar(out)["checks"]["invariant_spread"]["value"] < 1e-13


def test_flow_on_a_table_knot_is_flagged(tmp_path, capsys):
    # E0 = 2 sits on a knot, where omega jumps by 0.6; the energies recomputed
    # from the written points round to both sides of it, so the invariants
    # read back from them split, and the run says so
    out = tmp_path / "traj.csv"
    assert main(["classical-trajectory", "--kind", "custom", "--table", "1,1.1,1.3,1.2",
                 "--q0", "2", "--output", str(out)]) == 3
    assert capsys.readouterr().err == "numeric tolerance failure: invariant_spread\n"
    assert _read_sidecar(out)["checks"]["invariant_spread"]["value"] > 1.0


@pytest.mark.parametrize("field, value, message", [
    ("dim", "x", "density field 'dim' must be an integer >= 0: 'x' is not an integer"),
    ("re", "x", "density field 're' must be a number, got 'x'"),
], ids=["dim", "re"])
def test_state_file_with_a_field_that_does_not_convert_exits_2_with_one_line(
        tmp_path, capsys, field, value, message):
    data = coherent_density(0.5, 12).to_dict()
    data[field] = value
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(data))
    out = tmp_path / "evolved.json"
    assert main(["quantum-evolve", "--state", f"file:{state_path}", "--dim", "12",
                 "--output", str(out)]) == 2
    _one_error_line(capsys, message)
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ([{"g": 0.1}], "config must be a JSON object"),
    ({"nonlinearity": "kerr"}, "nonlinearity description needs a 'kind' field"),
    ({"nonlinearity": {"chi": 0.1}}, "nonlinearity description needs a 'kind' field"),
    ({"nonlinearity": {"kind": "kerr", "chi": 0.1, "lambda": 0.2, "bogus": 1}},
     "nonlinearity description has an unknown field 'bogus'"),
    ({"format": "json"}, "unknown config field 'format' for coherent"),
    # spec_from_dict reads the block: the CLI read these three as tables
    ({"nonlinearity": {"kind": "custom", "table": "1,1.1,1.2"}},
     "custom profile field 'table' must be a number, got '1,1.1,1.2'"),
    ({"nonlinearity": {"kind": "custom", "table": [1, True, 1.2]}},
     "custom profile field 'table' must be a number, got True"),
    ({"nonlinearity": {"kind": "custom", "table": [[1, 2], [3]]}},
     "custom profile field 'table' must be a number, got [1, 2]"),
    # a block next to a profile key: the block first exited 2, the key first
    # exited 0 and dropped chi
    ({"nonlinearity": {"kind": "q", "lambda": 0.1}, "chi": 0.3},
     "config gives both a 'nonlinearity' block and the profile field 'chi'"),
    ({"chi": 0.3, "nonlinearity": {"kind": "q", "lambda": 0.1}},
     "config gives both a 'nonlinearity' block and the profile field 'chi'"),
], ids=["list", "string-block", "block-without-kind", "unknown-block-field", "format",
        "table-string", "table-bool", "table-nested", "block-then-field", "field-then-block"])
def test_bad_config_exits_2_with_one_line(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "amps.csv"
    assert main(["coherent", "--config", str(cfg), "--output", str(out)]) == 2
    _one_error_line(capsys, message)
    assert not out.exists()


@pytest.mark.parametrize("argv, config, flags", [
    (["classical-trajectory", "--q0", "1.2", "--steps", "20"],
     {"nonlinearity": {"kind": "custom", "table": [1, 1.25, 1.5]}},
     ["--kind", "custom", "--table", "1,1.25,1.5"]),
    (["coherent", "--alpha-re", "0.7", "--dim", "30", "--x-points", "11"],
     {"wavefunction": True}, ["--wavefunction"]),
    # a top-level "table" was refused unless it was comma text
    (["coherent", "--kind", "custom", "--alpha-re", "1e-7", "--dim", "2"],
     {"table": [1, 1.1]}, ["--table", "1,1.1"]),
    (["coherent", "--kind", "custom", "--alpha-re", "1e-7", "--dim", "2"],
     {"table": "1,1.1"}, ["--table", "1,1.1"]),
], ids=["table-list", "wavefunction", "top-level-table-list", "top-level-table-text"])
def test_config_gives_the_artifact_of_its_flags(tmp_path, argv, config, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--config", str(cfg), "--output", str(a)]) == 0
    assert main(argv + flags + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert _read_sidecar(a) == _read_sidecar(b)


def test_table_entry_that_is_not_a_number_exits_2_with_one_line(tmp_path, capsys):
    # float() printed its bare message, naming neither the flag nor the field
    out = tmp_path / "amps.csv"
    assert main(["coherent", "--kind", "custom", "--table", "1,x,1.2", "--output", str(out)]) == 2
    _one_error_line(capsys, "--table must be comma-separated numbers, got '1,x,1.2'")
    assert not out.exists()


@pytest.mark.parametrize("profile", [
    ["--kind", "kerr", "--chi", "0.1"],
    ["--kind", "custom", "--table", ",".join(f"{1 + 0.01 * k:g}" for k in range(25))],
], ids=["kerr", "custom"])
def test_two_mode_profile_is_a_config_block(tmp_path, profile):
    # the "nonlinearity" object of a two-mode artifact is the JSON form a
    # config block takes, and rebuilds the same artifact
    argv = ["two-mode", "--dim1", "12", "--dim2", "12", "--alpha1-re", "0.5", "--alpha2-re", "0.4"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + profile + ["--output", str(a)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonlinearity": json.loads(a.read_text())["nonlinearity"]}))
    assert main(argv + ["--config", str(cfg), "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert _read_sidecar(a) == _read_sidecar(b)


def test_format_flag_is_gone(capsys):
    for name in _COMMAND_TABLE:
        with pytest.raises(SystemExit):
            main([name, "--help"])
        assert "--format" not in capsys.readouterr().out
    assert main(["wigner", "--format", "json"]) == 2
    _one_error_line(capsys, "fosc: unrecognized arguments: --format json")


def test_each_command_writes_one_encoding_under_its_default_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in _COMMAND_TABLE:
        assert main([name]) == 0
    json_commands = {"quantum-evolve", "two-mode"}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.{'json' if name in json_commands else 'csv'}{meta}"
        for name in _COMMAND_TABLE for meta in ("", ".meta.json"))
    for name in json_commands:
        artifact = json.loads((tmp_path / f"{name}.json").read_text())
        assert "columns" not in artifact and "rows" not in artifact
