"""Command-line front end: artifacts, sidecars, exit codes, determinism."""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import foscillator
from foscillator import (
    DensityMatrix,
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
    wigner_from_density,
)
from foscillator.cli import _COMMAND_TABLE, main


def _read_sidecar(path):
    with open(str(path) + ".meta.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


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


def test_frequency_overflow_exits_2_with_one_line(tmp_path):
    # lam E = 1003.52: f is finite there, the canonical frequency is not
    out = tmp_path / "traj.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "foscillator", "classical-trajectory", "--kind", "q",
         "--lambda", "1", "--q0", "44.8", "--law", "canonical", "--output", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: the canonical frequency overflows at E = 1003.5199999999999"]
    assert list(tmp_path.iterdir()) == []


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
    assert meta["checks"]["wave_norm_residual"]["value"] < 1e-6


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
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite" in err
    assert not out.exists()


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
    assert meta["parameters"]["kind"] == "kerr"
    assert meta["parameters"]["chi"] == 0.5


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
    proc = subprocess.run(
        [sys.executable, "-m", "foscillator", "thermo", "--beta-min", "1",
         "--beta-max", "2", "--output", str(out)],
        capture_output=True, text=True,
    )
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
    proc = subprocess.run(
        [sys.executable, "-m", "foscillator", "thermo", "--beta-steps", "many",
         "--output", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: fosc thermo: argument --beta-steps: invalid int value: 'many'"]
    assert not out.exists()


def test_missing_profile_parameter_exits_2(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["quantum-evolve", "--kind", "q", "--output", str(out)]) == 2
    assert main(["quantum-evolve", "--kind", "kerr", "--output", str(out)]) == 2


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
    proc = subprocess.run(
        [sys.executable, "-m", "foscillator", "coherent", "--kind", "q", "--lambda", "1",
         "--dim", "1500", "--output", str(out)],
        capture_output=True, text=True,
    )
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
    package_root = str(Path(foscillator.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "foscillator"] + argv,
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    output = argv[argv.index("--output") + 1]
    assert _read_sidecar(tmp_path / output)["status"] == "ok"
