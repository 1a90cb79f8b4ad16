"""Tests of the benchmark itself: run with ``python3 -m pytest foscbench/tests``
from the root of a source checkout."""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import foscillator  # noqa: E402
import oracles  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "foscbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    first = workloads.op_list(workload, 7, 60)
    assert first == workloads.op_list(workload, 7, 60)
    assert first != workloads.op_list(workload, 8, 60)


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_printed_metrics_are_declared(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    if trace == "0":
        assert result["correct"] and result["attempted"] % workloads.block_length(workload) == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = os.path.join(run.WORK, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "foscbench"),
                        ignore=shutil.ignore_patterns("__pycache__", "tests"))
        proc = _bench("--workload", "wigner_maps", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def _calls():
    rho = foscillator.coherent_density(0.7 - 0.2j, 30)
    axis = np.linspace(-6.0, 6.0, 17)
    spec = foscillator.kerr(0.1)
    return [
        foscillator.wigner_from_density(rho, axis, axis).values,
        foscillator.deformed_wigner(rho, spec, axis[::4], axis[::4], workers=2).values,
        foscillator.quantum_tomogram(rho, 0.6, 0.8, axis).values,
        foscillator.evolve_density(rho, spec, 1.3).matrix,
        foscillator.nonlinear_coherent_state(0.5, spec, 30).amplitudes,
        foscillator.deformed_partition(0.7, 1e-3).energy,
    ]


def test_wrapped_functions_return_identical_results():
    plain = _calls()
    tracer = tracing.Tracer(foscillator)
    tracer.install()
    try:
        traced = _calls()
    finally:
        tracer.restore()
    for a, b in zip(plain, traced):
        np.testing.assert_array_equal(a, b)
    names = {s.name for s in tracer.spans}
    assert {"wigner.wigner_from_density", "fock.evolve_density", "hermite.hermite_functions",
            "thermo.thermal_series", "nonlinearity.eval_f"} <= names


def _wrapped_attributes():
    return [(name, attr) for name, module in sys.modules.items()
            if name == "foscillator" or name.startswith("foscillator.")
            for attr, value in vars(module).items() if hasattr(value, "__wrapped_original__")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_restores_every_wrapper(workload):
    workdir = os.path.join(run.WORK, f"test-{workload}")
    os.makedirs(workdir, exist_ok=True)
    try:
        metrics, tally = run.run_traced(workload, 5, 0.3, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert tally.attempted >= 2
    assert sum(metrics[f"{layer}.calls"] for layer in tracing.LAYERS) > 0
    assert _wrapped_attributes() == []


def test_tracer_rebinds_consumer_modules():
    tracer = tracing.Tracer(foscillator)
    bound = {(module.__name__, attr) for module, attr, _, _ in tracer.bindings}
    assert ("foscillator.cli", "wigner_from_density") in bound
    assert ("foscillator.tomography", "hermite_functions") in bound
    assert ("foscillator", "wigner_from_density") in bound


def test_self_time_subtracts_children():
    spans = [tracing.Span(0, None, 1, "wigner.deformed_wigner", 0.0, 10.0, False),
             tracing.Span(1, 0, 1, "fock.deformed_lowering", 1.0, 3.0, False),
             tracing.Span(2, 0, 1, "nonlinearity.eval_f", 2.0, 4.0, False)]
    assert tracing.self_times(spans) == {0: 7.0, 1: 2.0, 2: 2.0}


def test_oracles_reject_wrong_outputs():
    op = {"kind": "wigner_std", "dim": 30, "state": {"kind": "coherent", "alpha": [0.5, 0.5]}}
    rho, w = ops.run_op(foscillator, op)
    oracles.check_op(op, (rho, w))
    with pytest.raises(oracles.OracleMiss):
        oracles.check_op(op, (rho, w * (1.0 + 1e-6)))
    op = {"kind": "thermo_deformed", "beta": 0.8, "g": 1e-3}
    rep = ops.run_op(foscillator, op)
    oracles.check_op(op, rep)
    with pytest.raises(oracles.OracleMiss):
        oracles.check_op({**op, "g": 1.1e-3}, rep)


def test_ops_process_loads_nothing_the_package_does_not():
    # The worker's start-up time and memory must be the library's own.
    probe = ("import sys, foscillator; before = set(sys.modules); import ops, pickle; "
             "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in ('numpy', 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=BENCH, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_worker_runs_ops_like_this_interpreter():
    op = {"kind": "thermo_linear", "beta": 0.3, "g": 1e-3}
    worker = run.Worker(run.WORK)
    os.makedirs(run.WORK, exist_ok=True)
    try:
        seconds, status, report = worker.call(op)
        assert worker.setup_s >= seconds > 0.0
        assert status == "ok" and report == ops.run_op(foscillator, op)
        assert worker.call({**op, "beta": 1e-7})[1] == "refused"
    finally:
        assert worker.close() > 0


# Known library defects that the workloads draw around (manifest.json,
# known_defects).  Each test states the right behaviour and is expected to fail;
# once one passes, the fix has landed and the workload may widen its draws again.


@pytest.mark.xfail(strict=True, raises=oracles.OracleMiss,
                   reason="quantum_tomogram gives the distribution of mu q - nu p, not mu q + nu p")
def test_coherent_tomogram_with_complex_alpha():
    op = {"kind": "tomogram", "dim": 40, "state": {"kind": "coherent", "alpha": [0.6, 0.9]}, "ray": [0.6, 0.8]}
    oracles.check_op(op, ops.run_op(foscillator, op))


@pytest.mark.xfail(strict=True, raises=foscillator.SeriesDivergenceError,
                   reason="the thermal series stops converging at small beta (linear_thermo"
                           " below ~4e-5, deformed_partition below ~1.25e-4)")
@pytest.mark.parametrize("kind", ["thermo_linear", "thermo_deformed"])
def test_thermo_at_high_temperature(kind):
    op = {"kind": kind, "beta": 2e-5, "g": 1e-3}
    oracles.check_op(op, ops.run_op(foscillator, op))


def test_thermo_draws_stay_where_the_series_converges():
    betas = [op["beta"] for op in workloads.op_list("state_pipeline", 11, 400) if "beta" in op]
    assert betas and min(betas) >= workloads.THERMO_BETA_MIN
    for beta in (workloads.THERMO_BETA_MIN, 5.0):
        for kind in ("thermo_linear", "thermo_deformed"):
            op = {"kind": kind, "beta": beta, "g": 1e-2}
            oracles.check_op(op, ops.run_op(foscillator, op))
