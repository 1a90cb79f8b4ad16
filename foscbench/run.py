"""foscillator benchmark: run one workload from a seed, print one JSON result.

    python3 foscbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, so nothing needs installing.  Workloads are listed in
``BENCHMARK.json`` and built in ``workloads.py``.

One client, closed loop: the next op starts when the previous one has been
timed and checked.  ``--trace 0`` prints the end-to-end metrics: set-up time
(median over fresh ``worker.py`` interpreters, launched at even intervals
of the run, that import the package and run one untimed warm-up op),
latency median and tail, completed ops per second of timed time, the share
of ops that completed, and peak resident memory of the process that ran the
ops.  That process is a worker, which
loads only the package and the op bodies (``ops.py``), or for
``cli_readme`` the largest ``fosc`` process; this driver, which builds the
ops and checks them, stays out of both set-up time and memory.
``--trace 1`` runs each op twice in this interpreter, untraced and traced in
alternating order, and prints the per-layer metrics of the traced runs plus
the tracing overhead; ``import.*`` comes from ``-X importtime`` in a fresh
interpreter.  Every op's output goes through an oracle in ``oracles.py``; an
op that raises, exits non-zero or misses its oracle counts as failed and
makes ``correct`` false: the workloads draw only inputs the library handles.

The last line of stdout is the JSON result; a failure summary goes to
stderr.  Work files live under ``.foscbench-work/`` in the checkout, and a
traced run leaves its spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

# One BLAS thread per process, set before numpy loads anywhere: the only extra
# threads are then the ones foscillator starts itself (the deformed Wigner
# pool), and runs do not hinge on how busy the other cores are.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import oracles  # noqa: E402  (numpy loads after the setting above)
import ops  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".foscbench-work")
SETUP_PROBES = 5
IMPORTTIME_RUNS = 3
# ROOT is missing the package: exit with this code before printing anything.
EXIT_NO_SOURCE = 2
# Outputs of the ops come back pickled and may hold foscillator objects.
sys.path.insert(0, SRC)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = min(len(ordered), max(1, math.ceil(pct / 100.0 * len(ordered))))
    return ordered[k - 1]


class Tally:
    """Outcomes and timings of the ops of one loop."""

    def __init__(self):
        self.durations = []
        self.outcomes = Counter()
        self.reasons = Counter()

    def add(self, duration: float, outcome: str, reason: str = "") -> None:
        self.durations.append(duration)
        self.outcomes[outcome] += 1
        if outcome != "ok":
            self.reasons[f"{outcome}: {reason}"[:160]] += 1

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes["ok"]

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def absorb(self, other: "Tally") -> None:
        self.durations += other.durations
        self.outcomes.update(other.outcomes)
        self.reasons.update(other.reasons)


class Worker:
    """A fresh ``worker.py`` interpreter that runs ops sent to it.

    It starts on the first ``call``; ``setup_s`` is then the time from launch
    to that call's reply.  ``close`` ends it and returns its peak resident
    memory in KiB.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.proc = None
        self.setup_s = None

    def call(self, op: dict, wrap=None):
        if wrap is not None:
            raise ValueError("ops in a worker process run untraced")
        if self.proc is not None:
            return self._ask(op)
        start = time.perf_counter()
        with open(os.path.join(self.workdir, "stderr.txt"), "ab") as err:
            self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")], cwd=self.workdir,
                                         env=_child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=err)
        reply = self._ask(op)
        self.setup_s = time.perf_counter() - start
        return reply

    def _ask(self, op: dict):
        pickle.dump(op, self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            raise RuntimeError("worker process ended early; see stderr.txt in the work directory") from None

    def close(self) -> int:
        if self.proc is None:
            return 0
        proc, self.proc = self.proc, None
        proc.stdin.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"worker process exited with code {code}")
        return usage.ru_maxrss


class CliSubprocess:
    """Runs each README command as ``python3 -m foscillator`` in a fresh
    process and keeps the largest peak resident memory among them."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.env = _child_env()
        self.peak_rss_kb = 0

    def call(self, op: dict, wrap=None):
        argv = [sys.executable, "-m", "foscillator"] + op["argv"]
        with open(os.path.join(self.workdir, "stderr.txt"), "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return seconds, "ok", code


class Runner:
    """Runs the ops of one workload through ``call`` and checks each output.

    ``call(op, wrap)`` returns ``(seconds, status, payload)`` as
    ``ops.attempt`` does; a README command's payload is its exit code.
    Checks are not timed.  A call with ``wrap`` (the traced run) also counts
    the CSV rows and bytes a README command wrote.
    """

    def __init__(self, workload: str, workdir: str, call=None):
        self.cli = workload == "cli_readme"
        self.workdir = workdir
        self.call = call
        self.oracle = oracles.CliOracle()
        self.rows = 0
        self.bytes = 0

    def execute(self, op: dict, tally: Tally, wrap=None) -> None:
        if self.cli:
            self._execute_cli(op, tally, wrap)
            return
        seconds, status, payload = self.call(op, wrap)
        if status != "ok":
            tally.add(seconds, status, payload)
            return
        try:
            oracles.check_op(op, payload)
        except oracles.OracleMiss as exc:
            tally.add(seconds, "miss", f"{op['kind']} {exc}")
            return
        tally.add(seconds, "ok")

    def _execute_cli(self, op: dict, tally: Tally, wrap) -> None:
        command = op["command"]
        workloads.clear_cli_output(command, self.workdir)
        seconds, status, code = self.call({**op, "argv": workloads.cli_argv(command, self.workdir)}, wrap)
        if status != "ok":
            tally.add(seconds, status, code)
            return
        artifact, sidecar = outputs = workloads.read_cli_output(command, self.workdir)
        if wrap is not None:
            self.bytes += len(artifact or b"") + len(sidecar or b"")
            if artifact and workloads.cli_output(command, self.workdir).endswith(".csv"):
                self.rows += artifact.count(b"\n") - 1
        try:
            self.oracle.check(command, code, *outputs)
        except oracles.OracleMiss as exc:
            # 2 and 3 are the CLI's declared refusals; any other non-zero exit is a crash.
            outcome = "miss" if code == 0 else "refused" if code in (2, 3) else "crash"
            tally.add(seconds, outcome, str(exc))
            return
        tally.add(seconds, "ok")


def warm_up(runner: Runner, workload: str) -> None:
    tally = Tally()
    runner.execute(workloads.WARMUP[workload], tally)
    if tally.failed:
        raise RuntimeError(f"warm-up op failed: {list(tally.reasons)}")


def import_times(workdir: str) -> dict:
    """``import.*`` metrics from ``-X importtime``, median over fresh interpreters."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import foscillator"],
                              cwd=workdir, env=_child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        self_us = Counter()
        total_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            own, cumulative, name = (field.strip() for field in line[len("import time:"):].split("|"))
            top = name.split(".")[0]
            self_us[top] += int(own)
            if name == "foscillator":
                total_us = int(cumulative)
        runs.append({"import.total_s": total_us * 1e-6, "import.scipy_s": self_us["scipy"] * 1e-6,
                     "import.numpy_s": self_us["numpy"] * 1e-6,
                     "import.foscillator_self_s": self_us["foscillator"] * 1e-6})
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def probe_setup(runner: Runner, workload: str, workdir: str) -> float:
    """Launch-to-reply time of a fresh worker that runs the warm-up op."""
    call, worker = runner.call, Worker(workdir)
    runner.call = worker.call
    try:
        warm_up(runner, workload)
    finally:
        runner.call = call
        worker.close()
    return worker.setup_s


def run_untraced(workload: str, seed: int, seconds: float, workdir: str, tail_pct: float):
    """End-to-end metrics.  ``setup_s`` is the median launch-to-reply time
    of ``SETUP_PROBES`` fresh workers that each load the package and run the
    warm-up op.  The timed loop runs for ``seconds`` and then on to the end
    of the current block of ops, so that every op kind keeps its share and
    the latency percentiles do not hinge on where the time ran out.  The
    first worker runs the timed ops (for ``cli_readme``
    each op is a fresh ``fosc`` process instead); the others are launched
    at even intervals of the timed loop, which pauses for them, so that the
    median covers the same stretch of time as the ops."""
    runner = Runner(workload, workdir)
    worker = Worker(workdir)
    try:
        runner.call = worker.call
        warm_up(runner, workload)
        samples = [worker.setup_s]
        if runner.cli:
            worker.close()
            commands = CliSubprocess(workdir)
            runner.call = commands.call
        tally, block = Tally(), workloads.block_length(workload)
        start, paused = time.perf_counter(), 0.0
        for op in workloads.op_stream(workload, seed):
            runner.execute(op, tally)
            elapsed = time.perf_counter() - start - paused
            if len(samples) < SETUP_PROBES and elapsed >= seconds * len(samples) / SETUP_PROBES:
                before = time.perf_counter()
                samples.append(probe_setup(runner, workload, workdir))
                paused += time.perf_counter() - before
            if elapsed >= seconds and tally.attempted % block == 0:
                break
        while len(samples) < SETUP_PROBES:
            samples.append(probe_setup(runner, workload, workdir))
        rss_kb = commands.peak_rss_kb if runner.cli else worker.close()
    finally:
        if worker.proc is not None:
            worker.proc.kill()
            worker.proc.wait()
    metrics = {
        "setup_s": statistics.median(samples),
        "latency_s.p50": statistics.median(tally.durations),
        "latency_s.tail": percentile(tally.durations, tail_pct),
        "ops_per_s": tally.outcomes["ok"] / sum(tally.durations),
        "ok_ops_ratio": tally.outcomes["ok"] / tally.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return metrics, tally


def run_traced(workload: str, seed: int, seconds: float, workdir: str):
    """Per-layer metrics: each op runs twice in this interpreter, untraced
    and traced, in alternating order."""
    import foscillator

    imports = import_times(workdir)
    declared = ops.declared_errors(foscillator)
    runner = Runner(workload, workdir, lambda op, wrap: ops.attempt(foscillator, op, declared, wrap))
    warm_up(runner, workload)
    tracer = tracing.Tracer(foscillator)
    plain, traced = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    for i, op in enumerate(workloads.op_stream(workload, seed)):
        # Alternate which of the pair runs first, so warm caches favour neither.
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                runner.execute(op, plain)
                continue
            tracer.install()
            try:
                runner.execute(op, traced, lambda call, i=i: tracer.run_op(i, call))
            finally:
                tracer.restore()
        if time.perf_counter() >= deadline:
            break
    tracer.write(os.path.join(WORK, f"spans-{workload}-seed{seed}.jsonl"))
    metrics = tracing.layer_metrics(tracer.spans)
    metrics.update(imports)
    metrics["cli.rows_written"] = runner.rows
    metrics["cli.bytes_written"] = runner.bytes
    metrics["trace.overhead_ratio"] = sum(traced.durations) / sum(plain.durations) - 1.0
    plain.absorb(traced)
    return metrics, plain


def main(argv=None) -> int:
    bench = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [wl["name"] for wl in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "foscillator", "__init__.py")):
        print(f"no foscillator sources under {SRC}; run from a source checkout", file=sys.stderr)
        return EXIT_NO_SOURCE

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            metrics, tally = run_traced(args.workload, args.seed, args.seconds, workdir)
        else:
            tail_pct = _load_json(os.path.join(HERE, "manifest.json"))["tail_percentile"][args.workload]
            metrics, tally = run_untraced(args.workload, args.seed, args.seconds, workdir, tail_pct)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    for reason, count in tally.reasons.most_common():
        print(f"{count:6d}  {reason}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {tally.attempted} ops, {tally.failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
