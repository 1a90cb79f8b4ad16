"""Span tracing from outside the library: timing wrappers around public functions.

``Tracer`` rebinds each layer module's public functions to wrappers, both in
the package namespace and in every ``foscillator.*`` module that imported
them by name (``foscillator.cli.wigner_from_density``,
``foscillator.tomography.hermite_functions`` and so on), and puts the
originals back on ``restore``.  Each wrapper records a span: name, start,
end, parent span, op id, and whether it raised.  Spans stay in memory until
``write`` dumps them.

A layer's self time is the sum over its spans of each span's duration minus
the part of it that child spans cover.  Parents are tracked per thread, so a
call made on a worker thread the library starts is never taken for a child
of whatever the main thread is doing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Library modules, i.e. the layers, in dependency order.
LAYERS = ("cli", "nonlinearity", "classical", "fock", "hermite", "wigner",
          "tomography", "coherent", "thermo")
OP_SPAN = "bench.op"

_STANDARD_WIGNER = {"wigner_from_density", "wigner_values", "displacement_matrix"}
_DEFORMED_WIGNER = {"deformed_wigner", "deformed_wigner_values"}
_STATE_BUILDERS = {"coherent_density", "fock_density", "vacuum_density", "density_from_amplitudes"}
_CLASSICAL_SLICES = {"radon_classical", "classical_tomogram_evolved"}
# Entries of rho below this magnitude are skipped by the standard Wigner sum.
_RHO_SKIP = 1e-16


def _points(result) -> int:
    return int(np.size(getattr(result, "values", result)))


def _standard_note(args, result) -> dict:
    rho = np.asarray(args["rho"].matrix)
    return {"points": _points(result), "populated": int(np.count_nonzero(np.abs(rho) >= _RHO_SKIP)),
            "entries": int(rho.size)}


def _deformed_note(args, result) -> dict:
    workers = args.get("workers")
    points = _points(result)
    return {"points": points, "threaded": workers is not None and workers > 1 and points > 1}


def _slice_note(args, result) -> dict:
    return {"x_points": int(np.size(args["x_axis"]))}


# Counts recorded at the boundary, from a call's bound arguments and result.
_NOTES = {
    "wigner.wigner_from_density": _standard_note,
    "wigner.wigner_values": _standard_note,
    "wigner.deformed_wigner": _deformed_note,
    "wigner.deformed_wigner_values": _deformed_note,
    "tomography.quantum_tomogram": _slice_note,
    "tomography.radon_classical": _slice_note,
    "tomography.classical_tomogram_evolved": _slice_note,
}


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    op: Optional[int]
    name: str
    start: float
    end: float
    failed: bool
    note: Optional[dict] = None

    @property
    def layer(self) -> str:
        return self.name.rsplit(".", 1)[0]

    @property
    def function(self) -> str:
        return self.name.rsplit(".", 1)[1]

    @property
    def duration(self) -> float:
        return self.end - self.start


def public_functions(package):
    """(layer, name, function) for each public function of each layer module.

    Public means exported by the package's ``__all__``; ``cli`` is not
    re-exported, so there it means every function without a leading
    underscore (``main`` and ``build_parser``).
    """
    exported = set(package.__all__)
    for layer in LAYERS:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        for name, obj in vars(module).items():
            if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                continue
            if name in exported or (layer == "cli" and not name.startswith("_")):
                yield layer, name, obj


class Tracer:
    """Install/restore timing wrappers and collect spans."""

    def __init__(self, package):
        self.spans: list = []
        self.op_id: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()
        wrappers = {id(fn): (fn, self._wrap(f"{layer}.{name}", fn))
                    for layer, name, fn in public_functions(package)}
        prefix = package.__name__ + "."
        self.bindings = []  # (module, attribute, original, wrapper)
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self.bindings.append((module, attr) + wrappers[id(value)])

    def install(self) -> None:
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, call, note=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        failed = True
        start = time.perf_counter()
        try:
            result = call()
            failed = False
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, self.op_id, name, start, end, failed,
                                   None if failed or note is None else note(result)))

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            noted = None
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                noted = functools.partial(note, bound.arguments)
            return self._record(name, lambda: fn(*args, **kwargs), noted)

        wrapper.__wrapped_original__ = fn
        return wrapper

    def run_op(self, op_id: int, call):
        """Run one op under a root span, so library spans carry its id."""
        self.op_id = op_id
        try:
            return self._record(OP_SPAN, call)
        finally:
            self.op_id = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "parent": s.parent, "op": s.op, "name": s.name,
                                     "start": s.start, "end": s.end, "failed": s.failed}) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Self time of each span id: its duration minus what its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - _covered(children.get(s.sid, ()), s.start, s.end) for s in spans}


def layer_metrics(spans) -> dict:
    """Per-layer metrics (seconds, counts, ratios) from one traced run's spans."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    out = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        out[f"{layer}.self_s"] = sum(own[s.sid] for s in mine)
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.failed"] = sum(s.failed for s in mine)

    # Outermost call of a layer: entered from the benchmark or another layer.
    top = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if s.layer in LAYERS and (parent is None or parent.layer != s.layer):
            top[s.layer].append(s)

    def total(layer, names, keep=lambda s: True):
        return sum(s.duration for s in top[layer] if s.function in names and keep(s))

    def noted(layer, names, key):
        return sum(s.note[key] for s in top[layer] if s.function in names and s.note)

    threaded = lambda s: bool(s.note and s.note["threaded"])
    entries = noted("wigner", _STANDARD_WIGNER, "entries")
    out.update({
        "wigner.standard_s": total("wigner", _STANDARD_WIGNER),
        "wigner.deformed_serial_s": total("wigner", _DEFORMED_WIGNER, lambda s: not threaded(s)),
        "wigner.deformed_threaded_s": total("wigner", _DEFORMED_WIGNER, threaded),
        "wigner.grid_points": noted("wigner", _STANDARD_WIGNER, "points"),
        "wigner.deformed_points": noted("wigner", _DEFORMED_WIGNER, "points"),
        "wigner.rho_populated_ratio":
            noted("wigner", _STANDARD_WIGNER, "populated") / entries if entries else 0.0,
        "fock.evolve_density_s": total("fock", {"evolve_density"}),
        "fock.state_build_s": total("fock", _STATE_BUILDERS),
        "tomography.quantum_s": total("tomography", {"quantum_tomogram"}),
        "tomography.classical_s": total("tomography", _CLASSICAL_SLICES),
        "tomography.x_points": noted("tomography", _CLASSICAL_SLICES | {"quantum_tomogram"}, "x_points"),
        "thermo.linear_s": total("thermo", {"linear_thermo"}),
        "thermo.deformed_s": total("thermo", {"deformed_partition"}),
        "thermo.betas": len(top["thermo"]),
    })
    return out
