"""Workloads of the foscillator benchmark: seeded op streams.

An op is a plain dict drawn from ``random.Random(seed)``; the same seed gives
the same op stream.  ``ops.run_op`` runs an op and ``oracles.check_op``
checks its output.

Mixes are fixed per block and shuffled inside the block, so every seed sees
the same proportions of op kinds and only the order and parameters vary.
The parameters that drive an op's cost or decide whether it can fail come
from a low-discrepancy sequence with a seeded offset, so any stretch of a
stream covers their ranges evenly and the share of costly or failing ops
barely changes from seed to seed.
"""

from __future__ import annotations

import itertools
import math
import os
import random

import ops

WORKLOADS = ("cli_readme", "wigner_maps", "state_pipeline")

# The README's eight commands with its flags; ``--output`` is redirected
# into the benchmark's work directory at run time.
README_COMMANDS = {
    "classical-trajectory": ["--kind", "q", "--lambda", "0.1", "--q0", "1.4",
                             "--t-max", "10", "--output", "traj.csv"],
    "classical-propagate": ["--kind", "q", "--lambda", "0.2", "--center-q", "1",
                            "--time", "1.5", "--output", "blob.csv"],
    "quantum-evolve": ["--kind", "kerr", "--chi", "0.1", "--state", "coherent:1.0",
                       "--dim", "60", "--time", "2.0", "--output", "state.json"],
    "wigner": ["--state", "coherent:1.0", "--dim", "25", "--extent", "7",
               "--points", "81", "--output", "w.csv"],
    "tomogram": ["--source", "quantum", "--state", "vacuum", "--mu", "1", "--nu", "0",
                 "--output", "slice.csv"],
    "coherent": ["--kind", "kerr", "--chi", "0.1", "--alpha-re", "1", "--dim", "40",
                 "--output", "amps.csv"],
    "two-mode": ["--kind", "kerr", "--chi", "0.1", "--alpha1-re", "1", "--alpha2-re", "1",
                 "--output", "pair.json"],
    "thermo": ["--beta-min", "0.5", "--beta-max", "5", "--beta-steps", "10",
               "--g", "0.001", "--output", "thermo.csv"],
}

WIGNER_VARIANTS = ("usual_parity", "deformed_parity")
# deformed_partition raises SeriesDivergenceError below beta ~ 1.25e-4.
THERMO_BETA_MIN = 5e-4
# Coordinates of each low-discrepancy point handed to an op builder.
POINT_DIMS = 6


# ---------------------------------------------------------------------------
# op streams


def _between(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def _int_between(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _log_between(u: float, lo: float, hi: float) -> float:
    return math.exp(_between(u, math.log(lo), math.log(hi)))


def _min_dim(alpha: list) -> int:
    """Smallest basis whose top level holds below 1e-13 of a Poisson(|alpha|^2)
    weight; kerr and q profiles (f(n) >= f(0)) decay faster, so it covers the
    library's truncation checks for every state drawn here."""
    lam = alpha[0] ** 2 + alpha[1] ** 2
    dim = 2
    while dim - 1 < lam or (lam > 0 and (dim - 1) * math.log(lam) - lam - math.lgamma(dim) > math.log(1e-13)):
        dim += 1
    return dim


def _fit_dim(op: dict) -> dict:
    """Raise ``op['dim']`` to what its state needs, so no draw is refused."""
    if "alpha" in op["state"]:
        op["dim"] = max(op["dim"], _min_dim(op["state"]["alpha"]))
    return op


def _polar(r: float, u: float):
    phi = _between(u, -math.pi, math.pi)
    return [r * math.cos(phi), r * math.sin(phi)]


def _profile(kind: str, u: float):
    return [kind, _between(u, 0.02, 0.2)]


def _profile_kind(u: float) -> str:
    return "kerr" if u < 0.5 else "q"


def _state(kind: str, r: float, u_strength: float, u_phase: float):
    """coherent or nl-coherent with |alpha| = r and profile strength from
    ``u_strength``, or fock with n <= 10 from ``u_strength``."""
    if kind == "coherent":
        return {"kind": "coherent", "alpha": _polar(r, u_phase)}
    if kind == "fock":
        return {"kind": "fock", "n": _int_between(u_strength, 0, 10)}
    return {"kind": "nl", "alpha": _polar(r, u_phase), "profile": _profile(kind[3:], u_strength)}


def _ray(u_scale: float, u_angle: float):
    s = _log_between(u_scale, 0.5, 2.0)
    theta = math.pi * u_angle
    return s * math.cos(theta), math.sin(theta) / s


def _kronecker(rng: random.Random, dims: int):
    """Endless points of the R_d sequence (Roberts, 2018) in [0, 1)^dims,
    shifted by a seeded offset: frac(offset + k (g^-1, ..., g^-dims)) with g
    the positive root of g^(dims+1) = g + 1.  Every stretch of it covers the
    cube evenly, so the share of points in any box is close to its volume."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dims + 1))
    step = [g ** -(i + 1) for i in range(dims)]
    offset = [rng.random() for _ in range(dims)]
    for k in itertools.count():
        yield tuple((o + k * s) % 1.0 for o, s in zip(offset, step))


def _blocks(rng: random.Random, block: dict, make):
    """Endless ops: each block holds ``count`` ops of every slot, shuffled.

    ``make(rng, slot, q)`` builds one op; ``q`` is the slot's next point of
    its own low-discrepancy sequence and drives every choice that moves the
    op's cost or decides whether it can fail; ``rng`` is for the rest.
    Choices that move cost a lot are slots, fixed per block.
    """
    points = {slot: _kronecker(rng, POINT_DIMS) for slot in block}
    while True:
        batch = [make(rng, slot, next(points[slot])) for slot, count in block.items() for _ in range(count)]
        rng.shuffle(batch)
        yield from batch


def _cli_op(rng: random.Random, slot: str, q) -> dict:
    return {"kind": "cli", "command": slot}


# Two thirds standard maps, one third deformed ones.
_WIGNER_BLOCK = {
    "std:coherent": 4, "std:fock": 4, "std:nl-kerr": 4, "std:nl-q": 4,
    **{f"def:{variant}:{mode}:{kind}": 1 for variant in WIGNER_VARIANTS
       for mode in ("serial", "threaded") for kind in ("kerr", "q")},
}


def _wigner_op(rng: random.Random, slot: str, q) -> dict:
    if slot.startswith("std:"):
        return _fit_dim({"kind": "wigner_std", "dim": _int_between(q[0], 25, 60),
                         "state": _state(slot[4:], 2.0 * q[1], q[2], q[3])})
    _, variant, mode, kind = slot.split(":")
    profile = _profile(kind, q[2])
    alpha = _polar(1.2 * q[1], q[3])
    state = {"kind": "nl", "alpha": alpha, "profile": profile} if q[4] < 0.5 else \
        {"kind": "coherent", "alpha": alpha}
    return {"kind": "wigner_deformed", "dim": ops.DEFORMED_DIM, "state": state,
            "profile": profile, "variant": variant, "threaded": mode == "threaded",
            "check_index": [rng.randrange(ops.DEFORMED_POINTS), rng.randrange(ops.DEFORMED_POINTS)]}


_PIPELINE_BLOCK = {"evolve": 4, "tomogram:coherent": 1, "tomogram:fock": 1, "tomogram:nl-kerr": 1,
                   "coherent": 3, "thermo_linear": 3, "thermo_deformed": 3, "classical": 3}


def _pipeline_op(rng: random.Random, slot: str, q) -> dict:
    if slot == "evolve":
        state = _state("coherent" if q[4] < 0.5 else "nl-kerr", 2.0 * q[1], q[2], q[3])
        return _fit_dim({"kind": slot, "dim": _int_between(q[0], 60, 200), "state": state,
                         "profile": _profile(_profile_kind(q[5]), rng.random()),
                         "times": sorted(rng.uniform(0.0, 10.0) for _ in range(3))})
    if slot.startswith("tomogram:"):
        # Coherent slices take a real alpha: such a state is symmetric under
        # p -> -p, so the known tomogram sign defect cannot show there (see
        # manifest.json, known_defects).
        state = {"kind": "coherent", "alpha": [_between(q[1], -2.0, 2.0), 0.0]} \
            if slot == "tomogram:coherent" else _state(slot[9:], 2.0 * q[1], q[2], q[3])
        return _fit_dim({"kind": "tomogram", "dim": _int_between(q[0], 25, 60), "state": state,
                         "ray": _ray(q[4], q[5])})
    if slot == "coherent":
        return {"kind": slot, "alpha": _polar(1.5 * q[0], q[3]), "profile": _profile(_profile_kind(q[5]), q[2]),
                "dim": 40, "alpha2": [_polar(1.2 * q[1], rng.random()), _polar(rng.uniform(0.0, 1.2), rng.random())],
                "dims": [_int_between(q[4], 20, 30), rng.randint(20, 30)]}
    if slot in ("thermo_linear", "thermo_deformed"):
        # log-uniform, down to 4x above where the series refuses to converge
        # (see manifest.json, known_defects)
        return {"kind": slot, "beta": _log_between(q[0], THERMO_BETA_MIN, 5.0),
                "g": _log_between(q[1], 1e-4, 1e-2)}
    centered = q[4] < 0.5
    return {"kind": slot, "center": [0.0, 0.0] if centered else _polar(_between(q[1], 0.5, 1.5), q[3]),
            "sigma": _between(q[0], 0.3, 0.8), "profile": _profile(_profile_kind(q[5]), q[2]),
            "time": rng.uniform(0.0, 3.0), "ray": _ray(rng.random(), rng.random())}


_STREAMS = {"cli_readme": (dict.fromkeys(README_COMMANDS, 1), _cli_op),
            "wigner_maps": (_WIGNER_BLOCK, _wigner_op),
            "state_pipeline": (_PIPELINE_BLOCK, _pipeline_op)}


def op_stream(workload: str, seed: int):
    """Endless, seed-determined stream of ops for a workload."""
    rng = random.Random(f"{workload}:{seed}")
    block, make = _STREAMS[workload]
    return _blocks(rng, block, make)


def block_length(workload: str) -> int:
    """Ops per block: a stream cut after a whole number of blocks holds
    every op kind in its fixed proportion."""
    return sum(_STREAMS[workload][0].values())


def op_list(workload: str, seed: int, count: int) -> list:
    return list(itertools.islice(op_stream(workload, seed), count))


# Untimed warm-up op per workload: it carries the lazy set-up of the timed
# ops (for deformed Wigner maps the first call costs several times a later one).
WARMUP = {
    "cli_readme": {"kind": "cli", "command": "wigner"},
    "wigner_maps": {"kind": "wigner_deformed", "dim": ops.DEFORMED_DIM,
                    "state": {"kind": "coherent", "alpha": [0.5, 0.0]},
                    "profile": ["kerr", 0.1], "variant": "usual_parity",
                    "threaded": True, "check_index": [10, 10]},
    "state_pipeline": {"kind": "evolve", "dim": 60, "state": {"kind": "coherent", "alpha": [1.0, 0.0]},
                       "profile": ["kerr", 0.1], "times": [1.0, 2.0, 3.0]},
}


# ---------------------------------------------------------------------------
# README commands: where they write


def cli_output(command: str, workdir: str) -> str:
    flags = README_COMMANDS[command]
    return os.path.join(workdir, flags[flags.index("--output") + 1])


def cli_argv(command: str, workdir: str) -> list:
    """``fosc`` arguments of a README command, writing into ``workdir``."""
    flags = list(README_COMMANDS[command])
    flags[flags.index("--output") + 1] = cli_output(command, workdir)
    return [command] + flags


def clear_cli_output(command: str, workdir: str) -> None:
    for path in (cli_output(command, workdir), cli_output(command, workdir) + ".meta.json"):
        if os.path.exists(path):
            os.remove(path)


def read_cli_output(command: str, workdir: str):
    """(artifact bytes, sidecar bytes); None for a file the run did not write."""
    out = []
    for path in (cli_output(command, workdir), cli_output(command, workdir) + ".meta.json"):
        try:
            with open(path, "rb") as fh:
                out.append(fh.read())
        except FileNotFoundError:
            out.append(None)
    return tuple(out)
