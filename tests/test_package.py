"""The package surface: what ``foscillator.__all__`` promises can be imported,
what its modules may raise, what they cache for the whole process, and the
README's Python examples."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import foscillator
from foscillator import custom, errors, identity, kerr, q_oscillator


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
# catches the second to name the accepted state forms.
_OTHER_RAISES = {("cli", "_finite_float", "ArgumentTypeError"), ("cli", "_parse_state", "ValueError")}


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
