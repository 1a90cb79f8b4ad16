"""Every demo script runs to the end, silently on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(_DEMOS) >= 7


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(tmp_path, demo):
    # a fresh process on the source tree, where a RuntimeWarning is an error
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
