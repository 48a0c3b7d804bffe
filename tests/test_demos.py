"""Each demo runs to completion as a script, with nothing on stderr."""

import os
import pathlib
import subprocess
import sys

import pytest

import normalhst

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
SRC = os.path.dirname(os.path.dirname(normalhst.__file__))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
