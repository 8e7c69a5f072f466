"""Planning, serving and the figure suite never load the MILP oracle.

``repro.solver`` (and through it ``scipy.optimize``) is only for the
literal-MIP oracle and ``solvebench``; importing it on the planning path
would charge every process its start-up cost for a solver it never calls.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "module", ["repro.core.api", "repro.serve.daemon", "repro.experiments.suite"]
)
def test_import_leaves_the_oracle_unloaded(module):
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in ('repro.solver', 'scipy.optimize') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"
