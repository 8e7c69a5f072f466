"""Planning, serving and the figure suite load only what they use.

``repro.solver`` (and through it ``scipy.optimize``) is only for the
literal-MIP oracle and ``solvebench``; importing it on the planning path
would charge every process its start-up cost for a solver it never calls.
Likewise the figure suite's drain needs only the result cache, never the
serve daemon's sqlite store.
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


def test_disk_cached_drain_leaves_serve_unloaded(tmp_path):
    """A figure drain plans and persists cells without the serve store."""
    code = (
        "import sys\n"
        "from repro.experiments.schedule import run_cells\n"
        "from repro.perf.cache import cache_overridden\n"
        f"with cache_overridden(memory=True, disk=True, directory={str(tmp_path)!r}):\n"
        "    report = run_cells(['fig12_overhead'], fast=True, jobs=1)\n"
        "assert report.cells_computed > 0\n"
        "print(sorted(m for m in ('repro.serve', 'sqlite3') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"
