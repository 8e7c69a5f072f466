"""Solver benchmark: the ``repro solvebench`` backend.

For every check-corpus cell (:mod:`repro.check.corpus`) it emits two rows
into ``BENCH_solver.json``:

* **partition** — the production search
  (:func:`repro.core.partition.mip_partition`), cold and warm-started from
  the previous cell's boundaries, with node counts, optimality and the
  boundary tuple; ``warm_identical`` holds when the warm solve returns the
  cold boundaries;
* **oracle** — the literal Eqs. 3-11 MIP solved on HiGHS over every stage
  count (:func:`repro.core.mip_formulation.solve_partition_mip`);
  ``parity`` holds when its optimum matches the search's step time within
  ``ORACLE_REL_TOL``.

Node counts, boundaries, step times and parity are deterministic; wall
times are informational only.  The CI gate (:func:`compare_benchmarks`)
fails on a parity or warm-start failure, on a row present on one side
only, or on a >25% node-count regression against the committed baseline.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any

from repro.check.corpus import default_corpus
from repro.core.mip_formulation import solve_partition_mip
from repro.core.partition import mip_partition
from repro.models.costmodel import CostModel

__all__ = [
    "BENCH_SCHEMA",
    "ORACLE_REL_TOL",
    "compare_benchmarks",
    "corpus_problems",
    "run_bench",
    "write_bench",
]

BENCH_SCHEMA = "mobius-bench-solver/2"

#: Node-count regressions beyond this ratio fail the CI gate.
NODE_REGRESSION_RATIO = 1.25

#: The search's step time must match the HiGHS optimum this closely.
ORACLE_REL_TOL = 1e-6


def corpus_problems() -> list[tuple[str, tuple]]:
    """``(cell name, args)`` per check-corpus cell.

    ``args`` is ``(model, cost_model, n_gpus, n_microbatches, bandwidth)``,
    the positional arguments of both :func:`mip_partition` and
    :func:`solve_partition_mip`.
    """
    problems = []
    for cell in default_corpus():
        topology = cell.topology
        microbatch = cell.config.microbatch_size or cell.model.default_microbatch_size
        n_gpus = topology.n_gpus
        args = (
            cell.model,
            CostModel(topology.gpu_spec, microbatch),
            n_gpus,
            cell.config.n_microbatches or n_gpus,
            cell.config.bandwidth or topology.pcie_bandwidth,
        )
        problems.append((cell.name, args))
    return problems


def _run_partition_rows() -> list[dict[str, Any]]:
    rows = []
    previous: tuple[int, ...] | None = None
    for name, args in corpus_problems():
        started = time.perf_counter()
        cold = mip_partition(*args)
        wall = time.perf_counter() - started
        boundaries = cold.partition.boundaries
        warm = mip_partition(
            *args, warm_start=previous if previous is not None else boundaries
        )
        rows.append(
            {
                "name": name,
                "boundaries": list(boundaries),
                "step_seconds": cold.timings.step_seconds,
                "nodes": cold.nodes_explored,
                "optimal": cold.optimal,
                "warm_nodes": warm.nodes_explored,
                "warm_identical": warm.partition.boundaries == boundaries,
                "wall_seconds": round(wall, 4),
            }
        )
        previous = boundaries
    return rows


def _run_oracle_rows() -> list[dict[str, Any]]:
    rows = []
    for name, args in corpus_problems():
        search = mip_partition(*args)
        started = time.perf_counter()
        oracle = solve_partition_mip(*args)
        wall = time.perf_counter() - started
        step = search.timings.step_seconds
        rows.append(
            {
                "name": name,
                "n_stages": oracle.n_stages,
                "stage_counts": sorted(oracle.per_stage_solutions),
                "step_seconds": step,
                "oracle_step_seconds": oracle.step_seconds,
                "parity": math.isclose(
                    step, oracle.step_seconds, rel_tol=ORACLE_REL_TOL
                ),
                "wall_seconds": round(wall, 4),
            }
        )
    return rows


def run_bench() -> dict[str, Any]:
    """Run the full solver benchmark; returns the JSON document."""
    return {
        "schema": BENCH_SCHEMA,
        "partition": _run_partition_rows(),
        "oracle": _run_oracle_rows(),
    }


def write_bench(path: Path | str, document: dict[str, Any] | None = None) -> dict:
    """Run (if needed) and write the benchmark JSON to ``path``."""
    document = document if document is not None else run_bench()
    Path(path).write_text(json.dumps(document, indent=1, sort_keys=False) + "\n")
    return document


def compare_benchmarks(
    current: dict[str, Any], baseline: dict[str, Any] | None = None
) -> list[str]:
    """CI gate: failures of ``current``, alone and against ``baseline``.

    Returns a list of human-readable failures (empty = gate passes):

    * a row whose ``parity`` is false — the search disagrees with the
      HiGHS oracle (an invariant, failed even without a baseline);
    * a row whose warm-started re-solve stopped returning the cold
      boundaries (also an invariant);
    * with a baseline: a row present on one side only — the corpus is
      part of the contract — or a ``nodes`` count grown beyond
      ``NODE_REGRESSION_RATIO`` times the baseline.

    Wall times are never compared: they depend on the host.
    """
    failures: list[str] = []
    for section in ("partition", "oracle"):
        cur_rows = {row["name"]: row for row in current.get(section, [])}
        for name, cur in sorted(cur_rows.items()):
            if not cur.get("parity", True):
                failures.append(
                    f"{section}:{name}: search step {cur.get('step_seconds')} "
                    f"!= oracle {cur.get('oracle_step_seconds')}"
                )
            if not cur.get("warm_identical", True):
                failures.append(
                    f"{section}:{name}: warm-started solve no longer matches cold"
                )
        if baseline is None:
            continue
        base_rows = {row["name"]: row for row in baseline.get(section, [])}
        for name in sorted(base_rows.keys() | cur_rows.keys()):
            if name not in cur_rows:
                failures.append(f"{section}:{name}: instance missing from current run")
                continue
            if name not in base_rows:
                failures.append(f"{section}:{name}: instance missing from baseline")
                continue
            base_nodes = base_rows[name].get("nodes", 0)
            cur_nodes = cur_rows[name].get("nodes", 0)
            if base_nodes > 0 and cur_nodes > NODE_REGRESSION_RATIO * base_nodes:
                failures.append(
                    f"{section}:{name}: node count regressed "
                    f"{base_nodes} -> {cur_nodes} "
                    f"(>{NODE_REGRESSION_RATIO:.2f}x)"
                )
    return failures
