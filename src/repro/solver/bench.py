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

The six paper-scale cells (8B/15B/51B on Topo 1+3 and 2+2) get partition
rows only: they are too large for the dense MILP, so their evidence is the
search's own ``optimal`` flag.

Node counts, boundaries, step times and parity are deterministic; wall
times are informational only.  The CI gate (:func:`compare_benchmarks`)
fails on a parity or warm-start failure, on a row present on one side
only, on a search that proved optimality in the baseline and no longer
does, or on a >25% node-count regression against the committed baseline.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any

from repro.check.corpus import default_corpus
from repro.core.api import MobiusConfig
from repro.core.mip_formulation import solve_partition_mip
from repro.core.partition import mip_partition
from repro.hardware.topology import Topology, topo_1_3, topo_2_2
from repro.models.costmodel import CostModel
from repro.models.spec import ModelSpec
from repro.models.zoo import gpt_8b, gpt_15b, gpt_51b

__all__ = [
    "BENCH_SCHEMA",
    "ORACLE_REL_TOL",
    "compare_benchmarks",
    "corpus_problems",
    "paper_problems",
    "run_bench",
    "write_bench",
]

BENCH_SCHEMA = "mobius-bench-solver/2"

#: Node-count regressions beyond this ratio fail the CI gate.
NODE_REGRESSION_RATIO = 1.25

#: The search's step time must match the HiGHS optimum this closely.
ORACLE_REL_TOL = 1e-6


def _problem_args(model: ModelSpec, topology: Topology, config: MobiusConfig) -> tuple:
    """``plan_mobius``'s partition arguments for one cell."""
    microbatch = config.microbatch_size or model.default_microbatch_size
    n_gpus = topology.n_gpus
    return (
        model,
        CostModel(topology.gpu_spec, microbatch),
        n_gpus,
        config.n_microbatches or n_gpus,
        config.bandwidth or topology.pcie_bandwidth,
    )


def corpus_problems() -> list[tuple[str, tuple]]:
    """``(cell name, args)`` per check-corpus cell.

    ``args`` is ``(model, cost_model, n_gpus, n_microbatches, bandwidth)``,
    the positional arguments of both :func:`mip_partition` and
    :func:`solve_partition_mip`.
    """
    return [
        (cell.name, _problem_args(cell.model, cell.topology, cell.config))
        for cell in default_corpus()
    ]


def paper_problems() -> list[tuple[str, tuple]]:
    """``(cell name, args)`` for 8B/15B/51B on Topo 1+3 and 2+2 (Fig 9/12).

    Same argument layout as :func:`corpus_problems`, with the default
    :class:`~repro.core.api.MobiusConfig` (Table 3 microbatch, ``M = N``,
    PCIe bandwidth).
    """
    problems = []
    for model_factory in (gpt_8b, gpt_15b, gpt_51b):
        model = model_factory()
        for topology_factory in (topo_1_3, topo_2_2):
            problems.append(
                (
                    f"{model.name}/{topology_factory.__name__}",
                    _problem_args(model, topology_factory(), MobiusConfig()),
                )
            )
    return problems


def _run_partition_rows() -> list[dict[str, Any]]:
    rows = []
    previous: tuple[int, ...] | None = None
    for name, args in corpus_problems() + paper_problems():
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
      part of the contract — a search whose ``optimal`` flipped from true
      to false, or a ``nodes`` count grown beyond
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
            if base_rows[name].get("optimal") and not cur_rows[name].get("optimal"):
                failures.append(
                    f"{section}:{name}: search no longer proves optimality"
                )
            base_nodes = base_rows[name].get("nodes", 0)
            cur_nodes = cur_rows[name].get("nodes", 0)
            if base_nodes > 0 and cur_nodes > NODE_REGRESSION_RATIO * base_nodes:
                failures.append(
                    f"{section}:{name}: node count regressed "
                    f"{base_nodes} -> {cur_nodes} "
                    f"(>{NODE_REGRESSION_RATIO:.2f}x)"
                )
    return failures
