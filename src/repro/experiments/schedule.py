"""Suite-wide cell scheduler: one global work pool over every figure's cells.

The figure suite used to parallelise at whole-figure granularity: each
``fig*`` module ran in its own pool worker with per-cell fan-out pinned to
serial (``REPRO_JOBS=1``), so wall time was gated by the slowest figure
while other workers idled, and concurrent figures re-solved the same
(system, model, topology) cells until the disk cache warmed.  This module
inverts the structure:

1. **Enumerate** — every experiment module exposes a ``cells()`` protocol
   beside ``run()``/``main()`` returning the :class:`~repro.experiments.
   runner.ExperimentCell`\\ s its ``run()`` will consume.
2. **Deduplicate** — cells flatten into one graph keyed by their
   ``"system"`` memoize digest: Figure 10 and Figure 11 sweep identical
   configurations, Figure 8 re-simulates a subset of Figure 7's grid,
   §2.3 re-reads Figure 2's cell — each is computed exactly once.
3. **Order** — cells whose plans collapse onto one MIP solve (same
   :func:`~repro.core.api.partition_solve_key`) wait for the first such
   cell, so the solve happens once and the rest hit the ``"partition"``
   cache.
4. **Drain** — one global :class:`~concurrent.futures.ProcessPoolExecutor`
   runs ready cells as dependencies resolve; each cell is one
   :func:`~repro.experiments.runner.run_cell` call.  Workers share the disk
   cache tier, so a cell another process already persisted is a hit.

Figures then run serially afterwards as pure cache-hit assembly passes.

Determinism: completion order affects only *when* work happens, never
*what* any cell returns — every partition solve depends only on its own
inputs, and results are content-addressed.  :func:`cell_result_fingerprint`
pins exactly the deterministic face of a result (status, simulated step
time, trace digest, execution plan), excluding wall-clock metadata like
``solve_seconds``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import multiprocessing
from collections import deque
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from repro.core.api import MobiusConfig, partition_solve_key
from repro.experiments.runner import ExperimentCell, SystemResult, run_cell
from repro.perf.cache import CacheConfig, configure_cache, get_cache, merge_stats
from repro.perf.fingerprint import fingerprint

__all__ = [
    "CellNode",
    "ScheduleReport",
    "build_schedule",
    "cell_result_fingerprint",
    "drain",
    "enumerate_cells",
    "figure_cells",
    "run_cells",
]


def figure_cells(name: str, *, fast: bool = False) -> tuple[ExperimentCell, ...]:
    """One experiment module's cell enumeration (``()`` if it has none).

    Modules whose work is not cell-shaped (Table 1's spec lookup, Figure
    13's training loop) return an empty tuple and simply run during the
    assembly pass.
    """
    module = importlib.import_module(f"repro.experiments.{name}")
    enumerate_fn = getattr(module, "cells", None)
    if enumerate_fn is None:
        return ()
    return tuple(enumerate_fn(fast=fast))


def enumerate_cells(
    names: Sequence[str], *, fast: bool = False
) -> list[tuple[str, ExperimentCell]]:
    """Flatten ``(figure, cell)`` pairs over the requested modules, in order."""
    pairs: list[tuple[str, ExperimentCell]] = []
    for name in names:
        for cell in figure_cells(name, fast=fast):
            pairs.append((name, cell))
    return pairs


@dataclasses.dataclass
class CellNode:
    """One unique cell in the schedule graph."""

    index: int
    cell: ExperimentCell
    digest: str
    figures: list[str]
    deps: set[int] = dataclasses.field(default_factory=set)
    dependents: list[int] = dataclasses.field(default_factory=list)


def _plan_signature(cell: ExperimentCell) -> str | None:
    """The partition solve digest of a MIP-planned mobius cell.

    ``None`` for baseline-system cells and non-MIP ablations: they share
    no partition solves, so they carry no ordering constraints.
    """
    if cell.system != "mobius":
        return None
    config = cell.mobius_config
    if config is None:
        mbs = cell.microbatch_size or cell.model.default_microbatch_size
        # Mirrors run_system's default-config construction so the key
        # below matches what the cell will actually solve.
        config = MobiusConfig(
            microbatch_size=mbs,
            n_microbatches=cell.n_microbatches,
            partition_time_limit=1.0,
        )
    if config.partition_method != "mip":
        return None
    return fingerprint(partition_solve_key(cell.model, cell.topology, config))


@dataclasses.dataclass
class Schedule:
    """The deduplicated, solve-share-ordered cell graph."""

    nodes: list[CellNode]
    cells_enumerated: int
    ordering_edges: int

    @property
    def cells_unique(self) -> int:
        return len(self.nodes)

    @property
    def cells_deduped(self) -> int:
        return self.cells_enumerated - len(self.nodes)


def build_schedule(pairs: Sequence[tuple[str, ExperimentCell]]) -> Schedule:
    """Dedup cells by memo digest and add solve-share edges."""
    nodes: list[CellNode] = []
    by_digest: dict[str, CellNode] = {}
    for figure, cell in pairs:
        digest = fingerprint(cell)
        node = by_digest.get(digest)
        if node is None:
            node = CellNode(index=len(nodes), cell=cell, digest=digest, figures=[])
            nodes.append(node)
            by_digest[digest] = node
        if figure not in node.figures:
            node.figures.append(figure)

    edges: set[tuple[int, int]] = set()  # (before, after)

    def add_edge(before: CellNode, after: CellNode) -> None:
        if before.index != after.index:
            edges.add((before.index, after.index))

    # Cells whose layer-to-stage split is the same budget-limited solve:
    # the first enumerated cell computes it, the rest wait and hit the
    # "partition" cache (zero duplicate solves by construction).
    solve_groups: dict[str, CellNode] = {}
    for node in nodes:
        solve_digest = _plan_signature(node.cell)
        if solve_digest is not None:
            add_edge(solve_groups.setdefault(solve_digest, node), node)

    for before, after in sorted(edges):
        nodes[after].deps.add(before)
        nodes[before].dependents.append(after)
    return Schedule(
        nodes=nodes,
        cells_enumerated=len(pairs),
        ordering_edges=len(edges),
    )


def cell_result_fingerprint(result: SystemResult) -> str:
    """Digest of a result's deterministic face.

    Includes the simulated step time, the trace's columnar digest and the
    execution plan; excludes wall-clock metadata (``solve_seconds``,
    ``profiling_seconds``) and search metadata (``nodes_explored``).
    """
    plan_report = result.extras.get("plan_report")
    return fingerprint(
        (
            result.system,
            result.status,
            result.step_seconds,
            result.trace.columnar_digest() if result.trace is not None else None,
            plan_report.plan if plan_report is not None else None,
        )
    )


@dataclasses.dataclass
class ScheduleReport:
    """What one drain did: dedup counters, per-process cache stats, digest."""

    jobs: int
    cells_enumerated: int
    cells_unique: int
    cells_deduped: int
    cells_precached: int
    cells_computed: int
    cells_shared: int  # the worker's run_cell hit a shared cache tier
    cells_coalesced: int  # always 0: kept for report readers
    duplicate_solves: int  # drain-wide "system" misses beyond cells_computed
    ordering_edges: int
    worker_cache: dict  # per-namespace stats summed over drain processes
    cells_fingerprint: str

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _worker_init(config: CacheConfig) -> None:
    """Pool entry: adopt the parent cache config."""
    configure_cache(memory=config.memory, disk=config.disk, directory=config.directory)


def _cell_worker(cell: ExperimentCell) -> tuple[SystemResult, dict]:
    """Compute one cell; returns ``(result, stats_delta)``.

    Runs both in pool workers and inline for ``jobs=1`` drains.
    """
    cache = get_cache()
    before = cache.stats_snapshot()
    result = run_cell(cell)
    return result, _stats_delta(before, cache.stats_snapshot())


def _stats_delta(before: dict, after: dict) -> dict:
    delta: dict[str, dict] = {}
    for namespace, counters in after.items():
        previous = before.get(namespace, {})
        entry = {
            key: value - previous.get(key, 0) for key, value in counters.items()
        }
        if any(entry.values()):
            delta[namespace] = entry
    return delta


def run_cells(
    names: Sequence[str],
    *,
    fast: bool = False,
    jobs: int = 1,
) -> ScheduleReport:
    """Enumerate, dedup, order and drain every cell of ``names``."""
    return drain(enumerate_cells(names, fast=fast), jobs=jobs)


def drain(
    pairs: Sequence[tuple[str, ExperimentCell]],
    *,
    jobs: int = 1,
) -> ScheduleReport:
    """Dedup, order and compute ``(figure, cell)`` pairs through one pool.

    Uses the process-global cache as configured by the caller (the suite
    wraps this in ``cache_overridden``); pool workers adopt its config, so
    with the disk tier enabled every drain process shares one directory.
    """
    schedule = build_schedule(pairs)
    cache = get_cache()

    counters = {"computed": 0, "shared": 0}
    stats_deltas: list[dict] = []
    results: dict[int, SystemResult] = {}
    precached = 0

    remaining = {node.index: set(node.deps) for node in schedule.nodes}
    ready: deque[CellNode] = deque()
    waiting: set[int] = set()
    for node in schedule.nodes:
        if remaining[node.index]:
            waiting.add(node.index)
        else:
            ready.append(node)

    def complete(node: CellNode) -> None:
        for dependent in node.dependents:
            deps = remaining[dependent]
            deps.discard(node.index)
            if not deps and dependent in waiting:
                waiting.discard(dependent)
                ready.append(schedule.nodes[dependent])

    # Cells already present in a local tier need no worker round-trip.
    # (Dependency edges only pace work, so completing them here is safe.)
    pending_total = 0
    probe: deque[CellNode] = deque(ready)
    ready.clear()
    resolved: deque[CellNode] = deque()
    while probe:
        node = probe.popleft()
        value, found = cache.lookup("system", node.cell)
        if found:
            results[node.index] = value
            precached += 1
            complete(node)
            # complete() appends newly-ready nodes to `ready`; fold them
            # into the probe queue so chains of precached cells collapse
            # without a drain round.
            while ready:
                probe.append(ready.popleft())
        else:
            resolved.append(node)
            pending_total += 1
    ready = resolved
    pending_total += len(waiting)

    def record(node: CellNode, result: SystemResult, delta: dict) -> None:
        results[node.index] = result
        # A "system" hit inside run_cell means another process already
        # persisted the cell to the shared disk tier.
        hit = delta.get("system", {}).get("hits", 0) > 0
        counters["shared" if hit else "computed"] += 1
        stats_deltas.append(delta)
        complete(node)

    if pending_total and jobs <= 1:
        while ready:
            node = ready.popleft()
            value, found = cache.lookup("system", node.cell)
            if found:  # unlocked by a dependency that was precached
                results[node.index] = value
                precached += 1
                complete(node)
            else:
                record(node, *_cell_worker(node.cell))
    elif pending_total:
        # Spawn, not fork: workers start from a clean interpreter and
        # adopt only the parent's cache config, so no parent state leaks
        # into any cell.
        with ProcessPoolExecutor(
            max_workers=min(jobs, pending_total),
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init,
            initargs=(cache.config,),
        ) as pool:
            in_flight: dict = {}

            def submit_ready() -> None:
                while ready:
                    node = ready.popleft()
                    in_flight[pool.submit(_cell_worker, node.cell)] = node

            submit_ready()
            while in_flight:
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                # Account completions in node order so counters and stats
                # fold deterministically regardless of which worker
                # finished first.
                for future in sorted(done, key=lambda f: in_flight[f].index):
                    node = in_flight.pop(future)
                    result, delta = future.result()
                    cache.adopt("system", node.cell, result)
                    record(node, result, delta)
                submit_ready()

    worker_cache = merge_stats(*stats_deltas)
    drain_system_misses = worker_cache.get("system", {}).get("misses", 0)
    lines = sorted(
        f"{node.digest}:{cell_result_fingerprint(results[node.index])}"
        for node in schedule.nodes
    )
    cells_fingerprint = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()

    return ScheduleReport(
        jobs=jobs,
        cells_enumerated=schedule.cells_enumerated,
        cells_unique=schedule.cells_unique,
        cells_deduped=schedule.cells_deduped,
        cells_precached=precached,
        cells_computed=counters["computed"],
        cells_shared=counters["shared"],
        cells_coalesced=0,
        duplicate_solves=max(0, drain_system_misses - counters["computed"]),
        ordering_edges=schedule.ordering_edges,
        worker_cache=worker_cache,
        cells_fingerprint=cells_fingerprint,
    )
