"""Shared experiment infrastructure: result tables and system wrappers.

Each ``fig*.py`` module reproduces one table/figure of the paper's
evaluation and exposes ``run() -> ExperimentTable`` (or a list of tables)
plus a ``main()`` so it can be executed directly:

    python -m repro.experiments.fig5_overall

The benchmark suite (``benchmarks/``) wraps the same entry points.
"""

from __future__ import annotations

import dataclasses
import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor

from repro.baselines.deepspeed import DeepSpeedConfig, run_deepspeed
from repro.baselines.gpipe import (
    OutOfMemoryError,
    run_deepspeed_pipeline,
    run_gpipe,
)
from repro.baselines.zero_offload import run_zero_offload
from repro.core.api import MobiusConfig, run_mobius
from repro.core.partition import PlanInfeasibleError
from repro.hardware.topology import Topology
from repro.models.spec import ModelSpec
from repro.perf.cache import CacheConfig, configure_cache, get_cache
from repro.sim.trace import Trace

__all__ = [
    "ExperimentTable",
    "ExperimentCell",
    "PlanInfeasibleError",
    "SystemResult",
    "default_jobs",
    "resolve_jobs",
    "run_cell",
    "run_system",
    "run_systems_parallel",
    "SYSTEMS",
]

SYSTEMS = ("gpipe", "ds-pipeline", "zero-offload", "deepspeed", "mobius")


@dataclasses.dataclass
class ExperimentTable:
    """A printable result table mirroring one paper table/figure."""

    title: str
    columns: tuple[str, ...]
    rows: list[tuple] = dataclasses.field(default_factory=list)
    notes: list[str] = dataclasses.field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def format(self) -> str:
        """Fixed-width text rendering; missing cells (``None``/NaN) show as ``-``."""
        def text(value) -> str:
            if value is None:
                return "-"
            if isinstance(value, float):
                return "-" if math.isnan(value) else f"{value:.3f}"
            return str(value)

        table = [tuple(map(text, self.columns))] + [
            tuple(map(text, row)) for row in self.rows
        ]
        widths = [max(len(row[c]) for row in table) for c in range(len(self.columns))]
        lines = [f"== {self.title} =="]
        for index, row in enumerate(table):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def column(self, name: str) -> list:
        """All values of one column.

        Raises:
            KeyError: If ``name`` is not a column, naming the columns that
                do exist.
        """
        try:
            index = self.columns.index(name)
        except ValueError:
            raise KeyError(
                f"no column {name!r} in table {self.title!r}; "
                f"available columns: {', '.join(self.columns)}"
            ) from None
        return [row[index] for row in self.rows]


@dataclasses.dataclass
class SystemResult:
    """Outcome of running one system on one configuration."""

    system: str
    status: str  # "ok" | "oom"
    step_seconds: float = float("nan")
    trace: Trace | None = None
    extras: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run_system(
    system: str,
    model: ModelSpec,
    topology: Topology,
    *,
    microbatch_size: int | None = None,
    n_microbatches: int | None = None,
    mobius_config: MobiusConfig | None = None,
    deepspeed_config: DeepSpeedConfig | None = None,
) -> SystemResult:
    """Run one of the evaluated systems on a configuration.

    OOM (the expected outcome for large models on all-in-GPU systems)
    is reported as a result, not an exception.  Solver infeasibility — the
    model cannot be partitioned onto the given resources at all — surfaces
    as the typed :class:`~repro.core.partition.PlanInfeasibleError` (never a
    bare ``ValueError``), so callers like the chaos harness can distinguish
    "recovery impossible on N-1 GPUs" from a planner bug.

    Results (including OOM outcomes) are memoized by content through the
    global :mod:`repro.perf` cache, so every figure that re-simulates the
    same (system, model, topology, batching, config) cell reuses the first
    simulation.  Each call returns a fresh :class:`SystemResult` shell, but
    the trace and extras are shared — treat them as immutable.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    cell = ExperimentCell(
        system=system,
        model=model,
        topology=topology,
        microbatch_size=microbatch_size,
        n_microbatches=n_microbatches,
        mobius_config=mobius_config,
        deepspeed_config=deepspeed_config,
    )
    return run_cell(cell)


def run_cell(cell: "ExperimentCell") -> SystemResult:
    """Run one cell through the ``"system"`` memoization namespace.

    This is the single compute path behind :func:`run_system`,
    :meth:`ExperimentCell.run` and the suite's cell scheduler — all three
    share one cache entry per cell.
    """
    result = get_cache().memoize("system", cell, lambda: _run_system_uncached(cell))
    return dataclasses.replace(result, extras=dict(result.extras))


def _run_system_uncached(cell: "ExperimentCell") -> SystemResult:
    system, model, topology = cell.system, cell.model, cell.topology
    n_microbatches = cell.n_microbatches
    deepspeed_config = cell.deepspeed_config
    mobius_config = cell.mobius_config
    mbs = cell.microbatch_size or model.default_microbatch_size
    if cell.plan_only:
        from repro.core.api import plan_mobius

        config = mobius_config or MobiusConfig(
            microbatch_size=mbs,
            n_microbatches=n_microbatches,
            partition_time_limit=1.0,
        )
        report = plan_mobius(model, topology, config)
        return SystemResult(
            system, "ok", float("nan"), None, extras={"plan_report": report}
        )
    try:
        if system == "gpipe":
            report = run_gpipe(
                model, topology, microbatch_size=mbs, n_microbatches=n_microbatches
            )
            return SystemResult(system, "ok", report.step_seconds, report.trace)
        if system == "ds-pipeline":
            report = run_deepspeed_pipeline(
                model, topology, microbatch_size=mbs, n_microbatches=n_microbatches
            )
            return SystemResult(system, "ok", report.step_seconds, report.trace)
        if system == "zero-offload":
            report = run_zero_offload(model, topology, microbatch_size=mbs)
            return SystemResult(system, "ok", report.step_seconds, report.trace)
        if system == "deepspeed":
            config = deepspeed_config or DeepSpeedConfig(microbatch_size=mbs)
            report = run_deepspeed(model, topology, config)
            return SystemResult(system, "ok", report.step_seconds, report.trace)
        if system == "mobius":
            config = mobius_config or MobiusConfig(
                microbatch_size=mbs,
                n_microbatches=n_microbatches,
                partition_time_limit=1.0,
            )
            report = run_mobius(model, topology, config)
            return SystemResult(
                system,
                "ok",
                report.step_seconds,
                report.trace,
                extras={"plan_report": report.plan_report},
            )
    except OutOfMemoryError:
        return SystemResult(system, "oom")
    raise AssertionError(f"unhandled system {system!r}")  # guarded by run_system


@dataclasses.dataclass(frozen=True)
class ExperimentCell:
    """One ``run_system`` invocation as a picklable, fingerprintable value.

    Doubles as the cache key for :func:`run_system` and as the unit of work
    for :func:`run_systems_parallel` and the suite-wide cell scheduler
    (:mod:`repro.experiments.schedule`).

    ``plan_only`` cells (``system == "mobius"`` only) run the planning
    pipeline without the simulation step: they exist so figures that only
    read planning overheads (Figure 12) can enumerate work for the
    scheduler without paying for a simulated step.  Their ``SystemResult``
    carries the plan report in ``extras`` and no trace, and — because the
    inner ``plan_mobius`` call memoizes under the ``"plan"`` namespace —
    computing one warms the exact entry the figure's own ``plan_mobius``
    call will hit.
    """

    system: str
    model: ModelSpec
    topology: Topology
    microbatch_size: int | None = None
    n_microbatches: int | None = None
    mobius_config: MobiusConfig | None = None
    deepspeed_config: DeepSpeedConfig | None = None
    plan_only: bool = False

    def __post_init__(self) -> None:
        if self.plan_only and self.system != "mobius":
            raise ValueError(
                f"plan_only cells must use system='mobius', got {self.system!r}"
            )

    def run(self) -> SystemResult:
        return run_cell(self)


def _worker_init(config: CacheConfig) -> None:
    """Adopt the parent's cache configuration in a pool worker."""
    configure_cache(
        memory=config.memory, disk=config.disk, directory=config.directory
    )


def default_jobs() -> int:
    """Worker count when the caller did not pass ``jobs`` explicitly.

    ``REPRO_JOBS`` (a positive integer) wins over the detected CPU count:
    containers frequently report ``os.cpu_count() == 1`` (or ``None``)
    while having more cores available.  The suite no longer needs to pin
    this inside workers — the cell scheduler owns the only process pool,
    and figure assembly is serial cache-hit replay.
    """
    env = os.environ.get("REPRO_JOBS")
    if env is not None:
        try:
            requested = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be a positive integer, got {env!r}"
            ) from None
        if requested <= 0:
            raise ValueError(f"REPRO_JOBS must be a positive integer, got {env!r}")
        return requested
    return os.cpu_count() or 1


def resolve_jobs(requested: int | None = None, *, ceiling: int | None = None) -> int:
    """Effective worker count for a pool honoring ``REPRO_JOBS``.

    An explicit ``requested`` wins verbatim (the operator asked for it);
    otherwise :func:`default_jobs` decides, optionally capped at
    ``ceiling`` (a pool whose useful parallelism is bounded — e.g. the
    servebench worker ladder tops out at four — should not claim more
    of the container than it can use).
    """
    if requested is not None:
        if requested < 1:
            raise ValueError(f"jobs must be >= 1, got {requested}")
        return requested
    jobs = default_jobs()
    if ceiling is not None:
        jobs = min(jobs, ceiling)
    return jobs


def run_systems_parallel(
    cells: Sequence[ExperimentCell], *, jobs: int | None = None
) -> list[SystemResult]:
    """Run many experiment cells, fanning out across processes.

    Results come back in ``cells`` order regardless of which worker
    finished first, and OOM outcomes pass through as ordinary
    ``status == "oom"`` results exactly as in the serial runner.  Workers
    inherit the parent's cache configuration, so with the disk tier enabled
    they share results; either way, every computed result is folded back
    into the parent's cache so later serial code (and later figures) hits.

    Args:
        cells: Work items, one per (system, configuration) pair.
        jobs: Worker processes; ``None`` defers to :func:`default_jobs`
            (the ``REPRO_JOBS`` environment override, else
            ``os.cpu_count()``).  With one cell or ``jobs <= 1``
            everything runs serially in-process.
    """
    cells = list(cells)
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or len(cells) <= 1:
        return [cell.run() for cell in cells]

    cache = get_cache()
    # Cells already cached locally need no worker round-trip (nor a fresh
    # solve in a worker whose memory tier starts empty).
    results: list[SystemResult | None] = []
    pending: list[tuple[int, ExperimentCell]] = []
    for index, cell in enumerate(cells):
        value, found = cache.lookup("system", cell)
        if found:
            results.append(value)
        else:
            results.append(None)
            pending.append((index, cell))

    if pending:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)),
            initializer=_worker_init,
            initargs=(cache.config,),
        ) as pool:
            for (index, cell), result in zip(
                pending, pool.map(_run_cell, [cell for _, cell in pending])
            ):
                results[index] = result
                cache.store("system", cell, result)
    return [dataclasses.replace(r, extras=dict(r.extras)) for r in results]


def _run_cell(cell: ExperimentCell) -> SystemResult:
    """Pool-worker entry point (module-level so it pickles)."""
    return cell.run()


def print_tables(tables: "ExperimentTable | Sequence[ExperimentTable]") -> None:
    """Print one or many tables (module ``main()`` helper)."""
    if isinstance(tables, ExperimentTable):
        tables = [tables]
    for table in tables:
        print(table.format())
        print()
