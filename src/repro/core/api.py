"""High-level Mobius API: profile -> partition -> map -> execute.

:func:`plan_mobius` runs the full planning pipeline of the paper —
similarity-compressed profiling (§3.2), the MIP partition search (§3.2) and
cross mapping (§3.3) — and returns an :class:`~repro.core.plan.ExecutionPlan`
plus all planning overheads (Figure 12).  :func:`run_mobius` additionally
simulates one training step on the given server topology.

Example:
    >>> from repro.hardware import topo_2_2
    >>> from repro.models import gpt_8b
    >>> report = run_mobius(gpt_8b(), topo_2_2())
    >>> report.step_seconds > 0
    True
"""

from __future__ import annotations

import dataclasses
import threading

from repro.core.mapping import MappingResult, cross_mapping, sequential_mapping
from repro.core.partition import (
    PartitionResult,
    max_stage_partition,
    min_stage_partition,
    mip_partition,
)
from repro.core.pipeline import MobiusRun, simulate_mobius
from repro.core.plan import ExecutionPlan
from repro.hardware.topology import Topology
from repro.models.costmodel import CostModel
from repro.models.profiler import ProfileReport, Profiler
from repro.models.spec import ModelSpec
from repro.perf.cache import get_cache
from repro.sim.trace import Trace

#: Last MIP partition boundaries per (model, device, microbatch): warm-start
#: hints for subsequent related solves (scalability sweeps, fault re-plans).
#: Hints cannot change results, so this is not a result cache and needs no
#: invalidation beyond process lifetime.  Access goes through the
#: lock-guarded ``_get_partition_hint`` / ``_put_partition_hint`` seams:
#: planner threads (the ``repro.serve`` daemon) share this registry, and
#: MOB007 requires every write to shared module state to be a documented
#: synchronization seam.
#:
#: The registry is a bounded LRU (CPython dicts iterate in insertion
#: order; a hit re-inserts its key at the tail, eviction drops the head),
#: so a long-running planning service cannot leak hints without bound.
#: Eviction is deterministic — it depends only on the access sequence —
#: and invisible in results: hints seed the incumbent only.
_PARTITION_HINTS: dict[tuple, tuple[int, ...]] = {}
_PARTITION_HINTS_LOCK = threading.Lock()
_PARTITION_HINT_CAPACITY = 64

#: Optional durable hint sink/source (``repro.serve.store.DurableStore``
#: duck-type: ``get_hint(key) -> tuple[int, ...] | None`` and
#: ``put_hint(key, hint)``).  Installed by the serve daemon so a restarted
#: process inherits N±1 partition hints from prior runs; ``None`` outside it.
_HINT_STORE = None


def set_partition_hint_store(store) -> object | None:
    """Synchronization seam: install a durable hint store (or ``None``).

    The store is consulted on registry misses and written through on every
    publish; both directions are best-effort (a broken store degrades to
    cold solves, never to failures).  Returns the previously installed
    store so callers can restore it.
    """
    global _HINT_STORE
    with _PARTITION_HINTS_LOCK:
        previous = _HINT_STORE
        _HINT_STORE = store
    return previous


def set_partition_hint_capacity(capacity: int) -> None:
    """Synchronization seam: bound the hint registry (MOB007-sanctioned).

    Shrinking evicts least-recently-used entries immediately; eviction can
    only cost warm-start work, never change a plan.
    """
    if capacity < 1:
        raise ValueError(f"hint capacity must be >= 1, got {capacity}")
    global _PARTITION_HINT_CAPACITY
    with _PARTITION_HINTS_LOCK:
        _PARTITION_HINT_CAPACITY = capacity
        while len(_PARTITION_HINTS) > _PARTITION_HINT_CAPACITY:
            del _PARTITION_HINTS[next(iter(_PARTITION_HINTS))]


def _get_partition_hint(hint_key: tuple) -> tuple[int, ...] | None:
    """Synchronization seam: read a warm-start hint (MOB007-sanctioned).

    A registry hit refreshes the key's LRU position; a miss falls through
    to the durable store (when installed) and promotes the stored hint
    into the registry.
    """
    with _PARTITION_HINTS_LOCK:
        hint = _PARTITION_HINTS.pop(hint_key, None)
        if hint is not None:
            _PARTITION_HINTS[hint_key] = hint  # re-insert at the LRU tail
            return hint
        if _HINT_STORE is not None:
            try:
                hint = _HINT_STORE.get_hint(hint_key)
            except Exception:
                hint = None  # durable tier is best-effort
            if hint is not None:
                _PARTITION_HINTS[hint_key] = hint
                while len(_PARTITION_HINTS) > _PARTITION_HINT_CAPACITY:
                    del _PARTITION_HINTS[next(iter(_PARTITION_HINTS))]
        return hint


def _put_partition_hint(hint_key: tuple, hint: tuple[int, ...]) -> None:
    """Synchronization seam: publish a warm-start hint (MOB007-sanctioned).

    Last-writer-wins is safe: any stored hint seeds the incumbent only and
    cannot change the returned partition.  Publishing refreshes the key's
    LRU position, evicts beyond the capacity bound, and writes through to
    the durable store when one is installed.
    """
    with _PARTITION_HINTS_LOCK:
        _PARTITION_HINTS.pop(hint_key, None)
        _PARTITION_HINTS[hint_key] = hint
        while len(_PARTITION_HINTS) > _PARTITION_HINT_CAPACITY:
            del _PARTITION_HINTS[next(iter(_PARTITION_HINTS))]
        if _HINT_STORE is not None:
            try:
                _HINT_STORE.put_hint(hint_key, hint)
            except Exception:
                pass  # durable tier is best-effort

__all__ = [
    "MobiusConfig",
    "MobiusPlanReport",
    "MobiusReport",
    "partition_hint_key",
    "partition_solve_key",
    "plan_mobius",
    "run_mobius",
    "set_partition_hint_capacity",
    "set_partition_hint_store",
]

_PARTITIONERS = {
    "mip": mip_partition,
    "max-stage": max_stage_partition,
    "min-stage": min_stage_partition,
}


def partition_hint_key(
    model: ModelSpec, topology: Topology, config: "MobiusConfig"
) -> tuple | None:
    """The warm-start registry key a ``plan_mobius`` call will use.

    ``None`` for non-MIP partition methods (they take no hints).  Exposed
    so the suite's cell scheduler can group sweep cells that feed each
    other hints — the key must stay byte-for-byte the same tuple
    ``_plan_mobius_uncached`` reads and publishes, so both sites build it
    here.
    """
    if config.partition_method != "mip":
        return None
    microbatch_size = config.microbatch_size or model.default_microbatch_size
    return (model.name, model.n_layers, topology.gpu_spec.name, microbatch_size)


def partition_solve_key(
    model: ModelSpec, topology: Topology, config: "MobiusConfig"
) -> tuple:
    """The exact ``"partition"`` memoize key of a ``plan_mobius`` call.

    The layer-to-stage split does not depend on the mapping/prefetch knobs
    or on the topology's wiring, only on the inputs below — so ablations
    that sweep ``mapping_method`` (Figure 10) share one budget-limited
    solve.  The suite scheduler uses the same key to recognise cells whose
    plans collapse onto one solve, so the tuple is built in exactly one
    place.
    """
    microbatch_size = config.microbatch_size or model.default_microbatch_size
    n_gpus = topology.n_gpus
    time_limit = max_nodes = None
    if config.partition_method == "mip":
        # The search never reads partition_time_limit; the slot keeps
        # solve keys (and the suite's cell fingerprints) stable.
        time_limit = config.partition_time_limit
        if config.partition_max_nodes is not None:
            max_nodes = config.partition_max_nodes
    return (
        "partition",
        config.partition_method,
        model,
        topology.gpu_spec,
        microbatch_size,
        n_gpus,
        config.n_microbatches or n_gpus,
        config.bandwidth or topology.pcie_bandwidth,
        time_limit,
        max_nodes,
    )


@dataclasses.dataclass(frozen=True)
class MobiusConfig:
    """Tunable knobs of the planner and executor.

    Attributes:
        microbatch_size: Sequences per microbatch; defaults to the model's
            Table 3 value.
        n_microbatches: Microbatches per step; Mobius uses M = N (default).
        partition_method: ``"mip"`` (default), ``"max-stage"`` or
            ``"min-stage"`` (§4.3 ablation).
        mapping_method: ``"cross"`` (default) or ``"sequential"`` (§4.4).
        partition_time_limit: Modeled re-planning latency in seconds.  It
            no longer bounds the search (the node budget is the only
            limit); it is charged as ``replan_seconds`` by
            :mod:`repro.faults.replan` and keeps its slot in
            :func:`partition_solve_key`.
        partition_max_nodes: Deterministic node budget for the MIP
            partition search (``None`` keeps the partitioner's default).
            This is how ``repro.serve`` enforces per-request deadlines:
            budgets are exact and machine-independent, so a
            deadline-limited solve returns the same incumbent everywhere —
            wall-clock never steers control flow.
        prefetch: Overlap stage uploads with computation (§3.1).
        use_priorities: Prefetch priority streams (§3.3).
        bandwidth: Average bandwidth ``B`` for the MIP; defaults to the
            topology's PCIe link bandwidth.
        solver_mode: Must be ``"solo"``: the boundary branch-and-bound is
            the only partition solver.  Any other value raises
            ``ValueError`` when planning.
    """

    microbatch_size: int | None = None
    n_microbatches: int | None = None
    partition_method: str = "mip"
    mapping_method: str = "cross"
    partition_time_limit: float = 10.0
    partition_max_nodes: int | None = None
    prefetch: bool = True
    use_priorities: bool = True
    bandwidth: float | None = None
    solver_mode: str = "solo"


@dataclasses.dataclass
class MobiusPlanReport:
    """Planning output plus overhead breakdown (Figure 12)."""

    plan: ExecutionPlan
    partition_result: PartitionResult
    mapping_result: MappingResult
    profile_report: ProfileReport
    cost_model: CostModel

    @property
    def profiling_seconds(self) -> float:
        return self.profile_report.profiling_seconds

    @property
    def mip_solve_seconds(self) -> float:
        return self.partition_result.solve_seconds

    @property
    def mapping_seconds(self) -> float:
        return self.mapping_result.search_seconds


@dataclasses.dataclass
class MobiusReport:
    """Planning + one simulated training step."""

    plan_report: MobiusPlanReport
    run: MobiusRun

    @property
    def step_seconds(self) -> float:
        return self.run.step_seconds

    @property
    def trace(self) -> Trace:
        return self.run.trace


def plan_mobius(
    model: ModelSpec, topology: Topology, config: MobiusConfig = MobiusConfig()
) -> MobiusPlanReport:
    """Run Mobius's planning pipeline for ``model`` on ``topology``.

    Results are memoized by content through the global
    :mod:`repro.perf` cache: planning the same (model, topology, config)
    triple twice — in this process, or across processes when the disk tier
    is enabled — returns the stored report without re-solving.  Treat the
    returned report as immutable.
    """
    if config.solver_mode != "solo":
        raise ValueError(
            f"unknown solver_mode {config.solver_mode!r}; expected 'solo'"
        )
    return get_cache().memoize(
        "plan",
        ("plan_mobius", model, topology, config),
        lambda: _plan_mobius_uncached(model, topology, config),
    )


def _plan_mobius_uncached(
    model: ModelSpec, topology: Topology, config: MobiusConfig
) -> MobiusPlanReport:
    microbatch_size = config.microbatch_size or model.default_microbatch_size
    n_gpus = topology.n_gpus
    n_microbatches = config.n_microbatches or n_gpus
    bandwidth = config.bandwidth or topology.pcie_bandwidth

    cost_model = CostModel(topology.gpu_spec, microbatch_size)
    profile_report = Profiler(cost_model).profile(model)

    try:
        partitioner = _PARTITIONERS[config.partition_method]
    except KeyError:
        raise ValueError(
            f"unknown partition_method {config.partition_method!r}; "
            f"expected one of {sorted(_PARTITIONERS)}"
        ) from None
    kwargs = {}
    hint_key = None
    if config.partition_method == "mip":
        if config.partition_max_nodes is not None:
            kwargs["max_nodes"] = config.partition_max_nodes
        # Warm start from the last MIP solve of the same model on the same
        # device class (the scalability sweep re-solves for N, N+1, ...;
        # fault replanning re-solves for N-1).  The hint seeds the
        # incumbent only — mip_partition's canonical tie-break makes the
        # result identical with or without it — so it stays out of the
        # memoize key below.
        hint_key = partition_hint_key(model, topology, config)
        hint = _get_partition_hint(hint_key)
        if hint is not None:
            kwargs["warm_start"] = hint
    partition_result = get_cache().memoize(
        "partition",
        partition_solve_key(model, topology, config),
        lambda: partitioner(model, cost_model, n_gpus, n_microbatches, bandwidth, **kwargs),
    )
    if hint_key is not None:
        _put_partition_hint(hint_key, partition_result.partition.boundaries)

    n_stages = partition_result.partition.n_stages
    if config.mapping_method == "cross":
        mapping_result = cross_mapping(topology, n_stages)
    elif config.mapping_method == "sequential":
        mapping_result = sequential_mapping(topology)
    else:
        raise ValueError(
            f"unknown mapping_method {config.mapping_method!r}; "
            "expected 'cross' or 'sequential'"
        )

    timings = partition_result.timings
    plan = ExecutionPlan(
        partition=partition_result.partition,
        mapping=mapping_result.mapping,
        n_microbatches=n_microbatches,
        microbatch_size=microbatch_size,
        prefetch_fwd_bytes=timings.prefetch_fwd_bytes,
        prefetch_bwd_bytes=timings.prefetch_bwd_bytes,
        estimated_step_seconds=timings.step_seconds,
    )
    return MobiusPlanReport(
        plan=plan,
        partition_result=partition_result,
        mapping_result=mapping_result,
        profile_report=profile_report,
        cost_model=cost_model,
    )


def run_mobius(
    model: ModelSpec, topology: Topology, config: MobiusConfig = MobiusConfig()
) -> MobiusReport:
    """Plan and simulate one Mobius training step."""
    plan_report = plan_mobius(model, topology, config)
    run = simulate_mobius(
        plan_report.plan,
        topology,
        plan_report.cost_model,
        prefetch=config.prefetch,
        use_priorities=config.use_priorities,
    )
    return MobiusReport(plan_report=plan_report, run=run)
