"""Elastic re-planning after GPU dropout.

When a GPU dies, Mobius's plan is invalid: the partition was solved for N
GPUs (Eqs. 3-11) and the cross mapping for the old PCIe tree (Eqs. 12-13).
Recovery re-runs the *production* planning pipeline on the surviving
topology — there is no separate recovery planner — and charges a modeled
time-to-recover:

* ``replan_seconds`` — modeled planner latency: the config's
  ``partition_time_limit``.  The MIP itself stops on a deterministic node
  budget and reads no clock, so the charged time-to-recover never depends
  on the realized solve time (MOB002).  The re-solve warm-starts from the
  pre-fault partition's boundaries (the ``repro.core.api`` hint
  registry), which shrinks the realized search well below the budget.
* ``migration_seconds`` — restoring the dropped GPU's stage state from the
  DRAM checkpoint.  Mobius keeps parameters in DRAM by design, so only the
  dead GPU's working set (the FP16 parameters of its stages) must be
  re-staged; the cost model divides those bytes by the surviving server's
  PCIe link bandwidth (the bottleneck edge of any DRAM path).

Infeasibility is a first-class outcome: if the model cannot be partitioned
onto N-1 GPUs, :func:`replan_after_dropout` propagates the typed
:class:`~repro.core.partition.PlanInfeasibleError` for the chaos harness
to report.
"""

from __future__ import annotations

import dataclasses

from repro.core.api import MobiusConfig, MobiusPlanReport, plan_mobius
from repro.core.partition import PlanInfeasibleError
from repro.hardware.topology import Topology
from repro.models.spec import ModelSpec

__all__ = [
    "surviving_topology",
    "ReplanCostModel",
    "ReplanResult",
    "replan_after_dropout",
]


def surviving_topology(topology: Topology, dropped_gpu: int) -> Topology:
    """The server topology after ``dropped_gpu`` is removed.

    The dead GPU leaves its root complex; a root complex with no remaining
    GPUs is dropped entirely (its switch and uplink serve nobody).  GPU
    indices are renumbered densely, preserving the order of survivors.

    Raises:
        ValueError: If ``dropped_gpu`` is out of range.
        PlanInfeasibleError: If no GPUs survive.
    """
    if not 0 <= dropped_gpu < topology.n_gpus:
        raise ValueError(
            f"gpu index {dropped_gpu} out of range [0, {topology.n_gpus})"
        )
    rc = topology.root_complex_of(dropped_gpu)
    groups = list(topology.groups)
    groups[rc] -= 1
    groups = [g for g in groups if g > 0]
    if not groups:
        raise PlanInfeasibleError(
            f"no GPUs survive the dropout of gpu {dropped_gpu} "
            f"on {topology.name!r}"
        )
    return Topology(
        topology.gpu_spec,
        groups,
        pcie_bandwidth=topology.pcie_bandwidth,
        dram_bandwidth=topology.dram_bandwidth,
        nvlink_bandwidth=topology.nvlink_bandwidth,
        name=f"{topology.name} -gpu{dropped_gpu}",
    )


@dataclasses.dataclass(frozen=True)
class ReplanCostModel:
    """Deterministic model of recovery latency.

    Attributes:
        replan_seconds: Planner latency to charge; ``None`` charges the
            config's ``partition_time_limit``.
        migration_overhead: Multiplier on the checkpoint-restage time
            (protocol overhead, verification reads; 1.0 = raw copy).
    """

    replan_seconds: float | None = None
    migration_overhead: float = 1.0

    def __post_init__(self) -> None:
        if self.replan_seconds is not None and self.replan_seconds < 0:
            raise ValueError(
                f"replan_seconds must be >= 0, got {self.replan_seconds}"
            )
        if self.migration_overhead < 1:
            raise ValueError(
                f"migration_overhead must be >= 1, got {self.migration_overhead}"
            )


@dataclasses.dataclass(frozen=True)
class ReplanResult:
    """A successful elastic re-plan onto the surviving GPUs.

    Attributes:
        dropped_gpu: The GPU that died (index in the *original* topology).
        topology: The surviving server.
        plan_report: The fresh planning output for the survivors.
        replan_seconds: Modeled planner latency.
        migration_bytes: Checkpoint state re-staged from DRAM.
        migration_seconds: Modeled restage time over the PCIe path.
    """

    dropped_gpu: int
    topology: Topology
    plan_report: MobiusPlanReport
    replan_seconds: float
    migration_bytes: float
    migration_seconds: float

    @property
    def time_to_recover(self) -> float:
        """Seconds from dropout detection to training resumption."""
        return self.replan_seconds + self.migration_seconds

    @property
    def solver_nodes(self) -> int:
        """Branch & bound nodes the re-plan's partition solve explored.

        With a warm start from the pre-fault plan this is typically far
        below a cold solve — the recovery-latency headline of the
        incremental re-solve path."""
        return self.plan_report.partition_result.nodes_explored

    @property
    def warm_started(self) -> bool:
        """Whether the re-plan's partition solve was seeded by a previous
        solution's boundaries."""
        return self.plan_report.partition_result.warm_started


def replan_after_dropout(
    model: ModelSpec,
    topology: Topology,
    config: MobiusConfig,
    dropped_gpu: int,
    *,
    cost: ReplanCostModel = ReplanCostModel(),
    old_plan_report: MobiusPlanReport | None = None,
) -> ReplanResult:
    """Re-solve partition and mapping for the server minus ``dropped_gpu``.

    Args:
        model: The model being trained.
        topology: The original (pre-fault) server.
        config: Planner knobs; reused verbatim for the re-solve, so the
            recovery plan is held to the same constraints as the original.
        dropped_gpu: Index of the dead GPU in ``topology``.
        cost: Recovery latency model.
        old_plan_report: The plan in force when the GPU died; re-planned
            from scratch when omitted.  Determines which stage state must
            be migrated.

    Raises:
        PlanInfeasibleError: If the model cannot be partitioned onto the
            surviving GPUs (or none survive).
    """
    if old_plan_report is None:
        old_plan_report = plan_mobius(model, topology, config)
    survivors = surviving_topology(topology, dropped_gpu)
    plan_report = plan_mobius(model, survivors, config)

    old_plan = old_plan_report.plan
    stage_costs = old_plan.partition.stage_costs(old_plan_report.cost_model)
    migration_bytes = float(
        sum(
            stage_costs[stage].param_bytes
            for stage in old_plan.stages_of_gpu(dropped_gpu)
        )
    )
    migration_seconds = (
        cost.migration_overhead * migration_bytes / survivors.pcie_bandwidth
    )
    replan_seconds = (
        cost.replan_seconds
        if cost.replan_seconds is not None
        else config.partition_time_limit
    )
    return ReplanResult(
        dropped_gpu=dropped_gpu,
        topology=survivors,
        plan_report=plan_report,
        replan_seconds=replan_seconds,
        migration_bytes=migration_bytes,
        migration_seconds=migration_seconds,
    )
