"""Typed requests, responses and rejections of the planning service.

Every request is content-addressed: :meth:`PlanRequest.solve_key` is the
fingerprint of the exact memoization key ``plan_mobius`` uses, so the
daemon, the worker processes and the durable store all agree on what
"the same request" means — coalescing, cache lookups and crash-recovery
byte-identity checks are all keyed by it.

Deadlines are *deterministic budgets*, never wall-clock control flow: a
:class:`Deadline` caps the MIP partition search's node count
(``MobiusConfig.partition_max_nodes``), so a deadline-limited solve
returns the same incumbent on every machine and the MOB002/MOB004
determinism contracts hold through the serve layer unchanged.
"""

from __future__ import annotations

import dataclasses

from repro.core.api import MobiusConfig, MobiusPlanReport
from repro.hardware.topology import Topology
from repro.models.spec import ModelSpec
from repro.perf.fingerprint import fingerprint

__all__ = [
    "AdmissionRejected",
    "Deadline",
    "PlanRequest",
    "PlanResponse",
    "ServeError",
]


class ServeError(RuntimeError):
    """Base class for typed serve-layer failures."""


class AdmissionRejected(ServeError):
    """The service refused to enqueue a request (typed load shedding).

    Attributes:
        reason: One of ``"queue-full"``, ``"tenant-quota"``,
            ``"quarantined"`` or ``"shutdown"``.
        tenant: The submitting tenant.
        solve_key: The request's content address.
    """

    def __init__(self, reason: str, tenant: str, solve_key: str) -> None:
        super().__init__(
            f"request {solve_key[:12]} from tenant {tenant!r} rejected: {reason}"
        )
        self.reason = reason
        self.tenant = tenant
        self.solve_key = solve_key


@dataclasses.dataclass(frozen=True)
class Deadline:
    """Per-request deadline as a deterministic solver budget.

    Attributes:
        max_nodes: Branch-and-bound node budget for the partition search.
            When the budget binds, the solve returns its best incumbent
            with ``optimal=False`` — the service's signal that the
            deadline was missed and the degradation ladder applies.
    """

    max_nodes: int

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")


@dataclasses.dataclass(frozen=True)
class PlanRequest:
    """One plan request: a model onto a topology, under a tenant's deadline."""

    model: ModelSpec
    topology: Topology
    config: MobiusConfig = MobiusConfig()
    tenant: str = "default"
    deadline: Deadline | None = None

    def effective_config(self) -> MobiusConfig:
        """The planner config with the deadline folded into the node budget."""
        if self.deadline is None:
            return self.config
        return dataclasses.replace(
            self.config, partition_max_nodes=self.deadline.max_nodes
        )

    def memo_key(self) -> tuple:
        """The exact ``plan_mobius`` memoization key object.

        Mirrors the ``("plan_mobius", model, topology, config)`` tuple in
        :func:`repro.core.api.plan_mobius` so a daemon-side store lookup
        hits entries written by worker processes; the coupling is pinned
        by ``tests/serve/test_daemon.py``.
        """
        return ("plan_mobius", self.model, self.topology, self.effective_config())

    def solve_key(self) -> str:
        """Content address of this request's solve (coalescing/cache key).

        Tenant identity is deliberately excluded: identical plan requests
        from different tenants share one solve — fairness is enforced at
        admission, not by duplicating work.
        """
        return fingerprint(self.memo_key())

    def quality_key(self) -> str:
        """Content address ignoring the deadline (the last-known-good key).

        A deadline-missed request looks up the best *full-quality* plan
        ever computed for the same planning problem under this key.
        """
        config = dataclasses.replace(self.effective_config(), partition_max_nodes=None)
        return fingerprint(("serve-lkg", self.model, self.topology, config))


@dataclasses.dataclass(frozen=True)
class PlanResponse:
    """What the service answered, and how it got there.

    Attributes:
        status: ``"ok"`` (healthy solve or cache/store hit),
            ``"degraded"`` (deadline missed or worker dead — the plan is
            usable but explicitly second-choice), ``"rejected"``
            (quarantined while in flight) or ``"failed"`` (no plan could
            be produced at all).
        source: Where the plan came from: ``"solver"``, ``"cache"``
            (memory/disk/durable store hit), ``"stale"`` (last-known-good
            served past its deadline), ``"heuristic"`` (max-stage
            fallback) or ``"none"``.
        report: The planning report (``None`` for rejected/failed).
        plan_fingerprint: Content address of ``report.plan`` — the
            byte-identity handle the chaos harness and ``servebench``
            compare across crashes and restarts.
        optimal: Whether the partition search completed (budget not
            binding).
        degraded: The response is second-choice (stale or heuristic or
            budget-truncated incumbent).
        stale: The plan is a last-known-good from an earlier solve.
        attempts: Worker attempts consumed (0 for pure cache hits).
        restarts: Worker restarts consumed while serving this request.
        coalesced: How many tickets shared this solve (>= 1).
        tenant: The tenant this response instance was addressed to.
        reason: Degradation/rejection/failure detail, if any.
    """

    status: str
    source: str
    report: MobiusPlanReport | None
    plan_fingerprint: str | None
    optimal: bool = True
    degraded: bool = False
    stale: bool = False
    attempts: int = 0
    restarts: int = 0
    coalesced: int = 1
    tenant: str = "default"
    reason: str | None = None

    @property
    def ok(self) -> bool:
        """The response carries a servable plan (healthy or degraded)."""
        return self.report is not None and self.status in ("ok", "degraded")
