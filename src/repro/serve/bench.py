"""Serve benchmark: the ``repro servebench`` backend.

Drives a live :class:`~repro.serve.daemon.PlanService` over the check
corpus (:mod:`repro.check.corpus`) and emits ``BENCH_serve.json``:

* **throughput** — plans/sec through the daemon in four regimes: ``cold``
  (every request solved), ``warm`` (memory-cache hits), ``restart-warm``
  (fresh process-level cache, answers served from the durable sqlite
  store — the crash-recovery fast path) and ``coalesced`` (8 tenants
  submitting identical bursts, amortized over shared solves);
* **plans** — each corpus cell's plan fingerprint, identical across all
  four regimes (``consistent``): caching, durability and coalescing must
  be invisible in results;
* **scaling** — plans/sec through pools of N=1/2/4 process workers over
  a cold, non-coalescing workload (corpus cells × perturbed bandwidths),
  with the fingerprint-identity bit (``consistent``) across counts;
* **recovery** — the chaos scenario rows from
  :mod:`repro.serve.chaos` (worker kill, poison quarantine, deadline
  straggler, store corruption, overload burst).

Fingerprints and recovery outcomes are deterministic; wall times are
hardware-dependent.  The CI gate (:func:`compare_benchmarks`) fails on a
fingerprint divergence (including across worker counts), a chaos
scenario regression, a throughput drop beyond
``THROUGHPUT_REGRESSION_RATIO`` against the committed baseline, or — on
hosts with enough cores to scale at all — a worker-pool speedup below
``SCALING_SPEEDUP_FLOOR``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.check.corpus import default_corpus
from repro.perf.cache import cache_overridden, get_cache
from repro.serve.admission import AdmissionConfig
from repro.serve.chaos import run_chaos
from repro.serve.daemon import PlanService, ServiceConfig
from repro.serve.requests import PlanRequest

__all__ = ["run_bench", "write_bench", "compare_benchmarks", "BENCH_SCHEMA"]

BENCH_SCHEMA = "mobius-bench-serve/1"

#: Throughput drops beyond this ratio against baseline fail the CI gate.
THROUGHPUT_REGRESSION_RATIO = 1.25

#: Identical-request fan-out per corpus cell in the coalesced regime.
_COALESCE_FANOUT = 8

#: Timed repeats per regime; the best (minimum) wall is reported, which
#: filters scheduler noise out of the plans/sec gate.  Every repeat uses a
#: fresh store so ``cold`` stays genuinely cold.
_REPEATS = 5

#: Corpus passes inside one timed ``warm`` / ``restart-warm`` window.  A
#: single warm pass serves in a few milliseconds — far too small a
#: denominator for a 25% plans/sec gate — so the phases loop enough work
#: to measure honestly.  ``restart-warm`` clears the memory tier between
#: passes, so every pass re-reads the durable store like a fresh process.
_WARM_PASSES = 50
_RESTART_PASSES = 20

#: Coalesced bursts per timed window (each on a fresh service + store so
#: every burst's solves stay cold and shared).
_COALESCE_BURSTS = 3

#: Worker-scaling gate: plans/sec at ``--workers 4`` must reach this
#: multiple of the ``--workers 1`` rate — enforced only on hosts with at
#: least ``_SCALING_MIN_CPUS`` cores, because a 1-core container cannot
#: physically scale process workers (the rows are still recorded there).
SCALING_SPEEDUP_FLOOR = 1.8
_SCALING_MIN_CPUS = 4

#: Bandwidth perturbations generating the scaling workload: each corpus
#: cell is re-planned under these distinct bandwidths, so every request
#: in the timed window is an independent cold solve (nothing coalesces,
#: nothing cache-hits) — exactly the workload worker pools parallelize.
_SCALING_BANDWIDTH_FACTORS = (0.8, 0.9, 1.1, 1.2, 1.3)

#: Timed repeats per worker count (best wall reported, as above).
_SCALING_REPEATS = 2


def _corpus_requests() -> list[tuple[str, PlanRequest]]:
    return [
        (cell.name, PlanRequest(model=cell.model, topology=cell.topology,
                                config=cell.config))
        for cell in default_corpus()
    ]


def _no_sleep(_seconds: float) -> None:
    return None


def _run_throughput_rows(workdir: Path) -> tuple[list[dict], list[dict]]:
    """Time the four serving regimes; returns (throughput, plans) rows.

    The only wall-clock reads in :mod:`repro.serve` live here, bracketing
    whole phases for reporting — they never steer what any phase does
    (MOB002 clock-allowlisted site).
    """
    requests = _corpus_requests()
    fingerprints: dict[str, list[str]] = {name: [] for name, _ in requests}
    walls: dict[str, list[float]] = {}
    plan_counts: dict[str, int] = {}

    def record(phase: str, plans: int, wall: float) -> None:
        walls.setdefault(phase, []).append(wall)
        plan_counts[phase] = plans

    for repeat in range(_REPEATS):
        store_path = str(workdir / f"serve-{repeat}.sqlite")
        with cache_overridden():
            with PlanService(
                ServiceConfig(store_path=store_path), sleeper=_no_sleep
            ) as service:
                started = time.perf_counter()
                for name, request in requests:
                    fingerprints[name].append(
                        service.plan(request).plan_fingerprint
                    )
                record("cold", len(requests), time.perf_counter() - started)

                started = time.perf_counter()
                for _pass in range(_WARM_PASSES):
                    for name, request in requests:
                        fingerprints[name].append(
                            service.plan(request).plan_fingerprint
                        )
                record(
                    "warm",
                    len(requests) * _WARM_PASSES,
                    time.perf_counter() - started,
                )

        # Daemon "restart": only the sqlite store survives the cache swap.
        with cache_overridden():
            with PlanService(
                ServiceConfig(store_path=store_path), sleeper=_no_sleep
            ) as service:
                started = time.perf_counter()
                for _pass in range(_RESTART_PASSES):
                    get_cache().clear_memory()
                    for name, request in requests:
                        fingerprints[name].append(
                            service.plan(request).plan_fingerprint
                        )
                record(
                    "restart-warm",
                    len(requests) * _RESTART_PASSES,
                    time.perf_counter() - started,
                )

        # Coalesced: fresh store and cache per burst, every solve cold but
        # shared by _COALESCE_FANOUT tenants submitting identical requests.
        ticket_count = 0
        started = time.perf_counter()
        for burst in range(_COALESCE_BURSTS):
            with cache_overridden():
                with PlanService(
                    ServiceConfig(
                        store_path=str(
                            workdir / f"serve-coalesced-{repeat}-{burst}.sqlite"
                        ),
                        autostart=False,
                    ),
                    sleeper=_no_sleep,
                ) as service:
                    tickets = [
                        (name, service.submit(
                            PlanRequest(
                                model=request.model,
                                topology=request.topology,
                                config=request.config,
                                tenant=f"tenant-{i}",
                            )
                        ))
                        for name, request in requests
                        for i in range(_COALESCE_FANOUT)
                    ]
                    service.start()
                    for name, ticket in tickets:
                        fingerprints[name].append(
                            service.result(ticket).plan_fingerprint
                        )
                    ticket_count += len(tickets)
        record("coalesced", ticket_count, time.perf_counter() - started)

    rows = []
    for phase in ("cold", "warm", "restart-warm", "coalesced"):
        wall = min(walls[phase])
        plans = plan_counts[phase]
        rows.append(
            {
                "name": phase,
                "plans": plans,
                "wall_seconds": round(wall, 4),
                "plans_per_second": round(plans / wall, 2) if wall > 0 else None,
            }
        )

    plans = [
        {
            "name": name,
            "fingerprint": seen[0],
            "consistent": len(set(seen)) == 1,
        }
        for name, seen in fingerprints.items()
    ]
    return rows, plans


def _scaling_requests() -> list[tuple[str, PlanRequest]]:
    """The worker-scaling workload: corpus cells × perturbed bandwidths."""
    requests = []
    for cell in default_corpus():
        base_bandwidth = cell.config.bandwidth or cell.topology.pcie_bandwidth
        for factor in _SCALING_BANDWIDTH_FACTORS:
            requests.append(
                (
                    f"{cell.name}@bw{factor}",
                    PlanRequest(
                        model=cell.model,
                        topology=cell.topology,
                        config=dataclasses.replace(
                            cell.config, bandwidth=base_bandwidth * factor
                        ),
                    ),
                )
            )
    return requests


def _run_scaling_rows(
    workdir: Path, worker_counts: tuple[int, ...]
) -> dict[str, Any]:
    """Plans/sec through N process workers; another reporting-only clock site.

    Each timed window submits every scaling request up front and then
    collects responses, so N dispatch threads genuinely overlap N child
    solver processes.  The pool is prewarmed *outside* the window with
    the plain corpus requests — those spawn the worker processes and pay
    the interpreter/numpy import cost, and their keys are disjoint from
    the perturbed workload, which therefore stays cold.  Fingerprints
    must be identical at every worker count: parallel dispatch is a
    latency feature, invisible in results.
    """
    requests = _scaling_requests()
    prewarm = _corpus_requests()
    fingerprints: dict[str, list[str]] = {name: [] for name, _ in requests}
    rows = []
    for workers in worker_counts:
        walls = []
        for repeat in range(_SCALING_REPEATS):
            config = ServiceConfig(
                store_path=str(workdir / f"scale-{workers}-{repeat}.sqlite"),
                worker="process",
                workers=workers,
                admission=AdmissionConfig(
                    max_pending=4 * len(requests),
                    max_pending_per_tenant=4 * len(requests),
                ),
                autostart=False,
            )
            with cache_overridden():
                with PlanService(config, sleeper=_no_sleep) as service:
                    warm_tickets = [
                        service.submit(request) for _name, request in prewarm
                    ]
                    service.start()
                    for ticket in warm_tickets:
                        service.result(ticket, timeout=300.0)
                    started = time.perf_counter()
                    tickets = [
                        (name, service.submit(request))
                        for name, request in requests
                    ]
                    for name, ticket in tickets:
                        fingerprints[name].append(
                            service.result(ticket, timeout=300.0).plan_fingerprint
                        )
                    walls.append(time.perf_counter() - started)
        wall = min(walls)
        rows.append(
            {
                "workers": workers,
                "plans": len(requests),
                "wall_seconds": round(wall, 4),
                "plans_per_second": (
                    round(len(requests) / wall, 2) if wall > 0 else None
                ),
            }
        )
    rates = {row["workers"]: row["plans_per_second"] for row in rows}
    top = max(worker_counts)
    speedup = None
    if rates.get(1) and rates.get(top) and top > 1:
        speedup = round(rates[top] / rates[1], 2)
    return {
        "cpus": os.cpu_count() or 1,
        "rows": rows,
        "top_workers": top,
        "speedup_top_vs_1": speedup,
        "consistent": all(
            len(set(seen)) == 1 for seen in fingerprints.values()
        ),
    }


def run_bench(workers: int | None = None) -> dict[str, Any]:
    """Run the full serve benchmark; returns the JSON document.

    Args:
        workers: Top of the worker-scaling ladder (the bench always
            measures 1 and 2 as well).  ``None`` means the CPU count
            capped at 4 — the count ``scaling.cpus`` records — so an
            unconfigured run never oversubscribes its host.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    top_workers = workers if workers is not None else min(4, os.cpu_count() or 1)
    worker_counts = tuple(sorted({1, 2, top_workers}))
    workdir = Path(tempfile.mkdtemp(prefix="repro-servebench-"))
    try:
        throughput, plans = _run_throughput_rows(workdir)
        scaling = _run_scaling_rows(workdir, worker_counts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "schema": BENCH_SCHEMA,
        "throughput": throughput,
        "plans": plans,
        "scaling": scaling,
        "recovery": run_chaos(),
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

    Returns a list of human-readable failures (empty = gate passes).
    Invariants, failed even without a baseline:

    * the four serving regimes disagree on a corpus cell's plan
      (``plans[].consistent``);
    * a chaos recovery scenario does not pass (``recovery[].ok``);
    * the worker-scaling rows returned divergent fingerprints across
      worker counts (``scaling.consistent``).

    With a baseline:

    * a corpus cell's plan fingerprint diverged from the baseline;
    * a throughput regime's plans/sec dropped below
      ``1 / THROUGHPUT_REGRESSION_RATIO`` of the baseline;
    * the top-vs-1 speedup fell below ``SCALING_SPEEDUP_FLOOR`` — gated
      only when the *current* host has >= 4 CPUs, because process workers
      cannot scale on fewer cores no matter what the code does; wall-clock
      facts are compared against the hardware that produced them, never
      across machines;
    * rows present only on one side — the corpus and the scenario list
      are part of the contract.
    """
    failures = [
        f"plans:{row['name']}: serving regimes returned divergent fingerprints"
        for row in current.get("plans", [])
        if not row.get("consistent", False)
    ]
    failures.extend(
        f"recovery:{row['name']}: chaos scenario no longer passes"
        for row in current.get("recovery", [])
        if not row.get("ok", False)
    )
    cur_scaling = current.get("scaling")
    if cur_scaling is not None and not cur_scaling.get("consistent", False):
        failures.append("scaling: fingerprints diverged across worker counts")
    if baseline is None:
        return failures

    base_plans = {row["name"]: row for row in baseline.get("plans", [])}
    cur_plans = {row["name"]: row for row in current.get("plans", [])}
    for name in sorted(base_plans.keys() | cur_plans.keys()):
        if name not in cur_plans:
            failures.append(f"plans:{name}: cell missing from current run")
            continue
        if name not in base_plans:
            failures.append(f"plans:{name}: cell missing from baseline")
            continue
        if cur_plans[name]["fingerprint"] != base_plans[name]["fingerprint"]:
            failures.append(
                f"plans:{name}: fingerprint diverged from baseline "
                f"({base_plans[name]['fingerprint'][:12]} -> "
                f"{cur_plans[name]['fingerprint'][:12]})"
            )

    base_rec = {row["name"]: row for row in baseline.get("recovery", [])}
    cur_rec = {row["name"]: row for row in current.get("recovery", [])}
    for name in sorted(base_rec.keys() | cur_rec.keys()):
        if name not in cur_rec:
            failures.append(f"recovery:{name}: scenario missing from current run")
            continue
        if name not in base_rec:
            failures.append(f"recovery:{name}: scenario missing from baseline")

    base_tp = {row["name"]: row for row in baseline.get("throughput", [])}
    cur_tp = {row["name"]: row for row in current.get("throughput", [])}
    for name in sorted(base_tp.keys() | cur_tp.keys()):
        if name not in cur_tp:
            failures.append(f"throughput:{name}: regime missing from current run")
            continue
        if name not in base_tp:
            failures.append(f"throughput:{name}: regime missing from baseline")
            continue
        base_rate = base_tp[name].get("plans_per_second")
        cur_rate = cur_tp[name].get("plans_per_second")
        if base_rate and cur_rate and (
            cur_rate < base_rate / THROUGHPUT_REGRESSION_RATIO
        ):
            failures.append(
                f"throughput:{name}: plans/sec regressed "
                f"{base_rate} -> {cur_rate} "
                f"(>{THROUGHPUT_REGRESSION_RATIO:.2f}x)"
            )

    if cur_scaling is None:
        if baseline.get("scaling") is not None:
            failures.append("scaling: section missing from current run")
    else:
        cpus = cur_scaling.get("cpus") or 1
        speedup = cur_scaling.get("speedup_top_vs_1")
        top = cur_scaling.get("top_workers") or 1
        if cpus >= _SCALING_MIN_CPUS and top >= _SCALING_MIN_CPUS:
            if speedup is None or speedup < SCALING_SPEEDUP_FLOOR:
                failures.append(
                    f"scaling: {top}-worker speedup {speedup} below the "
                    f"{SCALING_SPEEDUP_FLOOR}x floor on a {cpus}-cpu host"
                )
    return failures
