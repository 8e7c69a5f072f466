"""The two workload passes; each runs in a fresh interpreter (``perfbench.child``).

A pass sets up (imports, service start, worker spawn), marks the set-up
time, runs its operations and checks their outputs.  Modes:

* ``setup`` — set up, mark, tear down (extra set-up samples);
* ``measure`` — untraced, operations until ``seconds`` have elapsed;
* ``reference`` — untraced, the fixed work a traced pass repeats;
* ``traced`` — the same fixed work under the layer wrappers.

Only the benchmark's inputs reach the program; checks run after the timed
operations and count toward ``failed``.
"""

from __future__ import annotations

import io
import math
import resource
import threading
import time
from pathlib import Path
from statistics import fmean, median

from perfbench import inputs, layers
from perfbench.metrics import InsufficientSamples, geomean, percentile
from perfbench.tracing import Patcher, Recorder

__all__ = ["PINNED_CELLS_FINGERPRINT", "run_pass"]

#: ``ScheduleReport.cells_fingerprint`` of the fast figure suite: the
#: deterministic faces of all 53 unique cells (Fig 12's host walls excluded).
PINNED_CELLS_FINGERPRINT = "cdee149c9d6f749142a2817145b65ec82cf83b073ee72cbaa82c4c7225f5777c"

#: Beyond this GPU count ``check_mapping``'s exact search scans 8! orders in
#: pure Python (~70 s per plan on a 2-CPU host), so serve-mix runs it on
#: the 4-GPU wirings only; ``check_plan`` runs on every distinct plan.
MAPPING_CHECK_MAX_GPUS = 4

clock = time.perf_counter


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and its largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_pass(job: dict) -> dict:
    """Run one pass; ``job["t0"]`` is the parent's monotonic time at spawn."""
    runner = {"serve-mix": _serve, "figure-suite": _suite}
    result = runner[job["workload"]](job)
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def _setup_seconds(job: dict) -> float:
    return time.monotonic() - job["t0"]


def _traced(job: dict):
    """A recorder with every layer wrapped, or ``(None, None)`` untraced."""
    if job["mode"] != "traced":
        return None, None
    recorder = Recorder(clock)
    return recorder, layers.install(recorder)


# ----------------------------------------------------------------------
# serve-mix: closed loop of nproc clients against a process-worker PlanService
# ----------------------------------------------------------------------


def _serve(job: dict) -> dict:
    from repro.core.api import MobiusConfig
    from repro.hardware import topology as topologies
    from repro.models import zoo
    from repro.perf.cache import get_cache
    from repro.serve.daemon import PlanService, ServiceConfig
    from repro.serve.requests import AdmissionRejected, PlanRequest

    nproc = job["nproc"]
    models = {name: getattr(zoo, name)() for name in inputs.SERVE_MODELS}
    topos = {name: getattr(topologies, name)() for name in inputs.SERVE_TOPOLOGIES}
    requests = []
    for spec in job["inputs"]:
        topology = topos[spec["topology"]]
        config = MobiusConfig(bandwidth=topology.pcie_bandwidth * spec["bandwidth_factor"])
        requests.append(PlanRequest(
            model=models[spec["model"]], topology=topology, config=config,
            tenant=spec["tenant"],
        ))

    service = PlanService(ServiceConfig(
        store_path=str(Path(job["tmp"]) / "serve.sqlite"), worker="process", workers=nproc,
    ))
    try:
        # Spawn every worker before timing: one distinct tiny solve per
        # worker, all in flight at once so each dispatch thread leases its own.
        warmup = [
            service.submit(PlanRequest(model=zoo.gpt2_small(seq_len=128 + 8 * i),
                                       topology=topos["topo_4"]))
            for i in range(nproc)
        ]
        for ticket in warmup:
            service.result(ticket, timeout=120)
        result = {"setup_s": _setup_seconds(job)}
        if job["mode"] == "setup":
            return result
        stats_before = service.stats()
        recorder, patcher = _traced(job)
        records = _closed_loop(service, requests, nproc, job, AdmissionRejected)
        end = clock()
        if patcher is not None:
            patcher.restore()
        stats_after = service.stats()
    finally:
        service.close()

    start = records["start"]
    done = records["done"]
    wall = max(r[2] for r in done) - start
    failures, first, checks = _check_serve(done, requests)

    served = [r[3] is not None and r[3].ok for r in done]
    latencies = [(r[2] - r[1]) if ok else math.inf for r, ok in zip(done, served)]
    reported = {
        "plan_latency_mean_s": fmean(latencies),
        "plan_latency_p50_s": median(latencies),
        "plans_per_s": sum(served) / wall,
        "modeled_step_s": geomean(
            response.report.plan.estimated_step_seconds for _, response in first.values()
        ) if first else math.nan,
    }
    try:
        reported["plan_latency_p90_s"] = percentile(latencies, 90)
    except InsufficientSamples:
        reported["plan_latency_p90_s"] = None  # printed as n/a
    result.update(
        attempted=len(done), failed=len(failures), failures=failures[:10], checks=checks,
        samples=len(latencies), wall_s=wall, ops=len(done), latencies=sorted(latencies),
        latency_s=reported["plan_latency_mean_s"], throughput_per_s=reported["plans_per_s"],
        reported=reported,
    )
    if recorder is not None:
        result["layers"], result["spans"] = _serve_layers(
            recorder, start, end, done, requests, stats_before, stats_after,
            get_cache().stats_snapshot(),
        )
    return result


def _check_serve(done: list, requests: list) -> tuple[list, dict, list]:
    """Check every distinct plan served and every repeat's fingerprint.

    Returns ``(failures, first answer per solve key, check descriptions)``.
    """
    from repro.check.mapping_check import check_mapping
    from repro.check.plan_check import check_plan

    failures: list[str] = []
    first: dict[str, tuple] = {}
    repeats = 0
    for index, _, _, response, error in done:
        if response is None or not response.ok:
            failures.append(f"request {index}: {error or response.status}")
            continue
        key = requests[index].solve_key()
        if key not in first:
            first[key] = (index, response)
            continue
        repeats += 1
        if response.plan_fingerprint != first[key][1].plan_fingerprint:
            failures.append(f"request {index}: plan fingerprint differs from its first answer")
    mapping_verdicts: dict[tuple, bool] = {}
    for index, response in first.values():
        request, plan = requests[index], response.report.plan
        verdict = check_plan(plan, request.topology, response.report.cost_model,
                             bandwidth=request.config.bandwidth)
        if not verdict.ok:
            failures.append(f"request {index}: check_plan: {verdict.render()}")
        if request.topology.n_gpus > MAPPING_CHECK_MAX_GPUS:
            continue
        triple = (request.topology.name, plan.n_stages, plan.mapping.perm)
        if triple not in mapping_verdicts:
            report = check_mapping(plan.mapping, request.topology, plan.n_stages)
            mapping_verdicts[triple] = report.ok
            if not report.ok:
                failures.append(f"request {index}: check_mapping: {report.render()}")
    checks = [
        f"check_plan on {len(first)} distinct plans",
        f"check_mapping on {len(mapping_verdicts)} distinct 4-GPU mappings",
        f"plan_fingerprint of {repeats} repeated requests",
    ]
    return failures, first, checks


def _closed_loop(service, requests, clients, job, rejected_type) -> dict:
    """``clients`` threads, each sending its next request after a reply.

    ``measure`` mode stops issuing once ``seconds`` have elapsed; the
    fixed-work modes serve every request given.
    """
    lock = threading.Lock()
    cursor = [0]
    done: list[tuple] = []
    start = clock()
    deadline = start + job["seconds"] if job["mode"] == "measure" else math.inf

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(requests) or clock() >= deadline:
                    return
                cursor[0] += 1
            sent = clock()
            response, error = None, None
            try:
                response = service.plan(requests[index], timeout=120)
            except rejected_type as err:
                error = f"rejected: {err.reason}"
            except TimeoutError as err:
                error = str(err)
            with lock:
                done.append((index, sent, clock(), response, error))

    threads = [threading.Thread(target=client, name=f"perfbench-client-{i}") for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    done.sort()
    return {"start": start, "done": done}


def _serve_layers(recorder, start, end, done, requests, before, after, cache_stats):
    """Parent-side spans plus worker-side counts read from returned reports."""
    from repro.core.api import partition_solve_key
    from repro.perf.fingerprint import fingerprint

    solves: dict[str, list] = {}
    for span in recorder.spans:
        if span.name == "serve.worker_solve":
            solves.setdefault(span.rid, []).append((span.start, span.end))
    queue_wait = 0.0
    answers = {"cache": 0, "solver": 0, "degraded": 0}
    rejections = 0
    partitions: dict[str, object] = {}
    plans: dict[str, object] = {}
    for index, sent, finished, response, error in done:
        key = requests[index].solve_key()
        overlap = sum(
            max(0.0, min(finished, e) - max(sent, s)) for s, e in solves.get(key, ())
        )
        queue_wait += (finished - sent) - overlap
        if response is None or response.status == "rejected":
            rejections += 1
            continue
        if response.degraded:
            answers["degraded"] += 1
        if response.source in answers:
            answers[response.source] += 1
        if response.source == "solver" and response.report is not None:
            request = requests[index]
            plans.setdefault(key, response.report)
            partition_key = partition_solve_key(
                request.model, request.topology, request.effective_config()
            )
            partitions.setdefault(fingerprint(partition_key), response.report.partition_result)
    extra = {
        "serve.queue_wait_s": queue_wait,
        "serve.answers.cache": answers["cache"],
        "serve.answers.solver": answers["solver"],
        "serve.answers.degraded": answers["degraded"],
        "serve.coalesced_joins": after["coalesced_joins"] - before["coalesced_joins"],
        "serve.rejections": rejections,
        # Worker-side partition and mapping work, from the returned reports
        # (spawned workers cannot see the wrappers).
        "partition.solves": len(partitions),
        "partition.nodes": sum(p.nodes_explored for p in partitions.values()),
        "partition.optimal": sum(bool(p.optimal) for p in partitions.values()),
        "partition.warm_started": sum(bool(p.warm_started) for p in partitions.values()),
        "partition.busy_s": sum(p.solve_seconds for p in partitions.values()),
        "mapping.calls": len(plans),
        "mapping.busy_s": sum(r.mapping_result.search_seconds for r in plans.values()),
        "cache_stats": _stats_delta(before["cache"], cache_stats),
    }
    return layers.layer_metrics(recorder, start=start, end=end, extra=extra), _dump(recorder)


def _stats_delta(before: dict, after: dict) -> dict:
    return {
        namespace: {key: value - before.get(namespace, {}).get(key, 0)
                    for key, value in counters.items()}
        for namespace, counters in after.items()
    }


def _dump(recorder: Recorder) -> list:
    return [[s.name, s.start, s.end, s.parent, s.rid] for s in recorder.spans]


# ----------------------------------------------------------------------
# figure-suite: one cold run_suite(fast=True) into a fresh cache dir
# ----------------------------------------------------------------------


def _suite(job: dict) -> dict:
    from repro.experiments import ALL_EXPERIMENTS, suite
    from repro.experiments.schedule import build_schedule, enumerate_cells
    from repro.perf.fingerprint import fingerprint

    spec = job["inputs"]
    jobs = job.get("jobs", spec["jobs"])
    cache_dir = str(Path(job["tmp"]) / "cache")
    result = {"setup_s": _setup_seconds(job)}
    if job["mode"] == "setup":
        return result

    recorder, patcher = _traced(job)
    drain_timer = None
    if job["mode"] == "reference":
        # Only the drain's wall is needed (for parallel efficiency).
        from repro.experiments import schedule

        drain_timer = Recorder(clock)
        patcher = Patcher(drain_timer)
        patcher.function(schedule, "run_cells", "schedule.drain")
    start = clock()
    try:
        report = suite.run_suite(None, fast=spec["fast"], jobs=jobs, cache_dir=cache_dir,
                                 stream=io.StringIO())
        end = clock()
    finally:
        if patcher is not None:
            patcher.restore()
    wall = end - start
    schedule_report = report.schedule
    failures = []
    if schedule_report["cells_fingerprint"] != PINNED_CELLS_FINGERPRINT:
        failures.append(
            f"cells_fingerprint {schedule_report['cells_fingerprint']} "
            f"!= pinned {PINNED_CELLS_FINGERPRINT}"
        )
    cells = schedule_report["cells_unique"]
    result.update(
        attempted=1, failed=len(failures), failures=failures, samples=1, ops=1,
        checks=["cells_fingerprint against the pinned value"],
        wall_s=wall, jobs=jobs, latency_s=wall, throughput_per_s=cells / wall,
        reported={"suite_wall_s": wall, "cells_per_s": cells / wall},
    )
    if drain_timer is not None:
        result["drain_s"] = sum(s.duration for s in drain_timer.spans)
    if recorder is not None:
        drain = [s for s in recorder.spans if s.name == "schedule.drain"]
        cell_spans = [
            s for s in recorder.spans
            if s.name == "schedule.cell" and any(d.start <= s.start <= d.end for d in drain)
        ]
        busy = {fingerprint(s.counts["cell"]): s.duration for s in cell_spans}
        graph = build_schedule(enumerate_cells(ALL_EXPERIMENTS, fast=spec["fast"]))
        weights = {node.index: busy.get(node.digest, 0.0) for node in graph.nodes}
        deps = {node.index: node.deps for node in graph.nodes}
        drain_s = sum(s.duration for s in drain)
        extra = {
            "cache_stats": report.aggregate_cache,
            "schedule.assembly_s": wall - drain_s,
            "schedule.critical_path_s": layers.longest_path(weights, deps),
        }
        for name in ("cells_unique", "cells_computed", "duplicate_solves",
                     "cells_shared", "cells_coalesced"):
            extra[f"schedule.{name}"] = schedule_report[name]
        result["cell_busy_s"] = sum(busy.values())
        result["layers"] = layers.layer_metrics(recorder, start=start, end=end, extra=extra)
        result["spans"] = _dump(recorder)
    return result
