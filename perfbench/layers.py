"""Which entry points the traced run wraps, and how spans become layer metrics.

:func:`install` wraps the public entry points of every layer the catalog
names (``perfbench.metrics.PER_LAYER``); :func:`layer_metrics` folds the
recorded spans plus the counts the program already returns into one value
per catalog entry.  A layer a workload never calls reports zero time and
zero counts; a ratio with an empty base reports zero beside its base.
"""

from __future__ import annotations

import inspect
import sys

from perfbench.metrics import PER_LAYER
from perfbench.tracing import Patcher, Recorder, covered_seconds, self_times

__all__ = ["install", "layer_metrics", "longest_path"]


def _count_tasks(args, kwargs, result, counts, state) -> None:
    counts["tasks"] = len(result)


def _count_partition(args, kwargs, result, counts, state) -> None:
    counts["nodes"] = result.nodes_explored
    counts["optimal"] = int(bool(result.optimal))
    counts["warm_started"] = int(bool(result.warm_started))


def _count_lookup(args, kwargs, result, counts, state) -> None:
    counts["namespace"] = args[1]
    counts["hit"] = int(bool(result[1]))


def _sim_state(args, kwargs):
    runner = args[0]
    return runner.sim.events_processed, runner.network.stats.reallocations, (
        runner.network.stats.flows_touched
    )


def _count_execute(args, kwargs, result, counts, state) -> None:
    events, reallocations, touched = _sim_state(args, kwargs)
    counts["events"] = events - state[0]
    counts["reallocations"] = reallocations - state[1]
    counts["flows_touched"] = touched - state[2]


def _count_rows(args, kwargs, result, counts, state) -> None:
    trace = args[0]
    counts["rows"] = len(trace.compute) + len(trace.transfers)


def _keep_cell(args, kwargs, result, counts, state) -> None:
    counts["cell"] = args[0]  # fingerprinted after the traced window closes


def install(recorder: Recorder) -> Patcher:
    """Wrap every layer's public entry points; returns the patcher to undo."""
    from repro import analysis, baselines, training
    from repro.core import mapping, partition, pipeline
    from repro.experiments import runner, schedule
    from repro.models import profiler
    from repro.perf import cache
    from repro.serve import daemon, store, supervisor
    from repro.sim import tasks, trace

    patcher = Patcher(recorder)
    patcher.method(
        daemon.PlanService, "submit", "serve.submit",
        rid=lambda args, kwargs: args[1].solve_key(),
    )
    patcher.method(
        supervisor.Supervisor, "solve", "serve.worker_solve",
        rid=lambda args, kwargs: kwargs.get("solve_key", args[-1]),
    )
    patcher.method(store.DurableStore, "get", "serve.store.get")
    patcher.method(store.DurableStore, "put", "serve.store.put")
    patcher.method(cache.ResultCache, "lookup", "cache.lookup", counter=_count_lookup)
    patcher.function(partition, "mip_partition", "partition.search", counter=_count_partition)
    patcher.function(mapping, "cross_mapping", "mapping.cross")
    patcher.method(profiler.Profiler, "profile", "profiler.profile")
    patcher.function(pipeline, "build_mobius_tasks", "pipeline.build", counter=_count_tasks)
    patcher.method(
        tasks.TaskGraphRunner, "execute", "sim.execute",
        before=_sim_state, counter=_count_execute,
    )
    patcher.method(trace.Trace, "columnar_digest", "trace.digest", counter=_count_rows)
    for name in baselines.__all__:
        entry = getattr(baselines, name)
        if name.startswith("run_") and inspect.isfunction(entry):
            patcher.function(sys.modules[entry.__module__], name, "baselines.run")
    for name in analysis.__all__:
        entry = getattr(analysis, name)
        if inspect.isfunction(entry):
            patcher.function(sys.modules[entry.__module__], name, "analysis.call")
    patcher.function(
        sys.modules[training.run_convergence_experiment.__module__],
        "run_convergence_experiment", "training.convergence",
    )
    patcher.function(schedule, "run_cells", "schedule.drain")
    patcher.function(runner, "run_cell", "schedule.cell", counter=_keep_cell)
    return patcher


def longest_path(weights: dict[int, float], deps: dict[int, set[int]]) -> float:
    """Heaviest dependency chain of a DAG whose nodes carry ``weights``."""
    finish: dict[int, float] = {}

    def visit(node: int) -> float:
        if node not in finish:
            finish[node] = weights.get(node, 0.0) + max(
                (visit(dep) for dep in deps.get(node, ())), default=0.0
            )
        return finish[node]

    return max((visit(node) for node in weights), default=0.0)


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(recorder: Recorder, *, start: float, end: float, extra: dict) -> dict:
    """Every catalog per-layer value from the spans in ``[start, end]``.

    ``extra`` carries what spans cannot see: counts read from returned
    objects (serve responses, worker-side plan reports, schedule and cache
    reports) keyed by catalog name, plus ``cache_stats`` (merged
    ``stats_snapshot`` deltas).  Values in ``extra`` that name a catalog
    metric are added to the span-derived value.
    """
    spans = [s for s in recorder.spans if s.start >= start and s.end <= end]
    own = self_times(spans)

    def total(name):
        """Busy time: a span nested in a same-named span is not counted twice."""
        return sum(
            s.duration for s in spans
            if s.name == name and (s.parent is None or recorder.spans[s.parent].name != name)
        )

    def count(name, key=None):
        chosen = [s for s in spans if s.name == name]
        return len(chosen) if key is None else sum(s.counts.get(key, 0) for s in chosen)

    values: dict[str, float] = {}
    values["serve.submit_s"] = total("serve.submit")
    values["serve.worker_solve_s"] = total("serve.worker_solve")
    values["serve.worker_solves"] = count("serve.worker_solve")
    values["serve.store.get_s"] = total("serve.store.get")
    values["serve.store.put_s"] = total("serve.store.put")
    values["serve.store.ops"] = count("serve.store.get") + count("serve.store.put")

    cache_stats = extra.pop("cache_stats", {})
    for namespace in ("plan", "partition", "system"):
        probes = [s for s in spans if s.name == "cache.lookup"
                  and s.counts.get("namespace") == namespace]
        stats = cache_stats.get(namespace, {})
        hits = stats.get("hits", 0) + sum(s.counts["hit"] for s in probes)
        lookups = stats.get("hits", 0) + stats.get("misses", 0) + len(probes)
        values[f"cache.{namespace}.hit_ratio"] = _ratio(hits, lookups)
        values[f"cache.{namespace}.lookups"] = lookups
    values["cache.lookup_s"] = total("cache.lookup")

    solves = count("partition.search")
    values["partition.solves"] = solves
    values["partition.nodes"] = count("partition.search", "nodes")
    values["partition.optimal"] = count("partition.search", "optimal")
    values["partition.warm_started"] = count("partition.search", "warm_started")
    values["partition.busy_s"] = total("partition.search")
    values["mapping.busy_s"] = total("mapping.cross")
    values["mapping.calls"] = count("mapping.cross")
    values["profiler.busy_s"] = total("profiler.profile")
    values["pipeline.build_s"] = total("pipeline.build")
    values["pipeline.tasks"] = count("pipeline.build", "tasks")
    values["sim.execute_s"] = total("sim.execute")
    values["sim.events"] = count("sim.execute", "events")
    values["sim.reallocations"] = count("sim.execute", "reallocations")
    values["sim.flows_touched"] = count("sim.execute", "flows_touched")
    values["trace.digest_s"] = total("trace.digest")
    values["trace.rows"] = count("trace.digest", "rows")
    values["analysis.busy_s"] = total("analysis.call")
    values["baselines.self_s"] = sum(
        t for s, t in zip(spans, own) if s.name == "baselines.run"
    )
    values["training.busy_s"] = total("training.convergence")
    values["schedule.drain_s"] = total("schedule.drain")

    for name, value in extra.items():
        values[name] = values.get(name, 0) + value

    solves = values["partition.solves"]
    values["partition.optimal_ratio"] = _ratio(values.pop("partition.optimal"), solves)
    values["partition.warm_started_ratio"] = _ratio(values.pop("partition.warm_started"), solves)
    values["partition.us_per_node"] = 1e6 * _ratio(values["partition.busy_s"], values["partition.nodes"])
    values["sim.flows_touched_per_reallocation"] = _ratio(
        values.pop("sim.flows_touched"), values["sim.reallocations"]
    )
    values["sim.us_per_event"] = 1e6 * _ratio(values["sim.execute_s"], values["sim.events"])
    values["tracing.uncovered_share"] = 1.0 - _ratio(
        covered_seconds(spans, start, end), end - start
    )
    return {name: values.get(name, 0) for name, *_ in PER_LAYER}
