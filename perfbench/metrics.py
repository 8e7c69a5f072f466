"""Metric catalog and the small statistics the benchmark reports with.

The catalog is the single source of every metric's name, unit and meaning;
``BENCHMARK.json`` lists the same names and units (a test keeps them in
step).  ``END_TO_END`` metrics are reported by every workload from untraced
runs; ``PER_LAYER`` metrics come from the separate traced run, each naming
the owning module and the end-to-end metric it should move (the
layer → end-to-end interaction map).
"""

from __future__ import annotations

import math

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "REPORTED",
    "InsufficientSamples",
    "geomean",
    "percentile",
]


class InsufficientSamples(ValueError):
    """Fewer than ten samples lie beyond the requested percentile."""


def percentile(values, q: float, *, min_beyond: int = 10) -> float:
    """Nearest-rank ``q``-th percentile, refusing an under-sampled tail.

    The rank is ``ceil(q/100 * n)``; at least ``min_beyond`` samples must
    rank above it, otherwise the percentile is noise and
    :class:`InsufficientSamples` is raised.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100 * n))
    beyond = n - rank
    if beyond < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; need {min_beyond}"
        )
    return ordered[rank - 1]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# (name, unit, better, bound, meaning) — reported by every workload; a
# change may worsen a median by at most ``bound`` (a share of the old one).
# "Operation" is a plan request (serve-mix) or one cold figure suite
# (figure-suite).  Latency is gated as a mean: serve-mix's median request
# is a ~30 ms partition-cache follower whose latency is mostly wake-up
# delay under contention and swings with the host's load from run to run.
END_TO_END = (
    ("latency_mean_s", "s", "lower", 0.25,
     "mean host seconds per operation"),
    ("throughput_per_s", "1/s", "higher", 0.25,
     "plans (serve-mix) or unique cells (figure-suite) per host second"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "larger of the workload process's peak RSS and its largest child's"),
    ("setup_s", "s", "lower", 0.25,
     "process start until the first timed operation (median of 3 fresh "
     "interpreters)"),
)

# The workload-specific end-to-end metrics named by the benchmark's design;
# printed by name and unit on every untraced run.  They map onto the gated
# names above as noted.
REPORTED = {
    "serve-mix": (
        ("plan_latency_mean_s", "s", "= latency_mean_s"),
        ("plan_latency_p50_s", "s", "serving overhead"),
        ("plan_latency_p90_s", "s", "tail: partition search"),
        ("plans_per_s", "1/s", "= throughput_per_s"),
        ("modeled_step_s", "s", "modeled, not host time"),
    ),
    "figure-suite": (
        ("suite_wall_s", "s", "= latency_mean_s"),
        ("cells_per_s", "1/s", "= throughput_per_s"),
    ),
}

# (name, unit, better, owning module, end-to-end metric it should move).
# "better" is the direction that means less work or more reuse.
PER_LAYER = (
    # repro.serve — parent-side spans; worker internals come from reports.
    ("serve.submit_s", "s", "lower", "serve", "plan_latency_p50_s"),
    ("serve.queue_wait_s", "s", "lower", "serve", "plan_latency_p90_s"),
    ("serve.worker_solve_s", "s", "lower", "serve", "plans_per_s"),
    ("serve.worker_solves", "count", "lower", "serve", "plans_per_s"),
    ("serve.store.get_s", "s", "lower", "serve", "plan_latency_p50_s"),
    ("serve.store.put_s", "s", "lower", "serve", "plan_latency_p50_s"),
    ("serve.store.ops", "count", "lower", "serve", "plan_latency_p50_s"),
    ("serve.answers.cache", "count", "higher", "serve", "plans_per_s, error_rate"),
    ("serve.answers.solver", "count", "lower", "serve", "plans_per_s, error_rate"),
    ("serve.answers.degraded", "count", "lower", "serve", "plans_per_s, error_rate"),
    ("serve.coalesced_joins", "count", "higher", "serve", "plans_per_s, error_rate"),
    ("serve.rejections", "count", "lower", "serve", "plans_per_s, error_rate"),
    # repro.perf.cache
    ("cache.plan.hit_ratio", "ratio", "higher", "perf.cache", "plans_per_s, suite_wall_s"),
    ("cache.plan.lookups", "count", "lower", "perf.cache", "plans_per_s, suite_wall_s"),
    ("cache.partition.hit_ratio", "ratio", "higher", "perf.cache", "plans_per_s, suite_wall_s"),
    ("cache.partition.lookups", "count", "lower", "perf.cache", "plans_per_s, suite_wall_s"),
    ("cache.system.hit_ratio", "ratio", "higher", "perf.cache", "plans_per_s, suite_wall_s"),
    ("cache.system.lookups", "count", "lower", "perf.cache", "plans_per_s, suite_wall_s"),
    ("cache.lookup_s", "s", "lower", "perf.cache", "plan_latency_p50_s"),
    # repro.core.partition — unique by partition_solve_key
    ("partition.solves", "count", "lower", "core.partition", "plan_latency_p90_s, suite_wall_s"),
    ("partition.nodes", "count", "lower", "core.partition", "plan_latency_p90_s, suite_wall_s"),
    ("partition.optimal_ratio", "ratio", "higher", "core.partition", "modeled_step_s"),
    ("partition.warm_started_ratio", "ratio", "higher", "core.partition", "plan_latency_p90_s, suite_wall_s"),
    ("partition.busy_s", "s", "lower", "core.partition", "plan_latency_p90_s, suite_wall_s"),
    ("partition.us_per_node", "us", "lower", "core.partition", "plan_latency_p90_s, suite_wall_s"),
    # repro.core.mapping
    ("mapping.busy_s", "s", "lower", "core.mapping", "plan_latency_p90_s (Topo 4+4)"),
    ("mapping.calls", "count", "lower", "core.mapping", "plan_latency_p90_s (Topo 4+4)"),
    # repro.models.profiler
    ("profiler.busy_s", "s", "lower", "models.profiler", "none (shown to be negligible)"),
    # repro.core.pipeline
    ("pipeline.build_s", "s", "lower", "core.pipeline", "suite_wall_s"),
    ("pipeline.tasks", "count", "lower", "core.pipeline", "suite_wall_s"),
    # repro.sim (figure-suite's many small simulations)
    ("sim.execute_s", "s", "lower", "sim", "suite_wall_s"),
    ("sim.events", "count", "lower", "sim", "suite_wall_s"),
    ("sim.reallocations", "count", "lower", "sim", "suite_wall_s"),
    ("sim.flows_touched_per_reallocation", "ratio", "lower", "sim", "suite_wall_s"),
    ("sim.us_per_event", "us", "lower", "sim", "suite_wall_s"),
    ("trace.digest_s", "s", "lower", "sim.trace", "suite_wall_s, peak_rss_mb"),
    ("trace.rows", "count", "lower", "sim.trace", "suite_wall_s, peak_rss_mb"),
    # repro.analysis / repro.baselines / repro.training
    ("analysis.busy_s", "s", "lower", "analysis", "suite_wall_s"),
    ("baselines.self_s", "s", "lower", "baselines", "suite_wall_s"),
    ("training.busy_s", "s", "lower", "training", "suite_wall_s"),
    # repro.experiments.schedule
    ("schedule.drain_s", "s", "lower", "experiments.schedule", "suite_wall_s"),
    ("schedule.assembly_s", "s", "lower", "experiments.schedule", "suite_wall_s"),
    ("schedule.cells_unique", "count", "lower", "experiments.schedule", "suite_wall_s"),
    ("schedule.cells_computed", "count", "lower", "experiments.schedule", "suite_wall_s"),
    ("schedule.duplicate_solves", "count", "lower", "experiments.schedule", "suite_wall_s"),
    ("schedule.cells_shared", "count", "higher", "experiments.schedule", "suite_wall_s"),
    ("schedule.cells_coalesced", "count", "higher", "experiments.schedule", "suite_wall_s"),
    ("schedule.critical_path_s", "s", "lower", "experiments.schedule", "suite_wall_s"),
    ("schedule.parallel_efficiency", "ratio", "higher", "experiments.schedule", "suite_wall_s"),
    # the tracing itself
    ("tracing.overhead_s", "s", "lower", "perfbench", "none (traced wall - untraced wall)"),
    ("tracing.uncovered_share", "ratio", "lower", "perfbench", "none (wall share no span covers)"),
)
