"""The repository benchmark: one command, two workloads, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload {serve-mix,figure-suite,all}
                             --seed N --seconds S --trace {0,1}

``--trace 0`` measures untraced and reports every end-to-end metric;
``--trace 1`` repeats a fixed amount of the workload untraced and traced
and reports every per-layer metric, the tracing overhead and the share of
wall time no span covers.  Every pass runs in a fresh interpreter with
fresh cache and store directories under ``.perfbench/`` and no
``MOBIUS_*``/``REPRO_*`` variables, so process-global registries start
empty.  Human-readable lines come first; the last line of standard output
is one JSON object.  Exit status: 0 when every check passed, 1 when a check
failed (the result is still printed), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import inputs  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, REPORTED  # noqa: E402

WORKLOADS = ("serve-mix", "figure-suite")
#: Fresh interpreters whose set-up time is sampled per untraced run.
SETUP_SAMPLES = 3
#: serve-mix blocks (of 22 requests) served by each pass of a traced run.
TRACE_BLOCKS = 4
#: serve-mix blocks generated for an untraced run: more than any run serves.
MEASURE_BLOCKS = 64
#: Liveness bound for a whole run's passes; a run must end inside 180 s.
RUN_BUDGET_S = 170
SCRATCH = ROOT / ".perfbench"


class PassFailed(RuntimeError):
    """A pass crashed or timed out: there is no result to report."""


def machine_block() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    """HEAD's commit read from ``.git`` files; "unknown" outside a checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(tmp: Path) -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith(("MOBIUS_", "REPRO_", "PYTHON"))
    }
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    env["TMPDIR"] = str(tmp)
    return env


def run_child(job: dict, run_dir: Path, label: str, deadline: float) -> dict:
    """Run one pass in a fresh interpreter with its own scratch directory."""
    tmp = run_dir / label
    tmp.mkdir(parents=True)
    job = {**job, "tmp": str(tmp), "result": str(tmp / "result.json")}
    job_path = tmp / "job.json"
    job["t0"] = time.monotonic()
    job_path.write_text(json.dumps(job))
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", str(job_path)],
        cwd=tmp, env=child_env(tmp), stdout=sys.stderr, stderr=sys.stderr,
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise PassFailed(f"{label}: no result within the {RUN_BUDGET_S} s run budget") from None
    except BaseException:
        process.kill()  # interrupted: leave no pass running behind us
        process.wait()
        raise
    try:
        result = json.loads((tmp / "result.json").read_text())
    except (OSError, ValueError):
        raise PassFailed(f"{label}: exited {code} without a result") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if code != 0 or "error" in result:
        raise PassFailed(f"{label}: {result.get('error', f'exit status {code}')}")
    return result


def workload_inputs(workload: str, seed: int, trace: bool):
    if workload == "serve-mix":
        return inputs.serve_inputs(seed, blocks=TRACE_BLOCKS if trace else MEASURE_BLOCKS)
    return inputs.suite_inputs(seed)


def untraced(base: dict, run_dir: Path, deadline: float) -> tuple[dict, dict]:
    """Measured passes plus extra set-up samples; returns (metrics, result).

    serve-mix loops inside one pass.  A cold suite needs a fresh
    interpreter, so figure-suite starts another measured pass while that
    brings its suites' total wall closer to ``seconds`` (the typical suite
    ending past it by less than it would stop short).
    """
    passes = [run_child({**base, "mode": "measure"}, run_dir, "measure0", deadline)]
    spent = passes[0]["wall_s"]
    while (base["workload"] == "figure-suite"
           and spent + median(p["wall_s"] for p in passes) / 2 < base["seconds"]):
        passes.append(run_child({**base, "mode": "measure"}, run_dir, f"measure{len(passes)}",
                                deadline))
        spent += passes[-1]["wall_s"]
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        label = f"setup{len(setups)}"
        setups.append(run_child({**base, "mode": "setup"}, run_dir, label, deadline)["setup_s"])
    result = passes[0]
    for extra in passes[1:]:
        for key in ("attempted", "failed", "samples", "ops"):
            result[key] += extra[key]
        result["failures"] += extra["failures"]
        result["checks"] += extra["checks"]
    values = {
        "latency_mean_s": fmean(p["latency_s"] for p in passes),
        "throughput_per_s": median(p["throughput_per_s"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "setup_s": median(setups),
    }
    result["setup_samples"] = setups
    if len(passes) > 1:  # figure-suite: report the suites together
        result["reported"] = {"suite_wall_s": values["latency_mean_s"],
                              "cells_per_s": values["throughput_per_s"]}
        result["suite_walls_s"] = [p["wall_s"] for p in passes]
    return values, result


def traced(base: dict, run_dir: Path, deadline: float) -> tuple[dict, dict]:
    """Fixed work untraced, then traced; returns (layer metrics, traced result)."""
    extra = {}
    if base["workload"] == "figure-suite":
        # The traced suite drains in-process with jobs=1 like the measured
        # one (spawned pool workers could not see the wrappers); an
        # untraced jobs=nproc suite gives the drain wall that parallel
        # efficiency divides by.
        nproc = base["nproc"]
        pool = run_child({**base, "mode": "reference", "jobs": nproc}, run_dir,
                         "reference-pool", deadline)
        reference = run_child({**base, "mode": "reference"}, run_dir, "reference", deadline)
        result = run_child({**base, "mode": "traced"}, run_dir, "traced", deadline)
        extra["schedule.parallel_efficiency"] = result["cell_busy_s"] / (pool["drain_s"] * nproc)
        result["reference_pool_wall_s"] = pool["wall_s"]
    else:
        reference = run_child({**base, "mode": "reference"}, run_dir, "reference", deadline)
        result = run_child({**base, "mode": "traced"}, run_dir, "traced", deadline)
    values = dict(result.pop("layers"))
    values.update(extra)
    values["tracing.overhead_s"] = result["wall_s"] - reference["wall_s"]
    result["reference_wall_s"] = reference["wall_s"]
    return values, result


def emit(workload: str, args, machine: dict, trace: bool, values: dict, result: dict,
         inputs_digest: str) -> dict:
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds} trace={int(trace)}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"inputs sha256={inputs_digest}")
    catalog = PER_LAYER if trace else END_TO_END
    if trace:
        print(f"traced pass: {result['wall_s']:.3f} s wall; untraced reference "
              f"{result['reference_wall_s']:.3f} s (same work)")
        if workload == "figure-suite":
            print("note: the suite drains in-process with jobs=1; critical path and "
                  "parallel efficiency combine it with an untraced jobs=nproc drain")
        if workload == "serve-mix":
            print("note: serve spans are parent-side; partition/mapping work comes from "
                  "the plan reports workers return")
        idle = [name for name, *_ in catalog if not values[name]]
        for name, unit, _, module, moves in catalog:
            if values[name]:
                print(f"layer {module:22s} {name:36s} {values[name]:.6g} {unit}  -> {moves}")
        print(f"layer metrics at 0 (layer not exercised by this workload): {', '.join(idle)}")
    else:
        for name, unit, note in REPORTED[workload]:
            value = result["reported"].get(name)
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"metric {name} {shown} {unit} ({note}; n={result['samples']})")
        for name, unit, _, _, meaning in END_TO_END:
            print(f"metric {name} {values[name]:.6g} {unit} [{meaning}]")
        print(f"setup samples (s): {result['setup_samples']}")
        if "suite_walls_s" in result:
            print(f"suite walls (s): {result['suite_walls_s']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"metric error_rate {failed / attempted:.6g} ratio ({failed} failed / {attempted} attempted)")
    print("checks: " + "; ".join(result["checks"]))
    for failure in result["failures"]:
        print(f"check failed: {failure}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry[0]: {"value": _finite(values[entry[0]]), "unit": entry[1]} for entry in catalog
        },
    }


def _finite(value):
    return value if math.isfinite(value) else None


def run_workload(workload: str, args) -> int:
    """Run, report and record one workload; returns the exit status."""
    trace = bool(args.trace)
    machine = machine_block()
    nproc = len(machine["affinity"])
    spec = workload_inputs(workload, args.seed, trace)
    inputs_digest = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()
    base = {"workload": workload, "inputs": spec, "seconds": args.seconds, "nproc": nproc}
    run_dir = SCRATCH / f"run-{os.getpid()}"
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        values, result = (traced if trace else untraced)(base, run_dir, deadline)
    except PassFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    machine["loadavg_end"] = list(os.getloadavg())
    document = emit(workload, args, machine, trace, values, result, inputs_digest)
    results = SCRATCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-trace{int(trace)}.json").write_text(json.dumps(
        {"machine": machine, "seed": args.seed, "result": result, "document": document},
        default=str,
    ))
    print(json.dumps(document), flush=True)
    return 0 if document["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or both in turn (one report each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds through the ``finally`` blocks that stop its
    # passes and remove its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure (missing {ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(workload, args) for workload in chosen)


if __name__ == "__main__":
    sys.exit(main())
