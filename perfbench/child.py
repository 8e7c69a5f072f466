"""One workload pass in a fresh interpreter.

Usage (started by ``perfbench/run.py``)::

    python3 -m perfbench.child JOB.json

Reads the job, runs :func:`perfbench.workloads.run_pass` and writes the
result as JSON to ``job["result"]``.  Exits 1 (after writing the
traceback as the result's ``error``) if the pass raised.
"""

from __future__ import annotations

import json
import sys
import traceback


def main(job_path: str) -> int:
    with open(job_path) as handle:
        job = json.load(handle)
    try:
        from perfbench.workloads import run_pass

        result = run_pass(job)
        code = 0
    except Exception:
        result = {"error": traceback.format_exc()}
        code = 1
    with open(job["result"], "w") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
