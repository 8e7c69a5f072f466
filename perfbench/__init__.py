"""Repository benchmark: seeded workloads, end-to-end metrics, traced layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
layer → end-to-end interaction map.
"""
