"""Layered benchmark of the correlated-Rayleigh envelope engine.

Run it from the root of a source checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and what each
per-layer metric is expected to move.
"""
