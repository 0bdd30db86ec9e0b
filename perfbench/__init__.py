"""Benchmark of the fvvem solver: fixed workloads, time-to-solution metrics
and an outside-in per-layer trace.  Run it with ``python3 perfbench/run.py``.
"""
