"""Benchmark for rectbound: three fixed job lists timed end to end and per layer.

Run one workload with `python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1` from the repository root; see perfbench/README.md.
"""
