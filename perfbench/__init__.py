"""End-to-end and per-layer benchmark of the serve and stream runtimes.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see
``perfbench/README.md`` for the workloads, the metrics and what each
per-layer metric is expected to move.
"""
