"""Benchmark of the entmon pipeline: end-to-end metrics and per-module traces.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
