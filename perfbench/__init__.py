"""Benchmark of the repro package: see perfbench/README.md."""
