"""Benchmark for dirichlet-resonance; the entry point is ``perfbench/run.py``."""
