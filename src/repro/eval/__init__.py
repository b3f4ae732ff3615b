"""Experiment harness: runs methods over benchmarks and renders tables."""
