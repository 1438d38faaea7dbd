"""Benchmark of the alike CLI: workloads, output checker and layer tracing."""
