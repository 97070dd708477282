"""Benchmark of the poclkit planner: workloads, layer tracing and plan checks."""
