"""Benchmark of rewardsim: seeded workloads, checks and layer tracing."""
