"""The repo benchmark: workloads, tracing and load generation (see README.md)."""
