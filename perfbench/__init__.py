"""The repository benchmark: four workloads over the public API (see README.md)."""
