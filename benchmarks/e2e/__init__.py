"""The end-to-end benchmark: four workloads, one runner, a layer trace.

See ``benchmarks/e2e/README.md`` for the metrics, the workloads and how
to run and compare; ``BENCHMARK.json`` at the repository root fixes the
metric names, units, directions and regression bounds.
"""
