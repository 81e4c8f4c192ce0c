"""Benchmark suite: paper figures (pytest-benchmark) + the regression gate.

``python -m benchmarks.gate`` runs the hot-kernel micro-benchmarks, the
end-to-end joins, the serve workload and the out-of-core store contrast
behind the committed ``BENCH_*.json`` files, and ``--check`` gates a run
against one of them; :mod:`benchmarks.gate` holds the shared kernel
registry.
"""
