"""Reference implementations the production paths are checked against.

Each module here is the straightforward object-per-item version of a hot
path that ``src/`` ships only in its optimized form:

* :mod:`tests.oracles.scalar_fabric` — the scalar fabric kernel
  (per-flow objects, a completion heap, one water-filling pass per fabric
  event), with an optional whole-fabric re-rate mode;
* :mod:`tests.oracles.energy` — the per-segment object energy accountant
  (uncached power evaluation) and the per-segment, per-bucket loop meter.

The differential tests require the production paths to match these
exactly, and ``benchmarks/bench_kernel_scaling.py`` and
``benchmarks/bench_power_path.py`` measure their speedups against them.
Import them from the repository root (``python -m pytest`` puts it on
``sys.path``; standalone benchmark runs need ``PYTHONPATH=src:.``).
"""
