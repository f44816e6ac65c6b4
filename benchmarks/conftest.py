"""Shared machinery for the reproduction benchmarks.

Every benchmark runs one cell plan from :mod:`repro.bench.experiments`
through :func:`repro.bench.run_plan` exactly once under pytest-benchmark
(the interesting metric is the *simulated* result, not the wall time of
the simulation), prints the paper-style table to the terminal, and
archives it under ``results/``.  ``REPRO_JOBS`` shards the cells across
the warm-worker pool.
"""

import os

import pytest

from repro.bench import (
    check_against_baseline,
    render_experiment,
    run_plan,
    save_json,
    save_report,
)
from repro.bench.plot import chart_from_rows
from repro.runner import SweepStats

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")
EXPECTED_DIR = os.path.join(os.path.dirname(__file__), "expected")


@pytest.fixture
def sweep_stats(request, capsys):
    """Sweep accounting for one benchmark (pass it as ``stats=``), printed
    next to the benchmark numbers."""
    stats = SweepStats(experiment=request.node.name)
    yield stats
    with capsys.disabled():
        print(f"\n  {stats.one_line()}")


@pytest.fixture
def report(benchmark, capsys):
    """Run a plan once, print + archive its table, return the rows.

    ``chart`` (optional) holds kwargs for
    :func:`repro.bench.plot.chart_from_rows`; the rendered ASCII figure is
    appended to the archived report.  Other keyword arguments (e.g.
    ``stats``) go to :func:`repro.bench.run_plan`.
    """

    def _run(name: str, title: str, plan, chart=None, **runner):
        (headers, rows, notes), _reports = benchmark.pedantic(
            run_plan, args=(plan,), kwargs=runner, rounds=1, iterations=1
        )
        text = render_experiment(title, headers, rows, notes)
        if chart is not None:
            text += "\n" + chart_from_rows(rows, **chart) + "\n"
        save_report(name, text, results_dir=os.path.abspath(RESULTS_DIR))
        save_json(name, headers, rows, notes, results_dir=os.path.abspath(RESULTS_DIR))
        # Guard the reproduction: deterministic results must match the
        # committed baseline (see repro.bench.regression).
        check_against_baseline(name, headers, rows, os.path.abspath(EXPECTED_DIR))
        with capsys.disabled():
            print("\n" + text, flush=True)
        return headers, rows

    return _run
