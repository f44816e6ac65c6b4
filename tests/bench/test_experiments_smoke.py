"""Fast smoke tests of the experiment plans with reduced parameters,
so `pytest tests/` exercises the bench code paths without the full sweeps."""

import pytest

from repro.bench import run_plan
from repro.bench.experiments import (
    plan_ablation_granularity,
    plan_ablation_overheads,
    plan_alltoallv,
    plan_fig2a,
    plan_fig2b,
    plan_fig2c,
    plan_fig6a,
    plan_fig7a,
    plan_fig8a,
    plan_models_validation,
)
from repro.runner import SweepCell, execute_cell

SMALL = (64 << 10,)


def _check(headers, rows, notes):
    assert headers
    assert rows
    for row in rows:
        assert len(row) == len(headers)
    assert isinstance(notes, str)


def _table(plan):
    table, _reports = run_plan(plan)
    return table


def test_fig2a_smoke():
    _check(*_table(plan_fig2a(sizes=SMALL)))


def test_fig2b_smoke():
    _check(*_table(plan_fig2b(sizes=SMALL)))


def test_fig2c_smoke():
    _check(*_table(plan_fig2c(sizes=(1024,))))


def test_fig6a_smoke():
    _check(*_table(plan_fig6a(sizes=SMALL)))


def test_fig7a_smoke():
    headers, rows, notes = _table(plan_fig7a(sizes=SMALL))
    _check(headers, rows, notes)
    # Scheme ordering holds even at one point.
    assert rows[0][1] < rows[0][2] < rows[0][3]


def test_fig8a_smoke():
    _check(*_table(plan_fig8a(sizes=SMALL)))


def test_alltoallv_smoke():
    _check(*_table(plan_alltoallv(sizes=SMALL)))


def test_models_validation_smoke():
    _check(*_table(plan_models_validation(nbytes=64 << 10)))


def test_granularity_smoke():
    _check(*_table(plan_ablation_granularity(nbytes=64 << 10)))


def test_overheads_smoke():
    _check(*_table(plan_ablation_overheads(nbytes=64 << 10, overheads_us=(0.0, 12.0))))


def test_run_collective_loop_iterations():
    # A collective cell runs ``iterations`` back-to-back collectives (the
    # OSU loop of §VII-B), so three iterations take three times as long.
    one, three = (
        execute_cell(SweepCell("smoke", "collective", {
            "op": "bcast", "nbytes": 64 << 10, "n_ranks": 16,
            "iterations": iterations,
        }))
        for iterations in (1, 3)
    )
    assert three.duration_s == pytest.approx(3 * one.duration_s, rel=0.05)
