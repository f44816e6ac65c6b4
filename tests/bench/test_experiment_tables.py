"""Pin the table every registered experiment renders, without simulating.

``run_cells`` is replaced by a stub that returns one deterministic
synthetic :class:`CellResult` per cell, with every field any plan's
``assemble`` reads filled from the cell's index.  Each experiment's
rendered table — headers, rows, notes — must then hash to a pinned
digest, so a change to any fold, header or note shows up here in well
under a second, and the 28 names (aliases included) stay covered.
"""

import hashlib

import pytest

from repro.bench import CELL_PLANS, render_experiment, run_plan
from repro.bench import experiments
from repro.runner import CellResult

#: sha256 of ``render_experiment(name, *table)`` under the stub.
TABLE_DIGESTS = {
    "ablation-fmin": "0d26ae4e4cf89e90446b50eddce5c564a1ac1207df795555384e3fba45cf714e",
    "ablation-granularity": "3945b5854a3c3574ab3585bd85b48d48b385d7f40621c37cddb478918ca9a630",
    "ablation-overheads": "a965bc435e86805779b91e7ecf522af4098b70118d16e601335e092eb167ad76",
    "ablation-scaling": "16a0c804a46e3144b7c3e22e2d4c033b0d4412c63da6d464b3815dc7c8503e6e",
    "alltoallv": "58a344daa988eef980b26b72f6c356235f17c49feb8be7816772d4515e7e300e",
    "ext-adaptive": "24690d1edd72ed7b744239cf4f798ef8f1255d85f248756c6a2233d282322082",
    "ext-arbiter": "37b63fb328af37a2b1453be2a43a0ac4817d45af3640bfe9e7c845aa12669555",
    "ext-faults": "9ad4415838ff8264385ca08df92d14c0dcc5a7e2621a116ce4934ba5ea8341c7",
    "ext-governor": "55cc08bade42eb4080191eecae152da8eaa3dcdeff2d2e340b1ae092e4b8246b",
    "ext-governor-alltoall": "279e9d0d451a63a6c72a09c3ede3f5191bb5f3f07813a5e7bd0ad2fc1d8a8b90",
    "ext-governor-apps": "7eb7090ffa1820eb48841c329a69ac306f81d721ddd26e30c7ca1ab2b5e15bf6",
    "ext-governor-mixed": "c6fdd9840f86c7d4838a6501b6bf297b6ab9299672c11f4751514c39e335243b",
    "ext-rack-topology": "f79c42f5e1d83d3a09dbd135e32c5e6e23203aac41c7653405d449e116b8953f",
    "ext-racks": "a8e520625dd8f81073479fe781109f2feae6a8eb11f69c217e8237b8f044fd23",
    "fig10": "a02cf50336f8e287c98b06269d24e28624fc65763d62ddbe7e359242d63e122c",
    "fig2a": "a1a0350cdf03dfc1e9b5b4099800192682c55e5130ea4dc11b8d24be6b2b0793",
    "fig2b": "baa176c586d8b7df02be5ec9d185e6b7183a5fb3e74f0f72c498a2f59b3fffdb",
    "fig2c": "8f12ba17f0327ce0f44afee94a27f9b682af621805353abe5abbb5ee4e8657c6",
    "fig6a": "d24fe133e677354540624aaaf1039161ead6529e0f25029e3b9d6b7bbf04286d",
    "fig6b": "22ecc9cbe978bff802e3b0899c2265e092742908b9d80a0546ba049cf6a17735",
    "fig7a": "c72db0e6c33bc3290f12a2815cfa092440673f53c708375f9dd16cef28ee57ec",
    "fig7b": "4a2caf83bb92f88ed5731cf2942a4018202fcd065dfc2ab82552e24c8d20e39d",
    "fig8a": "d57ce007d68c393887a92195b9c79a0d1787513a83a32f6a20d208e60140f83f",
    "fig8b": "cf1df9a2b3766e06e7c3d9ab410fb5ade478907a57c63190a4d94988e54a26fc",
    "fig9": "c9e51f0f481f6a3d4de6dab6ec7d944acbb09f68a1851a8c1fc7247aad2e087b",
    "models": "4c6e819d5ac3fb7d726388829109cdc954ece1b7ddb3ea428b78688be7036ebb",
    "table1": "21ca9bcada7bd21cae07a580a3bd65e53fc8880efe82a248d910a330194df023",
    "table2": "bb0b4187184d7bcf299671b6d4e029fd48284753105944b5cb3d5636df47faa5",
}


def _fake_result(i: int, cell) -> CellResult:
    """Deterministic stand-in for executing ``cell``, the ``i``-th cell."""
    params = cell.params
    x = i + 1
    r = CellResult(
        duration_s=1.25e-3 * x,
        energy_j=10.0 * x + 0.5,
        average_power_w=1000.0 + 7.0 * x,
        phase_times={"bcast.network": 4e-4 * x, "reduce.network": 3e-4 * x},
        dvfs_transitions=2 * x,
        throttle_transitions=3 * x,
    )
    if "governor" in params:
        r.governor = {"drops": 5 * x, "prescales": x}
    if "arbiter" in params:
        r.arbiter = {"donated_j": 0.25 * x}
    if cell.kind == "app":
        r.app = {
            "name": params["app"],
            "total_time_s": 2.0 + x,
            "alltoall_time_s": 0.5 + 0.1 * x,
            "alltoall_fraction": (0.5 + 0.1 * x) / (2.0 + x),
            "energy_kj": 50.0 + x,
        }
    if "power_trace_interval_s" in params:
        r.extra["power_trace"] = {
            "times_s": [0.0, 0.25, 0.5],
            "power_kw": [2.0 + 0.01 * x, 1.9 + 0.01 * x, 1.8 + 0.01 * x],
            "mean_power_w": 1900.0 + x,
        }
    if "link_flow_prefix" in params:
        r.extra["link_flows"] = 4 * x
    if cell.kind == "multijob":
        r.extra["jobs"] = [
            {"duration_s": 1e-3 * x * (j + 1), "energy_j": 5.0 * x * (j + 1)}
            for j in range(len(params["jobs"]))
        ]
    return r


def _fake_run_cells(cells, **_runner):
    return [_fake_result(i, cell) for i, cell in enumerate(cells)]


@pytest.mark.parametrize("name", sorted(CELL_PLANS))
def test_experiment_table_is_pinned(name, monkeypatch):
    monkeypatch.setattr(experiments, "run_cells", _fake_run_cells)
    table, _reports = run_plan(CELL_PLANS[name]())
    text = render_experiment(name, *table)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TABLE_DIGESTS[name]


def test_every_registered_experiment_is_pinned():
    assert sorted(TABLE_DIGESTS) == sorted(CELL_PLANS)
