"""Campaign specs: validation, loading, deterministic expansion."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignSpecError,
    expand,
    load_campaign,
    spec_digest,
)

GRID = {
    "name": "grid",
    "matrix": {"nbytes": [1024, 4096], "mode": ["none", "proposed"]},
    "params": {"op": "alltoall", "n_ranks": 16},
}


def _spec(**overrides):
    data = {"name": "t", "sweeps": [dict(GRID)]}
    data.update(overrides)
    return CampaignSpec.from_dict(data)


# -- validation -------------------------------------------------------
def test_unknown_spec_key_rejected():
    with pytest.raises(CampaignSpecError, match="unknown campaign keys"):
        CampaignSpec.from_dict({"name": "t", "bogus": 1})


def test_unknown_sweep_key_rejected():
    with pytest.raises(CampaignSpecError, match="unknown sweep keys"):
        CampaignSpec.from_dict(
            {"name": "t", "sweeps": [{"name": "g", "axes": {}}]}
        )


def test_empty_spec_rejected():
    with pytest.raises(CampaignSpecError, match="expands to nothing"):
        CampaignSpec.from_dict({"name": "t"})


def test_unknown_experiment_rejected():
    with pytest.raises(CampaignSpecError, match="unknown experiments"):
        CampaignSpec.from_dict({"name": "t", "experiments": ["fig99"]})


def test_artifacts_must_be_subset_of_experiments():
    with pytest.raises(CampaignSpecError, match="not in the campaign's"):
        CampaignSpec.from_dict(
            {"name": "t", "experiments": ["models"], "artifacts": ["fig2a"]}
        )


def test_artifacts_default_to_experiments():
    spec = CampaignSpec.from_dict({"name": "t", "experiments": ["models"]})
    assert spec.artifacts == ("models",)


def test_empty_axis_rejected():
    with pytest.raises(CampaignSpecError, match="non-empty list"):
        CampaignSpec.from_dict(
            {"name": "t", "sweeps": [{"name": "g", "matrix": {"op": []}}]}
        )


def test_duplicate_sweep_name_rejected():
    with pytest.raises(CampaignSpecError, match="duplicate sweep name"):
        CampaignSpec.from_dict(
            {"name": "t", "sweeps": [dict(GRID), dict(GRID)]}
        )


def test_bad_governor_policy_rejected():
    with pytest.raises(CampaignSpecError, match="bad governor policy"):
        _spec(governor="warp-speed")


def test_faults_mapping_typo_rejected():
    # A misspelled key would otherwise run every cell unperturbed.
    with pytest.raises(CampaignSpecError, match="unknown fault plan key 'injector'"):
        _spec(faults={"seed": 1, "injector": [{"kind": "degrade"}]})


def test_faults_mapping_unknown_injector_field_rejected():
    with pytest.raises(CampaignSpecError, match="unknown injector field 'factr'"):
        _spec(faults={"injectors": [{"kind": "degrade", "factr": 0.5}]})


def test_faults_mapping_stored_as_given():
    faults = {"seed": 3, "injectors": [{"kind": "degrade", "factor": 0.5}]}
    assert _spec(faults=faults).faults == faults


def test_grid_faults_mapping_typo_rejected():
    grid = dict(GRID, params=dict(GRID["params"], faults={"seeed": 2}))
    with pytest.raises(CampaignSpecError, match="unknown fault plan key 'seeed'"):
        expand(CampaignSpec.from_dict({"name": "t", "sweeps": [grid]}))


def test_governor_string_normalises_to_config_dict():
    spec = _spec(governor="predictive")
    assert isinstance(spec.governor, dict)
    assert spec.governor["policy"] == "predictive"


# -- loading ----------------------------------------------------------
def test_load_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"name": "t", "sweeps": [GRID]}))
    spec = load_campaign(path)
    assert spec.name == "t"
    assert spec.grids[0].name == "grid"


def test_load_yaml(tmp_path):
    pytest.importorskip("yaml")
    path = tmp_path / "c.yaml"
    path.write_text(
        "name: t\n"
        "sweeps:\n"
        "  - name: grid\n"
        "    matrix:\n"
        "      nbytes: [1024, 4096]\n"
        "      mode: [none, proposed]\n"
        "    params: {op: alltoall, n_ranks: 16}\n"
    )
    assert spec_digest(load_campaign(path)) == spec_digest(_spec())


def test_load_missing_file_is_spec_error(tmp_path):
    with pytest.raises(CampaignSpecError, match="cannot read"):
        load_campaign(tmp_path / "nope.json")


def test_load_bad_json_is_spec_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(CampaignSpecError, match="bad JSON"):
        load_campaign(path)


# -- expansion --------------------------------------------------------
def test_expansion_is_deterministic():
    plans = [expand(_spec()) for _ in range(3)]
    assert all(p.keys == plans[0].keys for p in plans)
    assert all(p.cells == plans[0].cells for p in plans)


def test_expansion_order_ignores_matrix_dict_order():
    """Axes iterate in sorted key order, not spec insertion order."""
    a = _spec()
    swapped = dict(GRID)
    swapped["matrix"] = {
        "mode": ["none", "proposed"], "nbytes": [1024, 4096]
    }
    b = CampaignSpec.from_dict({"name": "t", "sweeps": [swapped]})
    assert expand(a).keys == expand(b).keys


def test_grid_product_size_and_labels():
    plan = expand(_spec())
    assert len(plan) == 4
    assert plan.cells[0].label == "grid/mode=none/nbytes=1024"
    assert plan.cells[0].experiment == "t:grid"
    assert plan.cells[0].params["op"] == "alltoall"


def test_dict_axis_value_merges_params():
    grid = {
        "name": "g",
        "matrix": {"scale": [{"n_ranks": 16, "nbytes": 1024},
                             {"n_ranks": 32, "nbytes": 2048}]},
        "params": {"op": "alltoall", "mode": "none"},
    }
    plan = expand(CampaignSpec.from_dict({"name": "t", "sweeps": [grid]}))
    assert [c.params["n_ranks"] for c in plan.cells] == [16, 32]
    assert [c.params["nbytes"] for c in plan.cells] == [1024, 2048]
    assert all("scale" not in c.params for c in plan.cells)


def test_none_axis_value_deletes_key():
    grid = {
        "name": "g",
        "matrix": {"faults": [None, "degrade:frac=0.25,factor=0.5"]},
        "params": {"op": "alltoall", "mode": "none",
                   "n_ranks": 16, "nbytes": 1024},
    }
    plan = expand(CampaignSpec.from_dict({"name": "t", "sweeps": [grid]}))
    quiet, faulty = plan.cells
    assert "faults" not in quiet.params
    assert isinstance(faulty.params["faults"], dict)


def test_nodes_axis_becomes_cluster_override():
    grid = {
        "name": "g",
        "matrix": {"nodes": [4, 8]},
        "params": {"op": "alltoall", "mode": "none",
                   "nbytes": 1024, "ranks_per_node": 8},
    }
    plan = expand(CampaignSpec.from_dict({"name": "t", "sweeps": [grid]}))
    assert [c.params["cluster"]["nodes"] for c in plan.cells] == [4, 8]
    assert [c.params["n_ranks"] for c in plan.cells] == [32, 64]
    assert all("ranks_per_node" not in c.params for c in plan.cells)


def test_overlapping_experiments_deduplicate():
    """table1 and fig9 request the same CPMD runs — one execution each."""
    both = CampaignSpec.from_dict(
        {"name": "t", "experiments": ["fig9", "table1"]}
    )
    just_fig9 = CampaignSpec.from_dict({"name": "t", "experiments": ["fig9"]})
    plan = expand(both)
    assert plan.duplicates > 0
    assert len(plan) < len(expand(just_fig9)) * 2


def test_digest_stable_and_spec_sensitive():
    assert spec_digest(_spec()) == spec_digest(_spec())
    assert spec_digest(_spec()) != spec_digest(_spec(governor="predictive"))


def test_example_specs_load_and_expand():
    pytest.importorskip("yaml")
    from pathlib import Path

    examples = Path(__file__).parents[2] / "examples" / "campaigns"
    for name in ("smoke", "paper_quick", "paper_full"):
        plan = expand(load_campaign(examples / f"{name}.yaml"))
        assert len(plan) > 0
