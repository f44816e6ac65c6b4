"""Cell specs: validation, normalisation, purity, round-trips."""

import pickle

import pytest

from repro.runner import CellResult, SweepCell, execute_cell


def _tiny_cell(**overrides):
    params = {
        "op": "alltoall",
        "nbytes": 16 << 10,
        "n_ranks": 16,
        "mode": "none",
        "iterations": 1,
        "progress": "polling",
        "keep_segments": False,
    }
    params.update(overrides)
    return SweepCell("test", "collective", params, label="tiny")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown cell kind"):
        SweepCell("test", "quantum", {})


def test_non_plain_params_rejected():
    with pytest.raises(TypeError, match="plain data"):
        SweepCell("test", "collective", {"op": object()})


def test_params_normalised_tuples_become_lists():
    a = SweepCell("test", "mixed", {"sizes": (1, 2, 3), "n_ranks": 8})
    b = SweepCell("test", "mixed", {"sizes": [1, 2, 3], "n_ranks": 8})
    assert a.params == b.params
    assert a.spec() == b.spec()


def test_spec_excludes_provenance():
    """experiment/label are display-only; two experiments sharing a cell
    must produce the same spec (and therefore the same cache key)."""
    a = _tiny_cell()
    b = SweepCell("other-experiment", "collective", a.params, label="renamed")
    assert a.spec() == b.spec()
    assert "experiment" not in a.spec()
    assert "label" not in a.spec()


def test_cell_pickles():
    cell = _tiny_cell()
    clone = pickle.loads(pickle.dumps(cell))
    assert clone == cell


def test_cell_result_round_trip():
    result = CellResult(
        duration_s=1.5,
        energy_j=2.5,
        average_power_w=3.5,
        phase_times={"comm": 1.0},
        dvfs_transitions=4,
        throttle_transitions=5,
        governor={"drops": 1},
        faults={"injected": 2},
        app={"name": "ft.B.64"},
        extra={"metric": 9.0},
        wall_time_s=0.25,
    )
    clone = CellResult.from_dict(result.to_dict())
    assert clone == result


def test_cell_result_from_dict_ignores_unknown_keys():
    data = CellResult(duration_s=1.0).to_dict()
    data["future_field"] = "whatever"
    assert CellResult.from_dict(data).duration_s == 1.0


def test_execute_cell_is_deterministic():
    """Same spec, fresh substrate each time => identical simulated output
    (wall_time_s is host noise and explicitly excluded)."""
    first = execute_cell(_tiny_cell()).to_dict()
    second = execute_cell(_tiny_cell()).to_dict()
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second
    assert first["duration_s"] > 0
    assert first["energy_j"] > 0


def test_contradicting_substrate_params_fail_with_the_session_message():
    """A racked cluster under a flat oversubscribed switch is refused by
    the cell's session, naming the conflict."""
    from repro.cluster import ClusterSpec
    from repro.network import NetworkSpec
    from repro.sim import SessionConfigError, check_session_specs

    cluster = ClusterSpec(nodes=8, racks=2)
    network = NetworkSpec(switch_oversubscription=4.0)
    cell = _tiny_cell(cluster=cluster.to_dict(), network=network.to_dict())
    (problem,) = check_session_specs(cluster, network)
    with pytest.raises(SessionConfigError) as excinfo:
        execute_cell(cell)
    assert str(excinfo.value) == "inconsistent session specs:\n  - " + problem


def _app_cell(**overrides):
    params = {"app": "nas-is", "ranks": 32, "mode": "none"}
    params.update(overrides)
    return SweepCell("test", "app", params)


def test_app_cell_runs_on_the_machine_its_params_describe():
    """An app cell's network and cluster params reach its session: a
    slow NIC slows the app down, and a cluster too small for the ranks
    is refused before anything is simulated."""
    from repro.cluster import ClusterSpec
    from repro.network import NetworkSpec

    plain = execute_cell(_app_cell())
    slow = execute_cell(_app_cell(network=NetworkSpec(nic_bw=1e8).to_dict()))
    assert slow.duration_s > plain.duration_s
    with pytest.raises(ValueError, match="32 ranks starting at node 0 exceed 16 cores"):
        execute_cell(_app_cell(cluster=ClusterSpec(nodes=2).to_dict()))


def test_app_cell_samples_its_kept_timeline():
    result = execute_cell(_app_cell(keep_segments=True,
                                    power_trace_interval_s=0.5))
    trace = result.extra["power_trace"]
    assert len(trace["times_s"]) == len(trace["power_kw"]) > 1
    assert trace["mean_power_w"] > 0


def test_bad_app_meter_request_fails_before_the_run(monkeypatch):
    import repro.apps

    def never(*args, **kwargs):
        raise AssertionError("run_app entered")

    monkeypatch.setattr(repro.apps, "run_app", never)
    with pytest.raises(ValueError, match="power_trace_interval_s.*keep_segments"):
        execute_cell(_app_cell(power_trace_interval_s=0.5))


def test_execute_cell_with_faults_is_deterministic():
    """The fault plan's seed lives inside the spec, so perturbed cells
    are exactly as reproducible as quiet ones."""
    from repro.faults import parse_fault_spec

    faults = parse_fault_spec("noise:period=500us,pulse=20us,frac=0.25", seed=11)
    cell_kwargs = {"faults": faults.to_dict(), "compute_s": 100e-6}
    first = execute_cell(_tiny_cell(**cell_kwargs)).to_dict()
    second = execute_cell(_tiny_cell(**cell_kwargs)).to_dict()
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second
    assert first["faults"] is not None


def _multijob_cell(policy=None):
    from repro.cluster.specs import ClusterSpec

    params = {
        "jobs": [
            {"n_ranks": 16, "node_offset": 0, "op": "alltoall",
             "nbytes": 64 << 10, "iterations": 2},
            {"n_ranks": 16, "node_offset": 2, "op": "allreduce",
             "nbytes": 1 << 10, "iterations": 2, "compute_s": 5e-3},
        ],
        "cluster": ClusterSpec.with_shape(
            nodes=4, sockets=2, cores_per_socket=4
        ).to_dict(),
        "progress": "polling",
    }
    if policy is not None:
        params["arbiter"] = {"policy": policy, "power_cap_w": 4 * 250.0}
    return SweepCell("test", "multijob", params, label="two-jobs")


def test_execute_multijob_cell_attributes_energy_exactly():
    result = execute_cell(_multijob_cell(policy="redistribute"))
    jobs = result.extra["jobs"]
    assert len(jobs) == 2
    assert jobs[0]["node_offset"] == 0 and jobs[1]["node_offset"] == 2
    # Makespan is the slower job; per-job energy + residual = total.
    assert result.duration_s == max(j["duration_s"] for j in jobs)
    attributed = sum(j["energy_j"] for j in jobs)
    assert attributed + result.extra["residual_energy_j"] == result.energy_j
    assert result.arbiter is not None
    assert result.arbiter["policy"] == "redistribute"


def test_execute_multijob_cell_is_deterministic():
    first = execute_cell(_multijob_cell(policy="redistribute")).to_dict()
    second = execute_cell(_multijob_cell(policy="redistribute")).to_dict()
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


def test_multijob_cell_without_arbiter_runs_uncapped():
    result = execute_cell(_multijob_cell())
    assert result.arbiter is None
    assert result.duration_s > 0


@pytest.mark.parametrize("overrides, match", [
    ({"power_trace_interval_s": 1e-3}, "power_trace_interval_s.*keep_segments"),
    ({"power_trace_interval_s": float("nan"), "keep_segments": True},
     "power_trace_interval_s.*finite positive"),
    ({"power_trace_interval_s": float("inf"), "keep_segments": True},
     "power_trace_interval_s.*finite positive"),
    ({"power_trace_interval_s": 0.0, "keep_segments": True},
     "power_trace_interval_s.*finite positive"),
])
def test_bad_meter_request_fails_before_the_run(monkeypatch, overrides, match):
    """A meter the cell cannot sample is rejected before its session is
    built, not after the whole simulation has run."""
    from repro.mpi.job import MpiJob

    def never(self, program):
        raise AssertionError("MpiJob.run entered")

    monkeypatch.setattr(MpiJob, "run", never)
    with pytest.raises(ValueError, match=match):
        execute_cell(_tiny_cell(**overrides))


def test_meter_request_samples_the_kept_timeline():
    result = execute_cell(_tiny_cell(keep_segments=True,
                                     power_trace_interval_s=1e-4))
    trace = result.extra["power_trace"]
    assert len(trace["times_s"]) == len(trace["power_kw"]) > 1
    assert trace["mean_power_w"] > 0
