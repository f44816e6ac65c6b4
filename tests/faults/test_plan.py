"""FaultPlan construction, validation, and the --faults spec grammar."""

import math

import pytest

from repro.faults import (
    FaultPlan,
    FaultSpecError,
    LinkDegrade,
    LinkFlap,
    OsNoise,
    Straggler,
    TransitionJitter,
    parse_fault_spec,
)


class TestInjectorValidation:
    def test_degrade_rejects_bad_factor(self):
        with pytest.raises(FaultSpecError):
            LinkDegrade(factor=0.0)
        with pytest.raises(FaultSpecError):
            LinkDegrade(factor=1.5)

    def test_degrade_rejects_negative_start(self):
        with pytest.raises(FaultSpecError):
            LinkDegrade(start_s=-1.0)

    def test_flap_requires_finite_window(self):
        with pytest.raises(FaultSpecError):
            LinkFlap(duration_s=math.inf)

    def test_straggler_rejects_speedup(self):
        with pytest.raises(FaultSpecError):
            Straggler(multiplier=0.9)

    def test_straggler_scope_names(self):
        with pytest.raises(FaultSpecError):
            Straggler(scope="rack")
        assert Straggler(scope="node").scope == "node"

    def test_noise_rejects_zero_period(self):
        with pytest.raises(FaultSpecError):
            OsNoise(period_s=0.0)

    def test_jitter_ordering(self):
        with pytest.raises(FaultSpecError):
            TransitionJitter(lo=2.0, hi=0.5)
        with pytest.raises(FaultSpecError):
            TransitionJitter(lo=-0.1)

    def test_plan_rejects_negative_seed(self):
        with pytest.raises(FaultSpecError):
            FaultPlan(seed=-1)

    def test_plan_rejects_two_jitters(self):
        with pytest.raises(FaultSpecError):
            FaultPlan(injectors=(TransitionJitter(), TransitionJitter()))


class TestRngSubstreams:
    def test_same_tags_same_stream(self):
        plan = FaultPlan(seed=42)
        assert plan.rng("a", 1).random() == plan.rng("a", 1).random()

    def test_different_tags_differ(self):
        plan = FaultPlan(seed=42)
        assert plan.rng("a").random() != plan.rng("b").random()

    def test_different_seeds_differ(self):
        assert (FaultPlan(seed=1).rng("x").random()
                != FaultPlan(seed=2).rng("x").random())


class TestFromDict:
    def test_round_trip(self):
        plan = parse_fault_spec("degrade:factor=0.5;noise;jitter", seed=4)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_top_level_keys_named(self):
        with pytest.raises(FaultSpecError, match="'injector'.*'seeed'"):
            FaultPlan.from_dict({
                "seeed": 3,
                "injector": [{"kind": "degrade", "factor": 0.5}],
            })

    def test_misspelled_seed_is_not_seed_zero(self):
        with pytest.raises(FaultSpecError, match="unknown fault plan key 'seeed'"):
            FaultPlan.from_dict({"seeed": 3, "injectors": []})

    def test_unknown_injector_fields_named(self):
        with pytest.raises(FaultSpecError) as info:
            FaultPlan.from_dict({"seed": 1, "injectors": [
                {"kind": "degrade", "factr": 0.5},
                {"kind": "noise", "period": 1e-3},
            ]})
        message = str(info.value)
        assert "degrade: unknown injector field 'factr'" in message
        assert "noise: unknown injector field 'period'" in message
        assert "period_s" in message  # the valid names are listed

    def test_unknown_injector_kind_named(self):
        with pytest.raises(FaultSpecError, match="'cosmic'"):
            FaultPlan.from_dict({"injectors": [{"kind": "cosmic"}]})


class TestSpecGrammar:
    def test_full_spec_round_trip(self):
        plan = parse_fault_spec(
            "degrade:factor=0.5,start=1ms,duration=50ms,frac=0.5;"
            "flap:factor=0.2,period=2ms,down=200us,duration=20ms;"
            "straggler:mult=1.3,frac=0.25,scope=node;"
            "noise:period=500us,pulse=20us;jitter:lo=0.8,hi=1.2",
            seed=9,
        )
        assert plan.seed == 9
        degrade = plan.of_type(LinkDegrade)[0]
        assert degrade.factor == 0.5
        assert degrade.start_s == pytest.approx(1e-3)
        assert degrade.duration_s == pytest.approx(50e-3)
        flap = plan.of_type(LinkFlap)[0]
        assert flap.down_s == pytest.approx(200e-6)
        straggler = plan.of_type(Straggler)[0]
        assert straggler.scope == "node"
        assert plan.of_type(OsNoise)[0].period_s == pytest.approx(500e-6)
        jitter = plan.of_type(TransitionJitter)[0]
        assert (jitter.lo, jitter.hi) == (0.8, 1.2)

    def test_defaults_when_keys_omitted(self):
        plan = parse_fault_spec("noise")
        assert plan.of_type(OsNoise)[0] == OsNoise()

    def test_unknown_injector_is_named(self):
        with pytest.raises(FaultSpecError, match="cosmic"):
            parse_fault_spec("cosmic:rays=1")

    def test_unknown_key_is_named(self):
        with pytest.raises(FaultSpecError, match="wobble"):
            parse_fault_spec("degrade:wobble=2")

    def test_negative_value_rejected(self):
        with pytest.raises(FaultSpecError, match="non-negative"):
            parse_fault_spec("noise:period=-1ms")

    def test_unparseable_time_rejected(self):
        with pytest.raises(FaultSpecError, match="period"):
            parse_fault_spec("noise:period=fast")

    def test_empty_spec_rejected(self):
        with pytest.raises(FaultSpecError, match="no injectors"):
            parse_fault_spec(" ; ")

    def test_bare_seconds_accepted(self):
        plan = parse_fault_spec("degrade:duration=2")
        assert plan.of_type(LinkDegrade)[0].duration_s == 2.0
