"""Tests for the fault-injection package: plans and injectors."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracles import unit_draw_reference

from repro.errors import FaultError
from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    InjectedFault,
    apply_fault,
    corrupt_file,
    maybe_inject,
    parse_fault_spec,
)
from repro.faults.plan import unit_draw
from repro.runner import JobSpec
from repro.runner.spec import canonicalize

HASHES = [f"{i:064x}" for i in range(400)]

#: Every kind of part a draw hashes: seeds, ASNs and attempts (ints,
#: negative and past 2**64 too), spec hashes and labels (strs, empty and
#: non-ASCII too), floats and bools.
DRAW_PARTS = st.one_of(
    st.integers(),
    st.integers(max_value=-1),
    st.integers(min_value=2**64),
    st.text(),
    st.just(""),
    st.text(alphabet=st.characters(min_codepoint=0x80), min_size=1),
    st.floats(),
    st.booleans(),
)


class TestUnitDraw:
    @given(st.lists(DRAW_PARTS, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_reference_join(self, parts):
        """Fault-plan decisions, the routing engine's jitter and the
        scenario attacker choice all draw through ``unit_draw``, so its
        sha256 input must stay byte for byte the reference join."""
        draw = unit_draw(*parts)
        assert draw == unit_draw_reference(*parts)
        assert 0.0 <= draw < 1.0


class TestFaultPlan:
    def test_inert_by_default(self):
        plan = FaultPlan()
        assert not plan.active
        assert all(plan.decide(h, 1) is None for h in HASHES[:50])

    @pytest.mark.parametrize("field", ["p_timeout", "p_crash", "p_error", "p_slow", "p_corrupt"])
    def test_probability_bounds_enforced(self, field):
        with pytest.raises(FaultError):
            FaultPlan(**{field: 1.5})
        with pytest.raises(FaultError):
            FaultPlan(**{field: -0.1})

    def test_attempt_probabilities_must_sum_to_one_or_less(self):
        with pytest.raises(FaultError, match="sum"):
            FaultPlan(p_timeout=0.5, p_crash=0.3, p_error=0.3)
        # p_corrupt is per-spec, outside the per-attempt walk.
        FaultPlan(p_timeout=0.5, p_crash=0.5, p_corrupt=1.0)

    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=3, p_timeout=0.2, p_crash=0.2, p_error=0.2, p_slow=0.2)
        again = FaultPlan(seed=3, p_timeout=0.2, p_crash=0.2, p_error=0.2, p_slow=0.2)
        decisions = [plan.decide(h, 1) for h in HASHES]
        assert decisions == [again.decide(h, 1) for h in HASHES]
        assert any(d is not None for d in decisions)

    def test_seed_changes_decisions(self):
        a = FaultPlan(seed=0, p_error=0.5)
        b = FaultPlan(seed=1, p_error=0.5)
        assert [a.decide(h, 1) for h in HASHES] != [b.decide(h, 1) for h in HASHES]

    def test_rates_roughly_match_probabilities(self):
        plan = FaultPlan(seed=7, p_error=0.3)
        hits = sum(plan.decide(h, 1) == "error" for h in HASHES)
        assert 0.2 < hits / len(HASHES) < 0.4

    def test_max_faulty_attempts_caps_torment(self):
        plan = FaultPlan(seed=1, p_error=1.0, max_faulty_attempts=2)
        for h in HASHES[:20]:
            assert plan.decide(h, 1) == "error"
            assert plan.decide(h, 2) == "error"
            assert plan.decide(h, 3) is None

    def test_zero_cap_means_unbounded(self):
        plan = FaultPlan(seed=1, p_error=1.0, max_faulty_attempts=0)
        assert plan.decide(HASHES[0], 50) == "error"

    def test_attempt_must_be_positive(self):
        with pytest.raises(FaultError):
            FaultPlan(p_error=1.0).decide(HASHES[0], 0)

    def test_every_kind_reachable(self):
        plan = FaultPlan(
            seed=5, p_timeout=0.25, p_crash=0.25, p_error=0.25, p_slow=0.25
        )
        seen = {plan.decide(h, 1) for h in HASHES}
        assert set(FAULT_KINDS) <= seen

    def test_decide_corrupt_deterministic_and_per_spec(self):
        plan = FaultPlan(seed=9, p_corrupt=0.5)
        flags = [plan.decide_corrupt(h) for h in HASHES]
        assert flags == [plan.decide_corrupt(h) for h in HASHES]
        assert any(flags) and not all(flags)

    def test_describe_names_active_kinds(self):
        text = FaultPlan(seed=2, p_crash=0.1, p_corrupt=0.3).describe()
        assert "crash=0.1" in text and "corrupt=0.3" in text

    def test_plan_is_picklable_and_canonicalizable(self):
        import pickle

        plan = FaultPlan(seed=2, p_crash=0.1)
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert canonicalize(plan)["__dataclass__"].endswith(":FaultPlan")


class TestParseFaultSpec:
    def test_parses_probabilities_and_tuning(self):
        plan = parse_fault_spec(
            "crash=0.2, timeout=0.1, hang_s=3.5, max_attempts=4", seed=6
        )
        assert plan == FaultPlan(
            seed=6, p_crash=0.2, p_timeout=0.1, hang_s=3.5, max_faulty_attempts=4
        )

    def test_inline_seed_overrides_argument(self):
        assert parse_fault_spec("seed=9,error=0.5", seed=1).seed == 9

    @pytest.mark.parametrize("bad", ["nope=1", "crash", "crash=x", "timeout=2.0"])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(FaultError):
            parse_fault_spec(bad)

    def test_empty_spec_is_inert(self):
        assert not parse_fault_spec("").active


class TestInjectors:
    def test_error_fault_raises_injected_fault(self):
        plan = FaultPlan(seed=1, p_error=1.0)
        with pytest.raises(InjectedFault):
            apply_fault("error", plan, HASHES[0], 1)

    def test_slow_fault_sleeps_then_returns(self):
        import time

        plan = FaultPlan(seed=1, p_slow=1.0, slow_s=0.05)
        start = time.perf_counter()
        apply_fault("slow", plan, HASHES[0], 1)
        assert time.perf_counter() - start >= 0.04

    def test_timeout_fault_hangs_then_raises(self):
        plan = FaultPlan(seed=1, p_timeout=1.0, hang_s=0.05)
        with pytest.raises(InjectedFault, match="timeout"):
            apply_fault("timeout", plan, HASHES[0], 1)

    def test_maybe_inject_none_plan_is_noop(self):
        maybe_inject(None, HASHES[0], 1)

    def test_maybe_inject_respects_decision(self):
        plan = FaultPlan(seed=1, p_error=1.0, max_faulty_attempts=1)
        with pytest.raises(InjectedFault):
            maybe_inject(plan, HASHES[0], 1)
        maybe_inject(plan, HASHES[0], 2)  # past the cap: clean

    def test_injected_fault_is_not_a_repro_error(self):
        from repro.errors import ReproError

        assert not issubclass(InjectedFault, ReproError)

    def test_corrupt_file_garbles_but_keeps_file(self, tmp_path):
        target = tmp_path / "entry.json"
        target.write_text('{"ok": true, "padding": "' + "x" * 200 + '"}')
        assert corrupt_file(target)
        assert target.exists()
        import json

        with pytest.raises(json.JSONDecodeError):
            json.loads(target.read_text(errors="replace"))

    def test_corrupt_file_missing_is_false(self, tmp_path):
        assert not corrupt_file(tmp_path / "absent.json")


class TestPlatformAttribution:
    """The circuit breaker keys on JobSpec.platform."""

    @pytest.mark.parametrize(
        "study, expected",
        [
            ("repro.core.study:PopRoutingStudy", "edgefabric"),
            ("repro.core.study:PeeringReductionStudy", "edgefabric"),
            ("repro.core.study:AnycastCdnStudy", "cdn"),
            ("repro.core.study:CloudTiersStudy", "cloudtiers"),
        ],
    )
    def test_paper_studies_declare_platforms(self, study, expected):
        assert JobSpec(study=study).platform == expected

    def test_module_path_fallback(self):
        # An unresolvable study falls back to parsing the module path.
        assert JobSpec(study="repro.edgefabric.nosuch:X").platform == "edgefabric"
        assert JobSpec(study="outside.thing:X").platform == "outside"

    def test_platform_is_not_part_of_the_content_hash(self):
        spec = JobSpec(study="repro.core.study:PopRoutingStudy", seed=1)
        digest = spec.content_hash
        _ = spec.platform
        assert spec.content_hash == digest
