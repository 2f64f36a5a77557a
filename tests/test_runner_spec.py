"""Tests for job specs and their content hashes."""

import dataclasses
import enum
from typing import Any

import pytest

from repro.errors import RunnerError
from repro.core import PopRoutingStudy
from repro.runner import JobSpec, canonicalize, resolve_study
from repro.topology import TopologyConfig


class Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


@dataclasses.dataclass
class Widget:
    size: int = 2


@dataclasses.dataclass
class UncheckedStudy:
    """A study that takes any seed, so only ``from_study`` checks it."""

    seed: Any = 0

    def run(self):
        return None


class TestCanonicalize:
    def test_scalars_pass_through(self):
        assert canonicalize(3) == 3
        assert canonicalize("x") == "x"
        assert canonicalize(True) is True
        assert canonicalize(None) is None
        assert canonicalize(1.5) == 1.5

    def test_non_finite_floats_tagged(self):
        assert canonicalize(float("nan")) == {"__float__": "nan"}
        assert canonicalize(float("inf")) == {"__float__": "inf"}
        assert canonicalize(float("-inf")) == {"__float__": "-inf"}

    def test_tuple_and_list_coincide(self):
        assert canonicalize((1, 2)) == canonicalize([1, 2])

    def test_numpy_scalars(self):
        import numpy as np

        assert canonicalize(np.int64(5)) == 5
        assert canonicalize(np.float64(1.5)) == 1.5

    def test_enum_and_dataclass_tagged_with_class(self):
        tagged = canonicalize(Color.RED)
        assert "Color" in tagged["__enum__"]
        tagged = canonicalize(Widget(size=9))
        assert "Widget" in tagged["__dataclass__"]
        assert tagged["fields"] == {"size": 9}

    def test_mapping_keys_sorted_and_string_only(self):
        assert list(canonicalize({"b": 1, "a": 2})) == ["a", "b"]
        with pytest.raises(RunnerError):
            canonicalize({1: "x"})

    def test_unhashable_value_raises(self):
        with pytest.raises(RunnerError):
            canonicalize(object())


class TestContentHash:
    def test_deterministic(self):
        a = JobSpec("m:C", seed=1, config={"x": 1, "y": (2, 3)})
        b = JobSpec("m:C", seed=1, config={"y": [2, 3], "x": 1})
        assert a.content_hash == b.content_hash
        assert len(a.content_hash) == 64

    @pytest.mark.parametrize(
        "other",
        [
            JobSpec("m:C", seed=2, config={"x": 1}),
            JobSpec("m:D", seed=1, config={"x": 1}),
            JobSpec("m:C", seed=1, config={"x": 2}),
            JobSpec("m:C", seed=1, config={"x": 1, "z": 0}),
        ],
    )
    def test_any_field_change_changes_hash(self, other):
        base = JobSpec("m:C", seed=1, config={"x": 1})
        assert base.content_hash != other.content_hash

    def test_topology_config_hashes(self):
        a = JobSpec("m:C", config={"topology": TopologyConfig(seed=1)})
        b = JobSpec("m:C", config={"topology": TopologyConfig(seed=2)})
        assert a.content_hash != b.content_hash

    def test_unhashable_config_raises(self):
        with pytest.raises(RunnerError):
            JobSpec("m:C", config={"bad": object()}).content_hash


class TestFromStudyAndBuild:
    def test_roundtrip(self):
        study = PopRoutingStudy(seed=7, n_prefixes=12, days=0.5)
        spec = JobSpec.from_study(study)
        assert spec.seed == 7
        assert spec.study.endswith(":PopRoutingStudy")
        assert "seed" not in spec.config
        assert spec.build() == study

    def test_from_study_rejects_classes_and_non_dataclasses(self):
        with pytest.raises(RunnerError):
            JobSpec.from_study(PopRoutingStudy)
        with pytest.raises(RunnerError):
            JobSpec.from_study(object())

    @pytest.mark.parametrize("seed", [1.5, 2.0, True])
    def test_refuses_a_seed_that_is_not_an_integer(self, seed):
        """A float or bool seed is refused, not run, cached or hashed as
        another seed."""
        with pytest.raises(RunnerError, match="seed must be an integer"):
            JobSpec.from_study(UncheckedStudy(seed=seed))
        with pytest.raises(RunnerError, match="seed must be an integer"):
            JobSpec("repro.core.study:PopRoutingStudy", seed=seed)

    def test_build_rejects_bad_config(self):
        spec = JobSpec("repro.core.study:PopRoutingStudy", config={"nope": 1})
        with pytest.raises(RunnerError):
            spec.build()

    def test_build_requires_run_method(self):
        spec = JobSpec("repro.topology.generator:TopologyConfig")
        with pytest.raises(RunnerError):
            spec.build()

    def test_describe(self):
        spec = JobSpec("repro.core.study:PopRoutingStudy", seed=3)
        assert spec.describe() == "PopRoutingStudy(seed=3)"


class TestResolveStudy:
    def test_resolves(self):
        assert resolve_study("repro.core.study:PopRoutingStudy") is PopRoutingStudy

    @pytest.mark.parametrize(
        "path",
        [
            "no-colon",
            ":OnlyClass",
            "only.module:",
            "no.such.module:Cls",
            "repro.core.study:NoSuchStudy",
        ],
    )
    def test_bad_paths_raise(self, path):
        with pytest.raises(RunnerError):
            resolve_study(path)
