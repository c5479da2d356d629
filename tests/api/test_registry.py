"""Unit tests for the estimator registry (repro.api.registry)."""

from dataclasses import dataclass

import pytest

from repro.api import (
    ESTIMATORS,
    EstimatorSpec,
    estimator_kinds,
    make_spec,
    register_estimator,
    resolve_spec,
    spec_class,
    spec_from_dict,
)
from repro.core import (
    CalibrationGatedSpec,
    SelectiveSpec,
    VarSawMaxSparsitySpec,
    VarSawNoSparsitySpec,
    VarSawSpec,
)
from repro.mitigation import JigSawSpec
from repro.vqe import BaselineSpec, GeneralCommutationSpec, IdealSpec

EXPECTED = {
    "ideal": IdealSpec,
    "baseline": BaselineSpec,
    "jigsaw": JigSawSpec,
    "varsaw": VarSawSpec,
    "varsaw_no_sparsity": VarSawNoSparsitySpec,
    "varsaw_max_sparsity": VarSawMaxSparsitySpec,
    "gc": GeneralCommutationSpec,
    "selective": SelectiveSpec,
    "calibration_gated": CalibrationGatedSpec,
}


class TestKinds:
    def test_at_least_nine_kinds(self):
        assert len(estimator_kinds()) >= 9

    def test_builtin_classes_registered(self):
        for kind, cls in EXPECTED.items():
            assert spec_class(kind) is cls
            assert cls.kind == kind

    def test_legacy_kinds_first_in_canonical_order(self):
        kinds = estimator_kinds()
        assert kinds[:6] == (
            "ideal", "baseline", "jigsaw", "varsaw",
            "varsaw_no_sparsity", "varsaw_max_sparsity",
        )
        assert set(kinds[6:9]) == {"gc", "selective", "calibration_gated"}

    def test_unknown_kind_lists_choices(self):
        with pytest.raises(ValueError, match="unknown estimator kind"):
            spec_class("magic")
        with pytest.raises(ValueError, match="varsaw"):
            make_spec("magic")


class TestRegistration:
    def test_out_of_tree_registration(self):
        @register_estimator("unit_test_kind")
        @dataclass(frozen=True)
        class UnitTestSpec(EstimatorSpec):
            knob: int = 3

        try:
            assert "unit_test_kind" in estimator_kinds()
            # Out-of-tree kinds list after the built-ins.
            assert estimator_kinds().index("unit_test_kind") >= 9
            spec = make_spec("unit_test_kind", knob=5)
            assert spec.knob == 5
            assert spec.kind == "unit_test_kind"
        finally:
            del ESTIMATORS.classes["unit_test_kind"]

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_estimator("varsaw")
            @dataclass(frozen=True)
            class Impostor(EstimatorSpec):
                pass

    def test_redecorating_same_class_is_noop(self):
        assert register_estimator("varsaw")(VarSawSpec) is VarSawSpec

    def test_non_spec_class_rejected(self):
        with pytest.raises(TypeError, match="EstimatorSpec"):
            register_estimator("bad")(object)

    def test_empty_kind_rejected(self):
        with pytest.raises(ValueError):
            register_estimator("")


class TestResolveSpec:
    def test_from_kind_name(self):
        assert resolve_spec("varsaw", window=3) == make_spec(
            "varsaw", window=3
        )

    def test_from_payload(self):
        spec = resolve_spec({"kind": "jigsaw", "window": 4})
        assert isinstance(spec, JigSawSpec)
        assert spec.window == 4

    def test_from_spec_instance(self):
        spec = make_spec("varsaw")
        assert resolve_spec(spec) is spec
        assert resolve_spec(spec, window=5).window == 5

    def test_payload_without_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            spec_from_dict({"window": 2})

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            resolve_spec(42)
