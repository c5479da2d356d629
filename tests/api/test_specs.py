"""Spec round-trips, fingerprints, and eager validation.

Satellite coverage for PR 4: every registered kind's spec
``to_dict()``/``from_dict()`` round-trips, fingerprints are stable
under field reordering (hypothesis), and validation fails loudly at
spec build time.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    EstimatorSpec,
    estimator_kinds,
    make_spec,
    spec_class,
    spec_from_dict,
)

ALL_KINDS = list(estimator_kinds())

#: One non-default parameter assignment per kind (skipping parameterless
#: kinds), so round-trips exercise real values, not just defaults.
NON_DEFAULTS = {
    "baseline": {"shots": 17},
    "jigsaw": {"window": 3, "subset_shots": 9},
    "varsaw": {"global_mode": "always", "initial_period": 4},
    "varsaw_no_sparsity": {"window": 4},
    "varsaw_max_sparsity": {"shots": 33},
    "gc": {"method": "greedy"},
    "selective": {"mass_fraction": 0.7, "phase_evaluations": 12,
                  "phase_start": 0.25},
    "calibration_gated": {"error_threshold": 0.25},
}


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_default_spec_round_trips(self, kind):
        spec = make_spec(kind)
        payload = spec.to_dict()
        assert payload["kind"] == kind
        assert json.loads(json.dumps(payload)) == payload
        assert EstimatorSpec.from_dict(payload) == spec
        assert spec_from_dict(payload) == spec

    @pytest.mark.parametrize("kind", sorted(NON_DEFAULTS))
    def test_non_default_spec_round_trips(self, kind):
        spec = make_spec(kind, **NON_DEFAULTS[kind])
        rebuilt = EstimatorSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert type(rebuilt) is type(spec)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_concrete_from_dict_checks_kind(self, kind):
        cls = spec_class(kind)
        assert cls.from_dict({"kind": kind}) == cls()
        with pytest.raises(ValueError, match="does not match"):
            cls.from_dict({"kind": "definitely_not_" + kind})

    def test_replace_round_trips(self):
        spec = make_spec("varsaw", window=3)
        assert spec.replace(window=2) == make_spec("varsaw")
        with pytest.raises(ValueError, match="'windw'"):
            spec.replace(windw=4)


class TestFingerprint:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fingerprint_survives_round_trip(self, kind):
        spec = make_spec(kind, **NON_DEFAULTS.get(kind, {}))
        rebuilt = EstimatorSpec.from_dict(spec.to_dict())
        assert rebuilt.fingerprint() == spec.fingerprint()

    def test_fingerprint_distinguishes_kinds_and_values(self):
        prints = {
            make_spec(kind).fingerprint() for kind in ALL_KINDS
        }
        assert len(prints) == len(ALL_KINDS)
        assert (
            make_spec("varsaw", window=3).fingerprint()
            != make_spec("varsaw").fingerprint()
        )

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(sorted(NON_DEFAULTS)),
        order=st.randoms(use_true_random=False),
    )
    def test_fingerprint_stable_under_field_reordering(self, kind, order):
        """Payload dict insertion order never changes the digest."""
        spec = make_spec(kind, **NON_DEFAULTS[kind])
        items = list(spec.to_dict().items())
        order.shuffle(items)
        assert spec_from_dict(dict(items)).fingerprint() == (
            spec.fingerprint()
        )


class TestValidation:
    def test_unknown_key_names_offender_and_fields(self):
        with pytest.raises(ValueError) as excinfo:
            make_spec("jigsaw", windw=3)
        message = str(excinfo.value)
        assert "'windw'" in message
        assert "jigsaw" in message
        assert "window" in message and "shots" in message

    def test_multiple_unknown_keys_all_named(self):
        with pytest.raises(ValueError, match="'a'.*'b'"):
            make_spec("baseline", a=1, b=2)

    @pytest.mark.parametrize(
        ("kind", "params"),
        [
            ("baseline", {"shots": 0}),
            ("baseline", {"shots": "many"}),
            ("baseline", {"shots": True}),
            ("jigsaw", {"window": 0}),
            ("jigsaw", {"subset_shots": -1}),
            ("varsaw", {"global_mode": "sometimes"}),
            ("varsaw", {"max_period": 1, "initial_period": 8}),
            ("varsaw", {"mbm": "yes"}),
            ("varsaw_no_sparsity", {"global_mode": "never"}),
            ("varsaw_max_sparsity", {"global_mode": "adaptive"}),
            ("gc", {"method": "rainbow"}),
            ("selective", {"mass_fraction": 1.5}),
            ("selective", {"phase_evaluations": 0}),
            ("selective", {"phase_start": 0.9, "phase_end": 0.1}),
            ("calibration_gated", {"error_threshold": -0.1}),
            ("calibration_gated", {"error_threshold": True}),
            ("drift_adaptive", {"detector_threshold": True}),
            ("drift_adaptive", {"drift_allowance": False}),
            ("calibration_gated", {"error_threshold": float("nan")}),
        ],
    )
    def test_out_of_range_values_fail_eagerly(self, kind, params):
        with pytest.raises(ValueError):
            make_spec(kind, **params)

    def test_validation_runs_on_from_dict_too(self):
        with pytest.raises(ValueError):
            spec_from_dict({"kind": "varsaw", "window": 0})
