"""Spec construction, grid expansion, and fingerprint stability."""

import json

import pytest

from repro.sweeps import Point, SweepSpec


def h2_point(**overrides):
    fields = {
        "workload": {"key": "H2-4"},
        "scheme": "baseline",
        "seed": 3,
        "shots": 64,
        "max_iterations": 5,
        "device": {"preset": "ibmq_mumbai_like", "scale": 2.0},
    }
    fields.update(overrides)
    return Point(**fields)


class TestPoint:
    def test_fingerprint_ignores_dict_ordering(self):
        a = Point(
            workload={"key": "H2-4", "reps": 2},
            scheme="varsaw",
            device={"preset": "ibmq_mumbai_like", "scale": 1.5},
        )
        b = Point(
            scheme="varsaw",
            device={"scale": 1.5, "preset": "ibmq_mumbai_like"},
            workload={"reps": 2, "key": "H2-4"},
        )
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_distinguishes_every_field(self):
        base = h2_point()
        variants = [
            h2_point(workload={"key": "LiH-6"}),
            h2_point(scheme="varsaw"),
            h2_point(seed=4),
            h2_point(shots=128),
            h2_point(max_iterations=6),
            h2_point(circuit_budget=100),
            h2_point(spsa_gain=None),
            h2_point(warm_start_iterations=50),
            h2_point(device={"preset": "ibmq_mumbai_like", "scale": 3.0}),
            h2_point(device=None),
            h2_point(estimator={"shots": 96}),
        ]
        fingerprints = {p.fingerprint() for p in variants}
        assert base.fingerprint() not in fingerprints
        assert len(fingerprints) == len(variants)

    def test_fingerprint_pinned(self):
        # Golden value: catches accidental canonicalization or schema
        # drift that would silently orphan every existing store.
        # (Re-pinned for POINT_SCHEMA_VERSION 2 — the task/options/
        # warm_start fields deliberately invalidated v1 stores.)
        assert h2_point().fingerprint() == (
            "8937acc66d8ee3bccad1cd1bd510d647"
        )

    def test_dict_roundtrip_preserves_fingerprint(self):
        point = h2_point(
            scheme="varsaw", estimator={"window": 3}, circuit_budget=500
        )
        clone = Point.from_dict(point.to_dict())
        assert clone == point
        assert clone.fingerprint() == point.fingerprint()

    def test_workload_must_name_exactly_one_kind(self):
        with pytest.raises(ValueError):
            h2_point(workload={})
        with pytest.raises(ValueError):
            h2_point(workload={"key": "H2-4", "model": "tfim"})

    def test_basic_validation(self):
        with pytest.raises(ValueError):
            h2_point(shots=0)
        with pytest.raises(ValueError):
            h2_point(max_iterations=0)
        with pytest.raises(ValueError):
            h2_point(circuit_budget=0)
        with pytest.raises(ValueError):
            h2_point(scheme="")
        with pytest.raises(ValueError):
            h2_point(device={"scale": 2.0})

    def test_warm_start_requires_molecule_workload(self):
        with pytest.raises(ValueError, match="molecule workload"):
            h2_point(
                workload={"model": "tfim", "n_qubits": 3},
                warm_start_iterations=50,
            )

    def test_unserializable_field_rejected(self):
        with pytest.raises(TypeError):
            h2_point(options={"callback": object()}).fingerprint()
        # Estimator payloads fail even earlier: the registry's typed
        # validation rejects a non-JSON value at point construction.
        with pytest.raises(ValueError):
            h2_point(estimator={"shots": object()})


class TestSweepSpec:
    def make_spec(self, **overrides):
        fields = {
            "name": "grid",
            "base": {"workload": {"key": "H2-4"}, "shots": 32,
                     "max_iterations": 4},
            "axes": {"scheme": ["baseline", "varsaw"], "seed": [0, 1, 2]},
        }
        fields.update(overrides)
        return SweepSpec(**fields)

    def test_points_are_the_cross_product(self):
        spec = self.make_spec()
        points = spec.points()
        assert len(spec) == 6
        # First axis is outermost.
        assert [p.scheme for p in points[:3]] == ["baseline"] * 3
        assert [p.seed for p in points[:3]] == [0, 1, 2]
        assert all(p.shots == 32 for p in points)

    def test_axis_order_does_not_change_fingerprints(self):
        forward = self.make_spec()
        reversed_axes = self.make_spec(
            axes={"seed": [0, 1, 2], "scheme": ["baseline", "varsaw"]}
        )
        assert {p.fingerprint() for p in forward.points()} == {
            p.fingerprint() for p in reversed_axes.points()
        }

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            self.make_spec(base={"workload": {"key": "H2-4"}, "turbo": True})
        with pytest.raises(ValueError):
            self.make_spec(axes={"frobnicate": [1, 2]})

    def test_base_axis_overlap_rejected(self):
        with pytest.raises(ValueError):
            self.make_spec(
                base={"workload": {"key": "H2-4"}, "seed": 0},
                axes={"seed": [0, 1]},
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            self.make_spec(axes={"seed": []})

    def test_malformed_cell_fails_at_build_time(self):
        with pytest.raises(ValueError):
            self.make_spec(axes={"shots": [32, 0]})

    def test_json_roundtrip(self):
        spec = self.make_spec(
            report={"rows": "point.seed", "cols": "point.scheme"}
        )
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert [p.fingerprint() for p in clone.points()] == [
            p.fingerprint() for p in spec.points()
        ]

    def test_json_file_roundtrip(self, tmp_path):
        spec = self.make_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict(), indent=2))
        assert SweepSpec.from_json_file(path) == spec


class TestV2Validation:
    def test_workload_tasks_require_a_workload(self):
        with pytest.raises(ValueError, match="must name exactly one"):
            Point(task="energy", scheme="ideal")
        with pytest.raises(ValueError, match="must name exactly one"):
            Point(task="zne", scheme="baseline",
                  options={"scales": [1.0, 2.0]})
        # Structure-style tasks are fine without one.
        assert Point(task="cost_model",
                     options={"qubits": [4]}).task == "cost_model"

    def test_warm_start_requires_positive_iterations(self):
        with pytest.raises(ValueError, match="iterations"):
            Point(
                workload={"model": "tfim", "n_qubits": 4},
                scheme="varsaw",
                warm_start={"kind": "ideal_vqe", "seed": 73},
            )
        with pytest.raises(ValueError, match="iterations"):
            Point(
                workload={"key": "H2-4"},
                scheme="varsaw",
                warm_start={"kind": "optimal", "iterations": 0},
            )


class TestEstimatorPayloadValidation:
    """PR 4: estimator payloads are typed against the repro.api registry."""

    BASE = dict(workload={"key": "H2-4"}, scheme="varsaw")

    def test_valid_payload_accepted(self):
        point = Point(estimator={"window": 3, "mbm": True}, **self.BASE)
        assert point.estimator == {"window": 3, "mbm": True}

    def test_misspelled_key_fails_at_point_build(self):
        with pytest.raises(ValueError, match="'windw'"):
            Point(estimator={"windw": 3}, **self.BASE)

    def test_out_of_range_value_fails_at_point_build(self):
        with pytest.raises(ValueError, match="window"):
            Point(estimator={"window": 0}, **self.BASE)

    def test_misspelled_key_fails_at_sweepspec_build(self):
        with pytest.raises(ValueError, match="'windw'"):
            SweepSpec(
                name="bad",
                base={"workload": {"key": "H2-4"}, "scheme": "varsaw"},
                axes={"estimator": [{"window": 2}, {"windw": 3}]},
            )

    def test_inline_kind_replaces_scheme(self):
        point = Point(
            workload={"key": "H2-4"},
            estimator={"kind": "selective", "mass_fraction": 0.8},
        )
        assert point.scheme == ""
        assert point.estimator["kind"] == "selective"

    def test_inline_kind_must_be_registered(self):
        with pytest.raises(ValueError, match="unknown estimator kind"):
            Point(
                workload={"key": "H2-4"},
                estimator={"kind": "magic"},
            )

    def test_inline_kind_params_validated(self):
        with pytest.raises(ValueError, match="mass_fraction"):
            Point(
                workload={"key": "H2-4"},
                estimator={"kind": "selective", "mass_fraction": 2.0},
            )

    def test_tuning_without_scheme_or_kind_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            Point(workload={"key": "H2-4"})

    def test_unregistered_scheme_without_payload_deferred(self):
        # Task executors may interpret schemes themselves; only points
        # that carry estimator parameters (or inline kinds) must
        # resolve against the registry.
        point = Point(workload={"key": "H2-4"}, scheme="bespoke")
        assert point.scheme == "bespoke"

    def test_fingerprints_unchanged_for_classic_points(self):
        # The schema gained no fields: stores written before the API
        # redesign keep matching (golden parity depends on this).
        point = Point(
            workload={"key": "H2-4"}, scheme="varsaw",
            estimator={"window": 2},
        )
        assert point.fingerprint() == Point.from_dict(
            point.to_dict()
        ).fingerprint()
