"""JobSpec: validation, content fingerprints, session keys."""

import pytest

from repro.api import make_spec
from repro.serve import JOB_KINDS, JobSpec


def job(**overrides):
    fields = {"workload": {"key": "H2-4"}, "shots": 64}
    fields.update(overrides)
    return JobSpec(**fields)


class TestValidation:
    def test_defaults_are_valid(self):
        spec = job()
        assert spec.kind == "estimate"
        assert spec.scheme == "varsaw"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="job kind"):
            job(kind="banana")

    def test_workload_must_name_one_kind(self):
        with pytest.raises(ValueError, match="exactly one"):
            JobSpec(workload={})
        with pytest.raises(ValueError, match="exactly one"):
            JobSpec(workload={"key": "H2-4", "qaoa": "ring"})

    def test_shots_positive(self):
        with pytest.raises(ValueError, match="shots"):
            job(shots=0)

    def test_estimator_payload_validated_eagerly(self):
        with pytest.raises(ValueError):
            job(estimator={"no_such_knob": 3})

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            job(scheme="not_a_scheme")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            job(backend="not_a_backend")

    def test_device_needs_preset(self):
        with pytest.raises(ValueError, match="preset"):
            job(device={"scale": 2.0})

    def test_unknown_device_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            job(device={"preset": "not_a_device"})

    def test_unexpected_device_kwargs_rejected(self):
        # Must fail (as ValueError, so HTTP maps it to a 400) at
        # submission, not inside a batch after being journaled.
        with pytest.raises(ValueError, match="bad device"):
            job(device={"preset": "ideal", "noise_scale": 2.0})

    def test_inline_estimator_kind_wins(self):
        spec = job(scheme="baseline", estimator={"kind": "varsaw"})
        assert spec.estimator_spec() == make_spec("varsaw", shots=64)

    def test_job_kinds_constant(self):
        assert JOB_KINDS == ("estimate", "tuning")


class TestFingerprint:
    def test_identical_jobs_share_fingerprints(self):
        assert job().fingerprint() == job().fingerprint()

    def test_any_field_change_changes_fingerprint(self):
        base = job().fingerprint()
        assert job(shots=128).fingerprint() != base
        assert job(seed=1).fingerprint() != base
        assert job(scheme="baseline").fingerprint() != base
        assert job(params=[0.1] * 24).fingerprint() != base

    def test_params_normalized_before_hashing(self):
        ints = job(params=[0, 1])
        floats = job(params=[0.0, 1.0])
        assert ints.fingerprint() == floats.fingerprint()

    def test_roundtrip_preserves_fingerprint(self):
        spec = job(
            params=[0.25] * 4,
            device={"preset": "ibmq_mumbai_like", "scale": 2.0},
            estimator={"window": 2},
        )
        assert JobSpec.from_dict(spec.to_dict()).fingerprint() == (
            spec.fingerprint()
        )


class TestSessionKey:
    def test_same_workload_default_device_shares_session(self):
        # Different params, same device/seed/backend: one session.
        a = job(params=[0.1] * 4)
        b = job(params=[0.9] * 4)
        assert a.fingerprint() != b.fingerprint()
        assert a.session_key() == b.session_key()

    def test_seed_splits_sessions(self):
        assert job(seed=0).session_key() != job(seed=1).session_key()

    def test_backend_splits_sessions(self):
        assert job().session_key() != job(
            backend="clifford"
        ).session_key()

    def test_explicit_device_overrides_workload_default(self):
        explicit = job(device={"preset": "ibmq_mumbai_like"})
        assert explicit.session_key() != job().session_key()
        # With an explicit device the workload no longer matters.
        other = job(
            workload={"key": "LiH-6"},
            device={"preset": "ibmq_mumbai_like"},
        )
        assert explicit.session_key() == other.session_key()


class TestLabel:
    def test_label_names_workload_kind_scheme_seed(self):
        assert job(seed=3).label() == "H2-4 estimate varsaw seed=3"

    def test_tuning_label(self):
        assert "tuning" in job(kind="tuning").label()


class TestPayloadPinnedShots:
    """A job resolves its estimator exactly as a sweep Point does: the
    payload's ``shots`` wins over the job's, on both job kinds, and
    the job charges what the equivalent Point charges."""

    POINT = {"workload": {"key": "H2-4"}, "scheme": "varsaw", "shots": 64,
             "seed": 7, "estimator": {"shots": 128}}

    def test_job_and_point_resolve_one_spec(self):
        from repro.sweeps import Point

        for kind in JOB_KINDS:
            spec = job(kind=kind, seed=7, estimator={"shots": 128})
            assert spec.estimator_spec() == Point(
                **self.POINT
            ).estimator_spec()
            assert spec.estimator_spec().shots == 128

    def test_tuning_job_charges_what_the_point_charges(self, tmp_path):
        from repro.serve import Service
        from repro.sweeps import Point
        from repro.sweeps.runner import execute_point

        point = Point(max_iterations=2, **self.POINT)
        record, _ = execute_point(point)
        spec = job(
            kind="tuning", seed=7, max_iterations=2,
            estimator={"shots": 128},
        )
        with Service(tmp_path / "journal") as service:
            request = service.submit("alice", spec)
            service.drain()
            result = request.future.result()["result"]
            charge = service.budget.charged("alice")
        assert result["energy"] == record["energy"]
        assert (charge.circuits, charge.shots) == (
            record["circuits"], record["shots"],
        )
        assert charge.shots == 128 * charge.circuits

    def test_estimate_job_charges_what_the_point_charges(self, tmp_path):
        from repro.analysis import optimal_parameters
        from repro.api import Session
        from repro.serve import Service
        from repro.sweeps import Point
        from repro.sweeps.runner import execute_point
        from repro.workloads import make_workload

        point = Point(
            task="energy", options={"params_iterations": 20}, **self.POINT
        )
        record, _ = execute_point(point)
        workload = make_workload("H2-4")
        params = optimal_parameters(workload, iterations=20)
        # What the Point's energy task charges for its one evaluation.
        session = Session(workload.device, seed=7)
        session.estimator(point.estimator_spec(), workload).evaluate(params)
        expected = session.ledger()

        spec = job(seed=7, params=list(params), estimator={"shots": 128})
        with Service(tmp_path / "journal") as service:
            request = service.submit("alice", spec)
            service.drain()
            result = request.future.result()["result"]
            charge = service.budget.charged("alice")
        assert result["energy"] == record["energy"]
        assert (charge.circuits, charge.shots) == (
            expected.circuits, expected.shots,
        )
        assert charge.shots == 128 * charge.circuits
