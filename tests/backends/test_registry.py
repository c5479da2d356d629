"""The backend registry: round-trips, listings, and loud failures."""

from dataclasses import dataclass

import pytest

from repro.backends import (
    BackendSpec,
    backend_class,
    backend_kinds,
    backend_spec_from_dict,
    make_backend,
    make_backend_spec,
    register_backend,
    resolve_backend_spec,
)
from repro.noise import SimulatorBackend, ibmq_mumbai_like


class TestListing:
    def test_builtin_kinds_in_canonical_order(self):
        kinds = backend_kinds()
        assert kinds[:3] == ("dense", "clifford", "density")

    def test_at_least_three_backends_registered(self):
        assert len(backend_kinds()) >= 3

    def test_backend_class_resolves_every_listed_kind(self):
        for kind in backend_kinds():
            cls = backend_class(kind)
            assert issubclass(cls, BackendSpec)
            assert cls.kind == kind


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["dense", "clifford", "density"])
    def test_to_dict_from_dict_round_trip(self, kind):
        spec = make_backend_spec(kind)
        payload = spec.to_dict()
        assert payload["kind"] == kind
        assert BackendSpec.from_dict(payload) == spec
        assert backend_spec_from_dict(payload) == spec

    def test_fingerprint_stable_across_field_order(self):
        a = backend_spec_from_dict(
            {"kind": "density", "analytic": False, "amplitude_damping": 0.25}
        )
        b = backend_spec_from_dict(
            {"amplitude_damping": 0.25, "kind": "density", "analytic": False}
        )
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_differs_between_kinds_and_params(self):
        dense = make_backend_spec("dense")
        clifford = make_backend_spec("clifford")
        assert dense.fingerprint() != clifford.fingerprint()
        assert (
            make_backend_spec("density").fingerprint()
            != make_backend_spec("density", analytic=False).fingerprint()
        )

    def test_replace_validates(self):
        spec = make_backend_spec("clifford")
        assert spec.replace(fallback="error").fallback == "error"
        with pytest.raises(ValueError, match="unknown parameter"):
            spec.replace(nope=1)


class TestErrors:
    def test_unknown_kind_names_choices(self):
        with pytest.raises(ValueError, match="unknown backend kind"):
            make_backend_spec("statevector")

    def test_unknown_parameter_names_key_and_fields(self):
        with pytest.raises(
            ValueError, match="'fallbck'.*accepted fields"
        ):
            make_backend_spec("clifford", fallbck="dense")

    def test_payload_without_kind_rejected(self):
        with pytest.raises(ValueError, match="needs a 'kind'"):
            backend_spec_from_dict({"analytic": True})

    def test_out_of_range_field_rejected_eagerly(self):
        with pytest.raises(ValueError, match="amplitude_damping"):
            make_backend_spec("density", amplitude_damping=1.5)
        with pytest.raises(ValueError, match="fallback"):
            make_backend_spec("clifford", fallback="explode")

    def test_resolve_rejects_foreign_types(self):
        with pytest.raises(TypeError, match="backend must be"):
            resolve_backend_spec(42)

    def test_reregistering_kind_to_other_class_raises(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_backend("dense")
            @dataclass(frozen=True)
            class Impostor(BackendSpec):
                pass

    def test_decorating_non_spec_raises(self):
        with pytest.raises(TypeError, match="BackendSpec subclass"):
            register_backend("thing")(object)


class TestMakeBackend:
    def test_none_is_the_dense_default(self):
        backend = make_backend(None, ibmq_mumbai_like(), seed=3)
        assert type(backend) is SimulatorBackend
        assert backend.backend_kind == "dense"
        assert backend.seed == 3

    def test_every_kind_creates_over_a_device(self):
        device = ibmq_mumbai_like()
        for kind in backend_kinds():
            backend = make_backend(kind, device, seed=1)
            assert backend.device is device
            if kind == "remote":
                # The remote backend advertises its *worker's*
                # simulation kind so engine cache keys fold transport
                # out (see repro.dist.remote).
                assert backend.backend_kind == "dense"
            else:
                assert backend.backend_kind == kind

    def test_payload_dict_spelling(self):
        backend = make_backend({"kind": "density", "analytic": False})
        assert backend.analytic is False
