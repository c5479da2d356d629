"""One contract for every kind registry: estimators, backends, schedules.

Each spec family (:class:`~repro.api.EstimatorSpec`,
:class:`~repro.backends.BackendSpec`,
:class:`~repro.noise.DriftSchedule`) is addressed by kind name through
an instance of the same :class:`~repro.api.spec.KindRegistry`, so the
registration, lookup, listing and round-trip rules are checked once
here, for all three.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.api import ESTIMATORS
from repro.backends import BACKENDS
from repro.noise import SCHEDULES

FAMILIES = {
    "estimators": (
        ESTIMATORS,
        (
            "ideal", "baseline", "jigsaw", "varsaw",
            "varsaw_no_sparsity", "varsaw_max_sparsity", "gc",
            "selective", "calibration_gated", "drift_adaptive",
        ),
    ),
    "backends": (BACKENDS, ("dense", "clifford", "density", "remote")),
    "schedules": (
        SCHEDULES, ("constant", "step", "linear", "sine", "random_walk"),
    ),
}

family = pytest.mark.parametrize(
    ("registry", "builtin"), FAMILIES.values(), ids=FAMILIES.keys()
)


def _subclass(base):
    @dataclass(frozen=True)
    class ContractSpec(base):
        knob: int = 3

    return ContractSpec


@family
def test_builtins_list_in_canonical_order(registry, builtin):
    assert registry.kinds() == builtin
    for kind in builtin:
        assert registry.get(kind).kind == kind
        assert issubclass(registry.get(kind), registry.base)
    assert registry.base.registry is registry


@family
def test_out_of_tree_kind_registers_and_lists_last(registry, builtin):
    cls = registry.register("contract_test_kind")(_subclass(registry.base))
    try:
        assert cls.kind == "contract_test_kind"
        assert registry.kinds() == (*builtin, "contract_test_kind")
        spec = registry.make("contract_test_kind", knob=5)
        assert isinstance(spec, cls) and spec.knob == 5
        assert registry.base.from_dict(spec.to_dict()) == spec
    finally:
        del registry.classes["contract_test_kind"]
    assert registry.kinds() == builtin


@family
def test_builtin_kind_cannot_be_taken_by_another_class(registry, builtin):
    kind = builtin[0]
    with pytest.raises(ValueError, match="already registered"):
        registry.register(kind)(_subclass(registry.base))
    original = registry.get(kind)
    assert registry.register(kind)(original) is original
    assert registry.get(kind) is original


@family
def test_registration_needs_a_subclass_and_a_name(registry, builtin):
    with pytest.raises(TypeError, match=registry.base.__name__):
        registry.register("contract_test_kind")(object)
    with pytest.raises(ValueError):
        registry.register("")
    assert "contract_test_kind" not in registry.classes


@family
def test_unknown_kind_lists_the_choices(registry, builtin):
    for lookup in (
        lambda: registry.get("no_such_kind"),
        lambda: registry.make("no_such_kind"),
        lambda: registry.base.from_dict({"kind": "no_such_kind"}),
    ):
        with pytest.raises(ValueError) as excinfo:
            lookup()
        message = str(excinfo.value)
        assert f"unknown {registry.noun} kind 'no_such_kind'" in message
        assert all(kind in message for kind in builtin)


@family
def test_payload_without_kind_is_rejected(registry, builtin):
    for payload in ({}, {"kind": ""}, {"kind": None}):
        with pytest.raises(ValueError, match="needs a 'kind'"):
            registry.from_dict(payload)
        with pytest.raises(ValueError, match="needs a 'kind'"):
            registry.base.from_dict(payload)


@family
def test_unknown_field_names_the_key_and_accepted_fields(registry, builtin):
    for kind in builtin:
        cls = registry.get(kind)
        with pytest.raises(ValueError) as excinfo:
            registry.make(kind, bogus_knob=1)
        message = str(excinfo.value)
        assert "'bogus_knob'" in message
        assert f"{registry.noun} kind {kind!r}" in message
        assert "accepted fields" in message
        assert all(name in message for name in cls.field_names())


@family
def test_every_builtin_round_trips_with_an_order_free_fingerprint(
    registry, builtin
):
    for kind in builtin:
        spec = registry.make(kind)
        payload = spec.to_dict()
        assert payload["kind"] == kind
        assert registry.base.from_dict(payload) == spec
        assert registry.from_dict(payload) == spec
        reordered = dict(reversed(list(payload.items())))
        assert registry.from_dict(reordered).fingerprint() == (
            spec.fingerprint()
        )


@family
def test_replace_rejects_unknown_keys(registry, builtin):
    spec = registry.make(builtin[-1])
    assert spec.replace() == spec
    with pytest.raises(ValueError, match="unknown parameter 'bogus_knob'"):
        spec.replace(bogus_knob=1)
