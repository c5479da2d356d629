"""Typed estimator specifications: the data half of :mod:`repro.api`.

An :class:`EstimatorSpec` is the declarative description of one
estimator construction — every knob a comparison scheme exposes, as a
frozen dataclass of plain JSON values.  Instead of forwarding untyped
keyword arguments into constructors (and silently dropping or
exploding on the misspelled ones), a spec

* **validates eagerly** — every field is checked in ``__post_init__``,
  so a bad ``window`` or a misspelled parameter fails at spec build
  time with the offending key and the kind's accepted fields, not deep
  inside an estimator constructor mid-sweep;
* **serializes** — :meth:`EstimatorSpec.to_dict` /
  :meth:`EstimatorSpec.from_dict` round-trip through plain dicts, so a
  spec can live in a sweep :class:`~repro.sweeps.spec.Point`, a JSON
  grid file, or a results store;
* carries a **stable fingerprint** — a blake2b digest of the canonical
  JSON encoding, independent of field ordering and process;
* **builds** — :meth:`EstimatorSpec.build` is the one construction path
  from (workload, backend, engine) to a live estimator; every layer of
  the repository (CLI, sweeps, analysis, benchmarks) goes through it,
  usually via :meth:`repro.api.Session.estimator`.

Concrete spec classes live next to their estimator families (e.g.
:class:`repro.core.varsaw.VarSawSpec`) and self-register with
:func:`repro.api.register_estimator`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, ClassVar, TypeVar, cast

_S = TypeVar("_S", bound="SpecRecord")

__all__ = [
    "EstimatorSpec",
    "SpecRecord",
    "canonical_spec_json",
    "check_bool",
    "check_choice",
    "check_fraction",
    "check_int",
]


def _canonical(value: Any) -> Any:
    """Normalize a value tree for canonical JSON encoding."""
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"spec fields must be JSON-serializable scalars/lists/dicts; "
        f"got {type(value).__name__}"
    )


def canonical_spec_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, exact floats."""
    return json.dumps(
        _canonical(value), sort_keys=True, separators=(",", ":")
    )


# -------------------------------------------------- validation helpers


def check_int(name: str, value: Any, minimum: int | None = None) -> None:
    """``value`` must be a (non-bool) int, optionally ``>= minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"{name} must be an int; got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}; got {value}")


def check_fraction(name: str, value: Any) -> None:
    """``value`` must be a real number in [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number in [0, 1]; got {value!r}")
    if not 0.0 <= float(value) <= 1.0:
        raise ValueError(f"{name} must be in [0, 1]; got {value!r}")


def check_choice(name: str, value: Any, choices: tuple[str, ...]) -> None:
    """``value`` must be one of ``choices``."""
    if value not in choices:
        raise ValueError(
            f"{name} must be one of {choices}; got {value!r}"
        )


def check_bool(name: str, value: Any) -> None:
    """``value`` must be a plain bool."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool; got {value!r}")


def split_live_params(
    params: Mapping[str, Any],
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Split raw keyword arguments into (spec params, live overrides).

    A live object passed where a spec expects a JSON flag — today only
    ``mbm``, which callers of
    :func:`repro.sweeps.runner.execute_tuning` may pass as a ready
    :class:`~repro.mitigation.MatrixMitigator` instead of a bool — has
    no dict spelling; it bypasses the spec and is handed straight to
    :meth:`EstimatorSpec.build` as an override.
    """
    params = dict(params)
    overrides: dict[str, Any] = {}
    if not isinstance(params.get("mbm", False), bool):
        overrides["mbm"] = params.pop("mbm")
    return params, overrides


@dataclass(frozen=True)
class SpecRecord:
    """Shared machinery for registry-addressable frozen spec records.

    Both spec families in the repository — estimator specs
    (:class:`EstimatorSpec`, below) and execution-backend specs
    (:class:`repro.backends.BackendSpec`) — are frozen dataclasses of
    plain JSON values that claim a ``kind`` name in a registry,
    validate eagerly, round-trip through dicts, and carry stable
    content fingerprints.  This base owns exactly that shared contract;
    each family adds its own construction method (``build`` / ``create``)
    and registry dispatch.
    """

    #: Registry name; assigned by the family's ``register_*`` decorator.
    kind: ClassVar[str] = ""

    #: Noun used in error messages (``"estimator"``/``"backend"``).
    _spec_noun: ClassVar[str] = "spec"

    def __post_init__(self) -> None:
        self.validate()

    # --------------------------------------------------------- contract

    def validate(self) -> None:
        """Raise ``ValueError`` for out-of-range parameters (eagerly)."""

    @classmethod
    def _registry_lookup(cls, data: Mapping[str, Any]) -> "SpecRecord":
        """Family hook: dispatch a payload through the kind registry."""
        raise NotImplementedError

    # ---------------------------------------------------- serialization

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """The kind's accepted parameter names."""
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def check_params(cls, params: Mapping[str, Any]) -> dict[str, Any]:
        """Reject unknown parameter keys with a naming error.

        This is the fix for the legacy factory's silent-kwarg
        forwarding: a misspelled knob fails here, by name, alongside
        the kind's accepted fields.
        """
        unknown = sorted(set(params) - set(cls.field_names()))
        if unknown:
            accepted = ", ".join(cls.field_names()) or "(none)"
            noun = "parameters" if len(unknown) > 1 else "parameter"
            raise ValueError(
                f"unknown {noun} {', '.join(map(repr, unknown))} for "
                f"{cls._spec_noun} kind {cls.kind!r}; "
                f"accepted fields: {accepted}"
            )
        return dict(params)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict payload: ``{'kind': ..., <field>: <value>, ...}``."""
        data: dict[str, Any] = {"kind": self.kind}
        for name in self.field_names():
            data[name] = getattr(self, name)
        return data

    @classmethod
    def from_dict(cls: type[_S], data: Mapping[str, Any]) -> _S:
        """Rebuild a spec from :meth:`to_dict` output.

        On a family's base class this dispatches through its registry
        by the payload's ``kind``; on a concrete class the payload's
        ``kind`` (when present) must match.
        """
        if cls.kind == "":
            return cast(_S, cls._registry_lookup(data))
        payload = dict(data)
        kind = payload.pop("kind", cls.kind)
        if kind != cls.kind:
            raise ValueError(
                f"payload kind {kind!r} does not match "
                f"{cls.__name__} (kind {cls.kind!r})"
            )
        return cls(**cls.check_params(payload))

    def replace(self: _S, **changes: Any) -> _S:
        """A copy with ``changes`` applied (unknown keys rejected)."""
        return dataclasses.replace(self, **self.check_params(changes))

    def fingerprint(self) -> str:
        """Content digest of this spec (stable across field ordering,
        dict orderings, and processes)."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(canonical_spec_json(self.to_dict()).encode())
        return digest.hexdigest()


@dataclass(frozen=True)
class EstimatorSpec(SpecRecord):
    """Base class for one estimator family's typed parameters.

    Subclasses are frozen dataclasses whose fields are the family's
    knobs (all with defaults, all JSON-serializable scalars), decorated
    with :func:`repro.api.register_estimator` to claim a ``kind`` name.
    They override :meth:`validate` for eager parameter checking and
    :meth:`build` for the actual construction.
    """

    _spec_noun: ClassVar[str] = "estimator"

    def build(
        self, workload: Any, backend: Any, engine: Any = None,
        **overrides: Any,
    ) -> Any:
        """Construct the live estimator for ``workload`` on ``backend``.

        ``engine`` is an :class:`~repro.engine.ExecutionEngine`,
        :class:`~repro.engine.EngineConfig`, or ``None`` (the backend's
        shared engine).  ``overrides`` are raw constructor keyword
        arguments layered over the spec's materialized parameters —
        the escape hatch for live objects (e.g. a ready
        :class:`~repro.mitigation.MatrixMitigator`) that have no JSON
        spelling.
        """
        raise NotImplementedError

    @classmethod
    def _registry_lookup(cls, data: Mapping[str, Any]) -> "EstimatorSpec":
        from .registry import spec_from_dict

        return spec_from_dict(data)
