"""Typed specifications: the data half of :mod:`repro.api`.

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
  from (workload, backend, engine) to a live estimator: it hands the
  spec itself to the kind's estimator class, which reads every knob
  from it.  Every layer of the repository (CLI, sweeps, serve,
  analysis, benchmarks) goes through it, usually via
  :meth:`repro.api.Session.estimator`.

Concrete spec classes live next to their estimator families (e.g.
:class:`repro.core.varsaw.VarSawSpec`) and self-register with
:func:`repro.api.register_estimator`.

The contract itself is family-neutral: :class:`SpecRecord` is the base
of all three spec families (estimators, execution backends in
:mod:`repro.backends`, drift schedules in :mod:`repro.noise.drift`),
and one :class:`KindRegistry` per family maps kind names to classes.
:func:`canonical_spec_json` is the one canonical-JSON encoder behind
every content fingerprint in the repository, sweep points and serve
jobs included.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any, ClassVar, Generic, TypeVar, cast

_S = TypeVar("_S", bound="SpecRecord")

__all__ = [
    "EstimatorSpec",
    "KindRegistry",
    "SpecRecord",
    "canonical_spec_json",
    "check_bool",
    "check_choice",
    "check_fraction",
    "check_int",
    "check_number",
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
        f"fingerprinted fields must be JSON-serializable "
        f"scalars/lists/dicts; got {type(value).__name__}"
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


def check_number(
    name: str, value: Any, minimum: float | None = None
) -> None:
    """``value`` must be a finite non-bool real, optionally ``>= minimum``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        raise ValueError(f"{name} must be a finite number; got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}; got {value!r}")


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


@dataclass(frozen=True)
class SpecRecord:
    """Shared machinery for registry-addressable frozen spec records.

    All three spec families in the repository — estimator specs
    (:class:`EstimatorSpec`, below), execution-backend specs
    (:class:`repro.backends.BackendSpec`) and drift schedules
    (:class:`repro.noise.DriftSchedule`) — are frozen dataclasses of
    plain JSON values that claim a ``kind`` name in their family's
    :class:`KindRegistry`, validate eagerly, round-trip through dicts,
    and carry stable content fingerprints.  This base owns exactly that
    shared contract; each family adds its own behavior (``build``,
    ``create``, or a noise trajectory).
    """

    #: Registry name; assigned by the family's ``register`` decorator.
    kind: ClassVar[str] = ""

    #: The family's registry; a :class:`KindRegistry` binds itself to
    #: its family's base class on construction.
    registry: ClassVar[KindRegistry[Any]]

    def __post_init__(self) -> None:
        self.validate()

    # --------------------------------------------------------- contract

    def validate(self) -> None:
        """Raise ``ValueError`` for out-of-range parameters (eagerly)."""

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
                f"{cls.registry.noun} kind {cls.kind!r}; "
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
            return cast(_S, cls.registry.from_dict(data))
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


class KindRegistry(Generic[_S]):
    """One spec family's registry: ``kind`` name -> concrete class.

    Constructing a registry binds it to the family's ``base`` class as
    ``base.registry``, so ``base.from_dict`` dispatches through it and
    unknown-parameter errors name the family (``noun``).  ``modules``
    host the built-in registrations and are imported on the first
    lookup, so the registry is complete however the family was
    reached; ``builtin`` is the built-ins' canonical listing order.
    Out-of-tree kinds register with :meth:`register` and list after
    the built-ins, in registration order.
    """

    def __init__(
        self,
        base: type[_S],
        noun: str,
        builtin: tuple[str, ...] = (),
        modules: tuple[str, ...] = (),
    ) -> None:
        self.base = base
        self.noun = noun
        self.builtin = builtin
        self._unimported = modules
        #: kind name -> registered class, in registration order.
        self.classes: dict[str, type[_S]] = {}
        base.registry = self

    def register(self, kind: str) -> Callable[[type[_S]], type[_S]]:
        """Class decorator claiming ``kind`` for a subclass of the base.

        Sets ``cls.kind = kind`` and makes the kind addressable by name
        everywhere the family is (the CLI, sweep Points,
        :class:`~repro.api.Session`).  Re-registering a kind to a
        *different* class raises; re-decorating the same class (e.g.
        on module reload) is a no-op.
        """
        if not kind or not isinstance(kind, str):
            raise ValueError(f"{self.noun} kind must be a non-empty string")

        def wrap(cls: type[_S]) -> type[_S]:
            if not (isinstance(cls, type) and issubclass(cls, self.base)):
                raise TypeError(
                    f"cannot register {cls!r} as {self.noun} kind "
                    f"{kind!r}: only {self.base.__name__} subclasses "
                    f"can be registered"
                )
            existing = self.classes.get(kind)
            if existing is not None and existing is not cls:
                raise ValueError(
                    f"{self.noun} kind {kind!r} is already registered "
                    f"to {existing.__qualname__}"
                )
            cls.kind = kind
            self.classes[kind] = cls
            return cls

        return wrap

    def _import_builtins(self) -> None:
        # Once every module is in sys.modules, importing it again is a
        # no-op, so only the first lookup pays for the loop.
        if self._unimported:
            for module in self._unimported:
                importlib.import_module(module)
            self._unimported = ()

    def kinds(self) -> tuple[str, ...]:
        """Every registered kind, built-ins first in canonical order."""
        self._import_builtins()
        builtin = [kind for kind in self.builtin if kind in self.classes]
        rest = [kind for kind in self.classes if kind not in self.builtin]
        return tuple(builtin + rest)

    def get(self, kind: str) -> type[_S]:
        """The class registered under ``kind`` (``ValueError`` if none)."""
        self._import_builtins()
        cls = self.classes.get(kind)
        if cls is None:
            raise ValueError(
                f"unknown {self.noun} kind {kind!r}; "
                f"choose from {', '.join(self.kinds())}"
            )
        return cls

    def split(
        self, data: Mapping[str, Any]
    ) -> tuple[type[_S], dict[str, Any]]:
        """The class a payload's ``kind`` names, and its other fields."""
        payload = dict(data)
        kind = payload.pop("kind", None)
        if not isinstance(kind, str) or not kind:
            raise ValueError(
                f"{self.noun} payload needs a 'kind' naming a registered "
                f"{self.noun}; got {dict(data)!r}"
            )
        return self.get(kind), payload

    def make(self, kind: str, **params: Any) -> _S:
        """Build ``kind``'s validated spec from keyword parameters.

        Unknown or misspelled parameters raise a ``ValueError`` naming
        the offending key and the kind's accepted fields; out-of-range
        values raise from the spec's eager ``validate``.
        """
        cls = self.get(kind)
        return cls(**cls.check_params(params))

    def from_dict(self, data: Mapping[str, Any]) -> _S:
        """Rebuild a spec from a plain-dict payload carrying a ``kind``."""
        cls, payload = self.split(data)
        return cls(**cls.check_params(payload))


@dataclass(frozen=True)
class EstimatorSpec(SpecRecord):
    """Base class for one estimator family's typed parameters.

    Subclasses are frozen dataclasses whose fields are the family's
    knobs (all with defaults, all JSON-serializable scalars), decorated
    with :func:`repro.api.register_estimator` to claim a ``kind`` name
    in :data:`repro.api.registry.ESTIMATORS`.  They override
    :meth:`validate` for eager parameter checking and name the live
    estimator class they describe in :attr:`estimator_class`.  The
    spec is the only place a knob is declared, defaulted and checked:
    the estimator reads its knobs from the spec it is given.
    """

    #: The live estimator class; its constructor takes
    #: ``(hamiltonian, ansatz, backend, spec, engine)``.
    estimator_class: ClassVar[Callable[..., Any]]

    def build(
        self, workload: Any, backend: Any, engine: Any = None
    ) -> Any:
        """Construct the live estimator for ``workload`` on ``backend``.

        ``engine`` is an :class:`~repro.engine.ExecutionEngine`,
        :class:`~repro.engine.EngineConfig`, or ``None`` (the backend's
        shared engine).
        """
        return self.estimator_class(
            workload.hamiltonian, workload.ansatz, backend, self, engine
        )
