"""The estimator registry: ``kind`` name -> :class:`EstimatorSpec` class.

Estimator families self-register by decorating their spec dataclass::

    from repro.api import EstimatorSpec, register_estimator

    @register_estimator("my_estimator")
    @dataclass(frozen=True)
    class MySpec(EstimatorSpec):
        shots: int = 1024

        estimator_class = MyEstimator  # MyEstimator(h, ansatz, backend,
                                       #             spec, engine)

:data:`ESTIMATORS` is the family's
:class:`~repro.api.spec.KindRegistry`, the same implementation behind
the backend and drift-schedule registries; the public functions below
are its bound methods.  The built-in kinds live next to their
estimator classes (in :mod:`repro.vqe`, :mod:`repro.core`, and
:mod:`repro.mitigation`); the registry imports those modules on its
first lookup, so it is complete however :mod:`repro.api` is reached.
Out-of-tree estimators register the same way — importing the defining
module is enough to make the kind addressable by name everywhere (CLI,
sweep Points, :class:`~repro.api.Session`).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from .spec import EstimatorSpec, KindRegistry

__all__ = [
    "ESTIMATORS",
    "description_spec",
    "estimator_kinds",
    "make_spec",
    "register_estimator",
    "resolve_spec",
    "spec_class",
    "spec_from_dict",
]

#: The estimator family's registry.  Built-ins list in canonical
#: order — the six legacy string kinds first (so CLI help and docs read
#: as they always did), then the families the registry newly exposes.
ESTIMATORS: KindRegistry[EstimatorSpec] = KindRegistry(
    EstimatorSpec,
    "estimator",
    builtin=(
        "ideal",
        "baseline",
        "jigsaw",
        "varsaw",
        "varsaw_no_sparsity",
        "varsaw_max_sparsity",
        "gc",
        "selective",
        "calibration_gated",
        "drift_adaptive",
    ),
    modules=(
        "repro.vqe.estimator",
        "repro.vqe.gc_estimator",
        "repro.mitigation.jigsaw",
        "repro.core.varsaw",
        "repro.core.selective",
        "repro.core.recalibrate",
    ),
)

register_estimator = ESTIMATORS.register
estimator_kinds = ESTIMATORS.kinds
spec_class = ESTIMATORS.get
make_spec = ESTIMATORS.make
spec_from_dict = ESTIMATORS.from_dict


def resolve_spec(
    spec: EstimatorSpec | str | Mapping[str, Any],
    *,
    soft: Mapping[str, Any] | None = None,
    **params: Any,
) -> EstimatorSpec:
    """Coerce any spec spelling into a validated :class:`EstimatorSpec`.

    ``spec`` may be a ready spec (optionally updated with ``params``),
    a kind name (``params`` become the spec's fields), or a plain-dict
    payload with a ``'kind'`` key (``params`` layered on top).

    ``soft`` maps field names to *default* values, mirroring the
    legacy factory's named arguments: each is applied only when the
    kind accepts the field, the value is not ``None``, and neither the
    payload nor ``params`` pin it.  A ready :class:`EstimatorSpec` is
    a complete description — soft defaults never alter it.
    """
    if isinstance(spec, EstimatorSpec):
        changes = spec.check_params(params)
        return spec.replace(**changes) if changes else spec
    if isinstance(spec, str):
        cls, payload = spec_class(spec), dict(params)
    elif isinstance(spec, Mapping):
        cls, payload = ESTIMATORS.split(spec)
        payload.update(params)
    else:
        raise TypeError(
            f"spec must be an EstimatorSpec, a kind name, or a payload "
            f"dict; got {type(spec).__name__}"
        )
    for name, value in (soft or {}).items():
        if value is not None and name in cls.field_names():
            payload.setdefault(name, value)
    return cls(**cls.check_params(payload))


def description_spec(
    scheme: str, payload: Mapping[str, Any], shots: int
) -> EstimatorSpec:
    """The spec a run description's ``scheme``/``estimator``/``shots`` name.

    The one payload rule of sweep points (:class:`~repro.sweeps.Point`)
    and serve jobs (:class:`~repro.serve.JobSpec`): the ``estimator``
    payload's ``kind`` overrides ``scheme``, and its ``shots``
    overrides the description's ``shots`` (a soft default, so a kind
    without a ``shots`` field ignores it).
    """
    payload = dict(payload)
    payload["kind"] = payload.get("kind") or scheme
    return resolve_spec(payload, soft={"shots": shots})
