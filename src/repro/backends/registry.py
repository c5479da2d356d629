"""The backend registry: ``kind`` name -> :class:`BackendSpec` class.

Execution backends self-register by decorating their spec dataclass::

    from repro.backends import BackendSpec, register_backend

    @register_backend("my_backend")
    @dataclass(frozen=True)
    class MyBackendSpec(BackendSpec):
        knob: int = 1

        def create(self, device=None, seed=None):
            return MyBackend(device, seed=seed, knob=self.knob)

:data:`BACKENDS` is an instance of the same
:class:`~repro.api.spec.KindRegistry` as the estimator registry
(:data:`repro.api.registry.ESTIMATORS`); the public functions below are
its bound methods, plus :func:`resolve_backend_spec` and
:func:`make_backend` built on top.  The built-in kinds (``dense``,
``clifford``, ``density``) live next to their backend classes in this
package and ``remote`` in :mod:`repro.dist`; the registry imports
those modules on its first lookup, so it is complete however
:mod:`repro.backends` is reached.  Out-of-tree backends register the
same way — importing the defining module makes the kind addressable by
name everywhere (:class:`~repro.api.Session`, sweep Points, the CLI's
``--backend`` flag and ``repro backends`` listing).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

from ..api.spec import KindRegistry
from .spec import BackendSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..noise import DeviceModel, SimulatorBackend

__all__ = [
    "BACKENDS",
    "backend_class",
    "backend_kinds",
    "backend_spec_from_dict",
    "make_backend",
    "make_backend_spec",
    "register_backend",
    "resolve_backend_spec",
]

#: The execution-backend family's registry.
BACKENDS: KindRegistry[BackendSpec] = KindRegistry(
    BackendSpec,
    "backend",
    builtin=("dense", "clifford", "density", "remote"),
    modules=(
        "repro.backends.dense",
        "repro.backends.clifford",
        "repro.backends.density",
        "repro.dist.remote",
    ),
)

register_backend = BACKENDS.register
backend_kinds = BACKENDS.kinds
backend_class = BACKENDS.get
make_backend_spec = BACKENDS.make
backend_spec_from_dict = BACKENDS.from_dict


def resolve_backend_spec(
    spec: BackendSpec | str | Mapping[str, Any] | None,
) -> BackendSpec:
    """Coerce any backend-spec spelling into a validated spec.

    ``spec`` may be a ready :class:`BackendSpec`, a registered kind
    name, a payload dict with a ``'kind'`` key, or ``None`` — which
    resolves to the default ``dense`` backend (the pre-registry
    :class:`~repro.noise.SimulatorBackend`, bit for bit).
    """
    if spec is None:
        return make_backend_spec("dense")
    if isinstance(spec, BackendSpec):
        return spec
    if isinstance(spec, str):
        return make_backend_spec(spec)
    if isinstance(spec, Mapping):
        return backend_spec_from_dict(spec)
    raise TypeError(
        f"backend must be a BackendSpec, a kind name, a payload dict, "
        f"or None; got {type(spec).__name__}"
    )


def make_backend(
    spec: BackendSpec | str | Mapping[str, Any] | None = None,
    device: "DeviceModel | None" = None,
    seed: int | None = None,
) -> "SimulatorBackend":
    """Create a live execution backend from any spec spelling.

    The one construction path behind :class:`~repro.api.Session`'s
    ``backend=`` argument, sweep points' ``backend`` field, and the
    CLI's ``--backend`` flag.  ``spec=None`` builds the default
    ``dense`` backend — bit-identical to constructing
    ``SimulatorBackend(device, seed=seed)`` directly.
    """
    return resolve_backend_spec(spec).create(device, seed=seed)
