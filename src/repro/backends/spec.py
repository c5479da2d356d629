"""Typed execution-backend specifications.

A :class:`BackendSpec` is the declarative description of one execution
backend — which simulation strategy turns circuits into noisy outcome
distributions, and how its knobs are set — as a frozen dataclass of
plain JSON values.  It is a :class:`repro.api.spec.SpecRecord`, the
base :class:`repro.api.EstimatorSpec` shares, so it:

* **validates eagerly** — a bad field fails at spec build time with
  the offending key and the kind's accepted fields;
* **serializes** — :meth:`BackendSpec.to_dict` /
  :meth:`BackendSpec.from_dict` round-trip through plain dicts, so a
  backend choice can live in a sweep
  :class:`~repro.sweeps.spec.Point`, a JSON grid file, or a results
  store;
* carries a **stable fingerprint** — a blake2b digest of the canonical
  JSON encoding;
* **creates** — :meth:`BackendSpec.create` is the one construction
  path from (device, seed) to a live backend; every layer
  (:class:`~repro.api.Session`, sweep points, the CLI's ``--backend``)
  goes through it.

Concrete spec classes live next to their backend classes in
:mod:`repro.backends` and self-register with
:func:`repro.backends.register_backend` in
:data:`repro.backends.registry.BACKENDS`, an instance of the same
:class:`~repro.api.spec.KindRegistry` the estimator registry uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..api.spec import SpecRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..noise import DeviceModel, SimulatorBackend

__all__ = ["BackendSpec"]


@dataclass(frozen=True)
class BackendSpec(SpecRecord):
    """Base class for one execution-backend kind's typed parameters.

    Subclasses are frozen dataclasses whose fields are the backend's
    knobs (all with defaults, all JSON-serializable scalars), decorated
    with :func:`repro.backends.register_backend` to claim a ``kind``
    name.  They override :meth:`validate` for eager parameter checking
    and :meth:`create` for the actual construction.
    """

    def create(
        self,
        device: "DeviceModel | None" = None,
        seed: int | None = None,
    ) -> "SimulatorBackend":
        """Construct the live backend over ``device`` with ``seed``.

        ``device=None`` means the ideal (noise-free) device, exactly as
        :class:`~repro.noise.SimulatorBackend` interprets it; ``seed``
        seeds the backend's sampling RNG (the per-trial determinism
        discipline).
        """
        raise NotImplementedError
