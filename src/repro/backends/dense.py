"""The ``dense`` backend: the library's default statevector simulator.

This is :class:`repro.noise.SimulatorBackend` — dense statevector
evolution, the global-depolarizing gate-noise approximation, exact
readout-error channels, multinomial shot sampling — moved behind the
:mod:`repro.backends` registry interface.  ``DenseBackendSpec.create``
constructs the very same class with the very same arguments the
pre-registry code paths used, so selecting ``backend="dense"`` (or not
selecting a backend at all) is bit-identical to the historical
behavior: same PMFs, same sampled counts, same circuit/shot ledgers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..noise import DeviceModel, SimulatorBackend
from .registry import register_backend
from .spec import BackendSpec

__all__ = ["DenseBackendSpec"]


@register_backend("dense")
@dataclass(frozen=True)
class DenseBackendSpec(BackendSpec):
    """Dense statevector simulation (the default execution backend).

    It has no knobs: the device is its only noise input, so an
    experiment that isolates measurement error from gate error builds a
    device whose other noise source has zero rates.

    Example
    -------
    >>> from repro.backends import make_backend
    >>> backend = make_backend("dense", seed=7)
    >>> backend.backend_kind
    'dense'
    """

    def create(
        self,
        device: DeviceModel | None = None,
        seed: int | None = None,
    ) -> SimulatorBackend:
        """The historical ``SimulatorBackend`` construction, verbatim."""
        return SimulatorBackend(device, seed=seed)
