"""The ``clifford`` backend: a stabilizer fast path for Clifford circuits.

Full-circuit executions whose gates are all Clifford (GHZ states,
characterization probes, stabilizer benchmarks) do not need dense
statevector evolution: :class:`CliffordBackend` dispatches them to
:func:`repro.clifford.stabilizer_probabilities` — O(n) tableau updates
per gate plus one support-solve, instead of O(2^n) complex arithmetic
per gate — and falls back to the dense engine for anything else
(parameterized ansatz circuits, rotation suffixes).  Dispatch is
automatic and per-circuit; the noise pipeline, sampling, and cost
ledger are exactly the dense backend's, so results differ from
``dense`` only by the absence of the statevector's floating-point dust
on the fast path.

The prepared-state path (``prepare_states`` + ``state_rows``)
stays dense: it starts from a cached statevector, which is already the
right representation for the non-Clifford ansatz circuits that use it.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..api.spec import check_bool, check_choice
from ..circuits import Circuit
from ..clifford import is_clifford_circuit, stabilizer_probabilities
from ..noise import DeviceModel, SimulatorBackend
from ..noise.backend import PlanFor
from .registry import register_backend
from .spec import BackendSpec

__all__ = ["CliffordBackend", "CliffordBackendSpec", "FALLBACK_MODES"]

#: What to do with a non-Clifford circuit: simulate it densely, or
#: refuse (useful when an experiment *asserts* it stays stabilizer).
FALLBACK_MODES = ("dense", "error")


class CliffordBackend(SimulatorBackend):
    """A :class:`~repro.noise.SimulatorBackend` with a stabilizer path.

    ``stabilizer_runs`` / ``dense_fallbacks`` count how full-circuit
    simulations dispatched, so experiments can verify the fast path
    actually fired.
    """

    backend_kind = "clifford"

    def __init__(
        self,
        device: DeviceModel | None = None,
        seed: int | None = None,
        fallback: str = "dense",
        readout_enabled: bool = True,
        gate_noise_enabled: bool = True,
    ):
        if fallback not in FALLBACK_MODES:
            raise ValueError(
                f"fallback must be one of {FALLBACK_MODES}; "
                f"got {fallback!r}"
            )
        super().__init__(
            device,
            seed=seed,
            readout_enabled=readout_enabled,
            gate_noise_enabled=gate_noise_enabled,
        )
        self.fallback = fallback
        self.stabilizer_runs = 0
        self.dense_fallbacks = 0
        # The counters must not lose increments if several threads
        # share this backend.
        self._dispatch_lock = threading.Lock()

    def circuit_probabilities_batch(
        self, circuits: Sequence[Circuit], plan_for: PlanFor
    ) -> list[np.ndarray]:
        """Stabilizer evaluation for Clifford circuits, dense otherwise.

        The non-Clifford rest runs through the dense hook (compiled-plan
        batches from ``plan_for``), bit-identical to the ``dense`` kind.
        """
        rows: list[np.ndarray] = [np.empty(0)] * len(circuits)
        dense: list[int] = []
        for i, circuit in enumerate(circuits):
            if is_clifford_circuit(circuit):
                with self._dispatch_lock:
                    self.stabilizer_runs += 1
                rows[i] = stabilizer_probabilities(circuit)
            elif self.fallback == "error":
                raise ValueError(
                    "circuit contains non-Clifford gates and the clifford "
                    "backend was created with fallback='error'"
                )
            else:
                dense.append(i)
        if dense:
            with self._dispatch_lock:
                self.dense_fallbacks += len(dense)
            fallback = super().circuit_probabilities_batch(
                [circuits[i] for i in dense], plan_for
            )
            for i, row in zip(dense, fallback):
                rows[i] = row
        return rows

    def __repr__(self) -> str:
        return (
            f"<CliffordBackend device={self.device.name!r} "
            f"stabilizer={self.stabilizer_runs} "
            f"fallbacks={self.dense_fallbacks}>"
        )


@register_backend("clifford")
@dataclass(frozen=True)
class CliffordBackendSpec(BackendSpec):
    """Stabilizer fast path with automatic dense fallback.

    Parameters
    ----------
    fallback:
        ``"dense"`` (default) silently simulates non-Clifford circuits
        with the statevector engine; ``"error"`` raises instead.
    readout / gate_noise:
        The shared noise kill-switches (see
        :class:`~repro.backends.DenseBackendSpec`).

    Example
    -------
    >>> from repro.backends import make_backend
    >>> backend = make_backend("clifford", seed=7)
    >>> backend.fallback
    'dense'
    """

    fallback: str = "dense"
    readout: bool = True
    gate_noise: bool = True

    def validate(self) -> None:
        """``fallback`` must be a known mode; switches must be bools."""
        check_choice("fallback", self.fallback, FALLBACK_MODES)
        check_bool("readout", self.readout)
        check_bool("gate_noise", self.gate_noise)

    def create(
        self,
        device: DeviceModel | None = None,
        seed: int | None = None,
    ) -> CliffordBackend:
        """Build the live :class:`CliffordBackend`."""
        return CliffordBackend(
            device,
            seed=seed,
            fallback=self.fallback,
            readout_enabled=self.readout,
            gate_noise_enabled=self.gate_noise,
        )
