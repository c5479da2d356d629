"""Hand-built noise channels, run through the library's noise finisher.

Tests of one noise channel build a device from their own readout
errors or gate-noise rates, switch the other noise source off, and
push ideal probability rows through
:meth:`~repro.noise.SimulatorBackend.exact_pmfs_from_probs_batch` —
the one noise pipeline the library runs.
"""

from __future__ import annotations

import numpy as np

from repro.noise import (
    DepolarizingGateNoise,
    DeviceModel,
    QubitReadoutError,
    ReadoutErrorModel,
    SimulatorBackend,
)
from repro.sim import PMF


def readout_backend(
    errors, crosstalk_strength: float = 0.0, scale: float = 1.0
) -> SimulatorBackend:
    """A backend whose only noise is the readout channel of ``errors``."""
    readout = ReadoutErrorModel(errors, crosstalk_strength, scale)
    device = DeviceModel("readout-only", readout, DepolarizingGateNoise())
    return SimulatorBackend(device, gate_noise_enabled=False)


def gate_noise_backend(
    n_qubits: int, gate_noise: DepolarizingGateNoise
) -> SimulatorBackend:
    """A backend whose only noise is the depolarizing mix of ``gate_noise``."""
    readout = ReadoutErrorModel([QubitReadoutError(0.0, 0.0)] * n_qubits)
    device = DeviceModel("gate-noise-only", readout, gate_noise)
    return SimulatorBackend(device, readout_enabled=False)


def finish(backend, probs, measured=None, gate_load=(0, 0)) -> PMF:
    """The finished PMF of one ideal probability row.

    ``measured`` defaults to every qubit of the row's register, and each
    measured qubit reads out through the device line of the same index.
    """
    probs = np.asarray(probs, dtype=float)
    n = int(np.log2(len(probs)))
    measured = tuple(range(n)) if measured is None else tuple(measured)
    (pmf,) = backend.exact_pmfs_from_probs_batch(
        [(probs, n, measured, False, gate_load)]
    )
    return pmf
