"""Hand-built noise channels, run through the library's noise finisher.

Tests of one noise channel build a device from their own readout
errors or gate-noise rates, give the other noise source zero rates
(the device is the backend's only noise input), and push ideal
probability rows through
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
    ideal_device,
)
from repro.sim import PMF


def without_readout_error(device: DeviceModel) -> DeviceModel:
    """``device`` with zero readout rates, so gate noise is its only noise."""
    return DeviceModel(
        f"{device.name}-no-readout",
        ideal_device(device.n_qubits).readout,
        device.gate_noise,
        device.topology,
    )


def without_gate_noise(device: DeviceModel) -> DeviceModel:
    """``device`` with zero gate-noise rates, so readout is its only noise."""
    return DeviceModel(
        f"{device.name}-no-gate-noise",
        device.readout,
        DepolarizingGateNoise(0.0, 0.0),
        device.topology,
    )


def readout_backend(
    errors, crosstalk_strength: float = 0.0, scale: float = 1.0
) -> SimulatorBackend:
    """A backend whose only noise is the readout channel of ``errors``."""
    readout = ReadoutErrorModel(errors, crosstalk_strength, scale)
    device = DeviceModel(
        "readout-only", readout, DepolarizingGateNoise(0.0, 0.0)
    )
    return SimulatorBackend(device)


def gate_noise_backend(
    n_qubits: int, gate_noise: DepolarizingGateNoise
) -> SimulatorBackend:
    """A backend whose only noise is the depolarizing mix of ``gate_noise``."""
    readout = ReadoutErrorModel([QubitReadoutError(0.0, 0.0)] * n_qubits)
    device = DeviceModel("gate-noise-only", readout, gate_noise)
    return SimulatorBackend(device)


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
