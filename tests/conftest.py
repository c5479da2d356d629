"""Shared fixtures for the VarSaw reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

# A failing paper claim reports its operands, as test asserts do; the
# catalog must be registered before anything imports ``repro``.
pytest.register_assert_rewrite("repro.sweeps.catalog")

from repro.ansatz import EfficientSU2
from repro.hamiltonian import Hamiltonian, build_hamiltonian
from repro.noise import (
    DepolarizingGateNoise,
    DeviceModel,
    QubitReadoutError,
    ReadoutErrorModel,
    SimulatorBackend,
    ibmq_mumbai_like,
)
from repro.pauli import PauliString

#: The worked example from Fig. 6 of the paper: a 4-qubit Hamiltonian with
#: 10 Pauli terms whose commutation structure the paper traces end to end.
FIG6_TERMS = [
    "ZZIZ", "ZIZX", "ZZII", "IIZX", "ZXXZ",
    "XZIZ", "ZXIZ", "IXZZ", "XIZZ", "XXIX",
]


@pytest.fixture
def fig6_paulis() -> list[PauliString]:
    return [PauliString(label) for label in FIG6_TERMS]


@pytest.fixture
def fig6_hamiltonian() -> Hamiltonian:
    return Hamiltonian(
        [(0.1 * (i + 1), label) for i, label in enumerate(FIG6_TERMS)],
        name="fig6",
    )


@pytest.fixture
def h2() -> Hamiltonian:
    return build_hamiltonian("H2-4")


@pytest.fixture
def h2_ansatz() -> EfficientSU2:
    return EfficientSU2(4, reps=1, entanglement="linear")


@pytest.fixture
def ideal_backend() -> SimulatorBackend:
    return SimulatorBackend(seed=11)


@pytest.fixture
def noisy_backend() -> SimulatorBackend:
    return SimulatorBackend(ibmq_mumbai_like(), seed=11)


@pytest.fixture
def tiny_device() -> DeviceModel:
    """A 4-qubit device with hand-picked, very unequal readout errors."""
    readout = ReadoutErrorModel(
        [
            QubitReadoutError(0.01, 0.02),
            QubitReadoutError(0.08, 0.12),
            QubitReadoutError(0.002, 0.004),
            QubitReadoutError(0.05, 0.06),
        ],
        crosstalk_strength=0.1,
    )
    return DeviceModel(
        "tiny", readout, DepolarizingGateNoise(error_1q=0.0, error_2q=0.0)
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
