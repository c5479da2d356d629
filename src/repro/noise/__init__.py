"""Device noise models and the noisy execution backend."""

from .backend import SimulatorBackend
from .characterization import (
    CharacterizationReport,
    QubitCharacterization,
    characterize_readout,
)
from .device import (
    DEVICE_PRESETS,
    DeviceModel,
    ibm_jakarta_like,
    ibm_lagos_like,
    ibmq_mumbai_like,
    ideal_device,
)
from .drift import (
    SCHEDULE_KINDS,
    SCHEDULES,
    ConstantDrift,
    DriftingDeviceModel,
    DriftSchedule,
    LinearDrift,
    RandomWalkDrift,
    SineDrift,
    StepDrift,
    make_schedule,
    schedule_from_dict,
)
from .gate_noise import DepolarizingGateNoise
from .readout import QubitReadoutError, ReadoutErrorModel

__all__ = [
    "SimulatorBackend",
    "DeviceModel",
    "DEVICE_PRESETS",
    "ibmq_mumbai_like",
    "ibm_lagos_like",
    "ibm_jakarta_like",
    "ideal_device",
    "DepolarizingGateNoise",
    "QubitReadoutError",
    "ReadoutErrorModel",
    "DriftSchedule",
    "ConstantDrift",
    "StepDrift",
    "LinearDrift",
    "SineDrift",
    "RandomWalkDrift",
    "DriftingDeviceModel",
    "SCHEDULES",
    "SCHEDULE_KINDS",
    "make_schedule",
    "schedule_from_dict",
    "CharacterizationReport",
    "QubitCharacterization",
    "characterize_readout",
]
