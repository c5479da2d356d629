"""Calibration drift: time-varying noise over a logical clock.

The paper's temporal scheduling (and this repo's ``calibration_gated``
estimator) assume piecewise-static noise: a device is calibrated once
and its error rates hold for the whole tuning run.  Real hardware
drifts *within* a run — readout flip rates and gate fidelities wander
between re-calibrations — which is the exact scenario VarSaw's
re-calibration triggers exist for.

This module models that scenario deterministically:

* A :class:`DriftSchedule` is a typed, fingerprintable description of
  how noise evolves over **logical time**: the number of circuits the
  device has executed (the same quantity the cost ledger charges).
  Time is quantized into *epochs* of ``period`` circuits; noise is
  constant within an epoch, so the engine's PMF cache stays effective
  while rates still move over a tuning run.
* :class:`DriftingDeviceModel` wraps any static
  :class:`~repro.noise.device.DeviceModel` with a schedule and a clock.
  :class:`~repro.noise.backend.SimulatorBackend` advances the clock
  once per charged circuit, so the same spec always replays the same
  noise trajectory — bit for bit, across processes and executors.

Schedules are the third :class:`~repro.api.spec.SpecRecord` family,
next to estimator and backend specs: they register by kind in
:data:`SCHEDULES` (a :class:`~repro.api.spec.KindRegistry`), validate
eagerly, round-trip through dicts (``DriftSchedule.from_dict``,
:func:`schedule_from_dict`), support ``replace()``, and fingerprint
through the shared canonical-JSON encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..api.spec import KindRegistry, SpecRecord, check_int, check_number
from .device import DeviceModel
from .gate_noise import DepolarizingGateNoise
from .readout import QubitReadoutError, ReadoutErrorModel

__all__ = [
    "SCHEDULES",
    "SCHEDULE_KINDS",
    "DriftSchedule",
    "ConstantDrift",
    "StepDrift",
    "LinearDrift",
    "SineDrift",
    "RandomWalkDrift",
    "DriftingDeviceModel",
    "make_schedule",
    "schedule_from_dict",
]


@dataclass(frozen=True)
class DriftSchedule(SpecRecord):
    """Base class: a deterministic noise trajectory over logical time.

    Subclasses define :meth:`_shape` — a dimensionless displacement
    from the calibrated rates at a given epoch (0 means "exactly as
    calibrated") — or override :meth:`readout_factors` /
    :meth:`gate_factor` directly for per-qubit behavior.  Factors are
    *multiplicative* on the base device's ``p01``/``p10`` readout flip
    rates and depolarizing gate error rates, clamped to stay
    physical.
    """

    #: Circuits per epoch.  Noise is constant within an epoch: the
    #: engine's PMF cache stays warm between rate changes, and a whole
    #: batch submitted at one clock reading sees one noise state.
    period: int = 32

    def validate(self) -> None:
        """Eager validation (subclasses extend, then call super)."""
        check_int("period", self.period, minimum=1)

    # ------------------------------------------------------- trajectory

    def epoch(self, clock: int) -> int:
        """Epoch index at logical time ``clock`` (circuits executed)."""
        if clock < 0:
            raise ValueError("clock must be nonnegative")
        return int(clock) // self.period

    def _shape(self, epoch: int) -> float:
        """Dimensionless drift displacement at ``epoch``."""
        raise NotImplementedError

    def gate_factor(self, epoch: int) -> float:
        """Multiplicative factor on depolarizing error rates."""
        return max(0.0, 1.0 + self._shape(int(epoch)))

    def readout_factors(self, epoch: int, n_qubits: int) -> np.ndarray:
        """Per-qubit multiplicative factors on ``p01``/``p10``.

        The default drifts every qubit uniformly with
        :meth:`gate_factor`; :class:`RandomWalkDrift` overrides this
        with independent per-qubit walks.
        """
        return np.full(n_qubits, self.gate_factor(epoch))


#: The drift-schedule family's registry; the built-ins below list in
#: definition order.
SCHEDULES: KindRegistry[DriftSchedule] = KindRegistry(
    DriftSchedule, "drift schedule"
)

#: Registered schedule kinds (name -> class), in registration order.
SCHEDULE_KINDS = SCHEDULES.classes

schedule_from_dict = SCHEDULES.from_dict


@SCHEDULES.register("constant")
@dataclass(frozen=True)
class ConstantDrift(DriftSchedule):
    """No drift: factors are exactly 1.0 forever.

    Exists so the drifting code path can be exercised (and pinned
    byte-identical to the static path) without changing any noise.
    """

    def _shape(self, epoch: int) -> float:
        return 0.0


@SCHEDULES.register("step")
@dataclass(frozen=True)
class StepDrift(DriftSchedule):
    """A sudden re-calibration-worthy jump at epoch ``at``.

    Rates multiply by ``1 + magnitude`` from epoch ``at`` onward —
    the canonical "device fell out of calibration mid-run" event.
    """

    magnitude: float = 1.0
    at: int = 1

    def validate(self) -> None:
        """Check ``magnitude >= 0`` and a non-negative step epoch."""
        super().validate()
        check_number("magnitude", self.magnitude, minimum=0)
        check_int("at", self.at, minimum=0)

    def _shape(self, epoch: int) -> float:
        return self.magnitude if epoch >= self.at else 0.0


@SCHEDULES.register("linear")
@dataclass(frozen=True)
class LinearDrift(DriftSchedule):
    """A linear ramp reaching ``magnitude`` after ``ramp`` epochs."""

    magnitude: float = 1.0
    ramp: int = 8

    def validate(self) -> None:
        """Check ``magnitude >= 0`` and a ramp of at least one epoch."""
        super().validate()
        check_number("magnitude", self.magnitude, minimum=0)
        check_int("ramp", self.ramp, minimum=1)

    def _shape(self, epoch: int) -> float:
        return self.magnitude * min(1.0, epoch / self.ramp)


@SCHEDULES.register("sine")
@dataclass(frozen=True)
class SineDrift(DriftSchedule):
    """A sinusoidal oscillation with ``wavelength`` epochs per cycle.

    Models slow periodic environmental drift (e.g. thermal cycling);
    rates swing between ``1 - magnitude`` and ``1 + magnitude`` times
    calibrated (floored at 0 by the shared clamp).
    """

    magnitude: float = 0.5
    wavelength: int = 8

    def validate(self) -> None:
        """Check ``magnitude >= 0`` and a wavelength of at least one epoch."""
        super().validate()
        check_number("magnitude", self.magnitude, minimum=0)
        check_int("wavelength", self.wavelength, minimum=1)

    def _shape(self, epoch: int) -> float:
        phase = 2.0 * math.pi * epoch / self.wavelength
        return self.magnitude * math.sin(phase)


@SCHEDULES.register("random_walk")
@dataclass(frozen=True)
class RandomWalkDrift(DriftSchedule):
    """Seeded Gaussian random walks, independent per qubit.

    Each qubit's readout factor (and one extra walker for the gate
    rates) takes a ``Normal(0, step_std)`` step per epoch.  The walk is
    recomputed from the seed at every epoch change, so any clock state
    replays the identical trajectory — no hidden mutable RNG.
    """

    step_std: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        """Check ``step_std >= 0`` and a non-negative integer seed."""
        super().validate()
        check_number("step_std", self.step_std, minimum=0)
        check_int("seed", self.seed, minimum=0)

    def _displacements(self, epoch: int, walkers: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if epoch == 0:
            return np.zeros(walkers)
        steps = rng.normal(0.0, self.step_std, size=(int(epoch), walkers))
        return steps.sum(axis=0)

    def gate_factor(self, epoch: int) -> float:
        """The dedicated gate walker's factor at ``epoch``."""
        # The dedicated gate walker is the last column; drawing all
        # columns keeps qubit walks independent of the walker count.
        return float(
            np.maximum(0.0, 1.0 + self._displacements(epoch, 1)[-1])
        )

    def readout_factors(self, epoch: int, n_qubits: int) -> np.ndarray:
        """Each qubit's own walk factor at ``epoch``."""
        walk = self._displacements(epoch, n_qubits + 1)[:n_qubits]
        return np.maximum(0.0, 1.0 + walk)


def make_schedule(
    kind: str,
    magnitude: float = 1.0,
    period: int = 32,
    seed: int = 0,
) -> DriftSchedule:
    """Convenience constructor behind the CLI's ``--drift`` knobs.

    Maps the single ``magnitude`` knob onto each kind's natural
    parameter (``random_walk`` reads it as the per-epoch step
    standard deviation); shape parameters (step epoch, ramp length,
    wavelength) keep their defaults.  Unknown kinds raise with the
    registered choices.
    """
    params: dict[str, Any] = {"period": period}
    if kind == "random_walk":
        params.update(step_std=magnitude, seed=seed)
    elif kind != "constant":
        params["magnitude"] = magnitude
    return SCHEDULES.make(kind, **params)


class DriftingDeviceModel(DeviceModel):
    """A device whose noise follows a :class:`DriftSchedule`.

    Wraps a static base device; ``readout`` / ``gate_noise`` become
    *views* that rebuild themselves whenever the logical clock crosses
    an epoch boundary.  The clock counts charged circuit executions:
    :meth:`~repro.noise.backend.SimulatorBackend.charge` calls
    :meth:`advance_clock` once per circuit, making the trajectory a
    pure function of the execution history (deterministic across
    processes, executors, and engine batching — the engine charges in
    submission order after all PMFs of a batch are computed).

    When a schedule's factors are exactly 1.0 everywhere (e.g.
    :class:`ConstantDrift`, or any schedule at epoch 0), the *base*
    noise objects are returned unchanged, so the zero-drift path is
    byte-identical to the static device.
    """

    def __init__(
        self,
        base: DeviceModel,
        schedule: DriftSchedule,
        clock: int = 0,
    ):
        if isinstance(base, DriftingDeviceModel):
            raise TypeError("cannot stack drift on a drifting device")
        if not isinstance(schedule, DriftSchedule):
            raise TypeError(
                f"schedule must be a DriftSchedule; "
                f"got {type(schedule).__name__}"
            )
        if not isinstance(clock, int) or clock < 0:
            raise ValueError(f"clock must be a nonnegative int; got {clock!r}")
        # Deliberately no super().__init__: readout/gate_noise are
        # epoch-dependent properties here, not static attributes.
        self.base = base
        self.schedule = schedule
        self.topology = base.topology
        self._clock = clock
        self._epoch: int | None = None
        self._readout = base.readout
        self._gate_noise = base.gate_noise
        self._refresh()

    # ------------------------------------------------------------ clock

    @property
    def clock(self) -> int:
        """Logical time: circuits charged against this device so far."""
        return self._clock

    def advance_clock(self, circuits: int = 1) -> None:
        """Advance logical time by ``circuits`` executed circuits."""
        if circuits < 0:
            raise ValueError("cannot advance the clock backwards")
        self._clock += int(circuits)

    @property
    def epoch(self) -> int:
        """The schedule epoch the current clock falls in."""
        return self.schedule.epoch(self._clock)

    # ------------------------------------------------------- noise views

    def _refresh(self) -> None:
        """Rebuild the noise views if the clock crossed an epoch."""
        epoch = self.schedule.epoch(self._clock)
        if epoch == self._epoch:
            return
        self._epoch = epoch
        base_readout = self.base.readout
        factors = np.asarray(
            self.schedule.readout_factors(epoch, base_readout.n_qubits),
            dtype=float,
        )
        if np.all(factors == 1.0):
            self._readout = base_readout
        else:
            # Flip probabilities cap at 0.5: beyond that a "readout"
            # is anticorrelated with the state, which no drift models.
            self._readout = ReadoutErrorModel(
                [
                    QubitReadoutError(
                        min(0.5, float(err.p01 * factor)),
                        min(0.5, float(err.p10 * factor)),
                    )
                    for err, factor in zip(
                        base_readout.qubit_errors, factors
                    )
                ],
                crosstalk_strength=base_readout.crosstalk_strength,
                scale=base_readout.scale,
            )
        gate_factor = float(self.schedule.gate_factor(epoch))
        base_gate = self.base.gate_noise
        if gate_factor == 1.0:
            self._gate_noise = base_gate
        else:
            self._gate_noise = DepolarizingGateNoise(
                min(1.0, base_gate.error_1q * gate_factor),
                min(1.0, base_gate.error_2q * gate_factor),
                scale=base_gate.scale,
            )

    # These three read-only views replace attributes a static
    # DeviceModel sets in __init__, which mypy reports as an override.
    @property
    def name(self) -> str:  # type: ignore[override]
        """Base device name tagged with the schedule kind."""
        return f"{self.base.name}+drift:{self.schedule.kind}"

    @property
    def readout(self) -> ReadoutErrorModel:  # type: ignore[override]
        """The readout error model at the current epoch."""
        self._refresh()
        return self._readout

    @property
    def gate_noise(  # type: ignore[override]
        self,
    ) -> DepolarizingGateNoise:
        """The gate noise channel at the current epoch."""
        self._refresh()
        return self._gate_noise

    # ----------------------------------------------------- device hooks

    def with_noise_scale(self, scale: float) -> "DriftingDeviceModel":
        """Scale the *base* calibration; the schedule rides on top."""
        return DriftingDeviceModel(
            self.base.with_noise_scale(scale),
            self.schedule,
            clock=self._clock,
        )

    def drift_state_fingerprint(self) -> str:
        """Schedule + epoch digest folded into engine cache keys.

        Two sessions at different clock states must never share a
        cached PMF even if their rates momentarily coincide, so the
        epoch index is part of the key —
        :func:`repro.engine.spec.device_fingerprint` appends this.
        """
        return f"{self.schedule.fingerprint()}:{self.epoch}"

    def __repr__(self) -> str:
        return (
            f"<DriftingDeviceModel {self.base.name!r} "
            f"schedule={self.schedule.kind!r} clock={self._clock} "
            f"epoch={self.epoch}>"
        )
