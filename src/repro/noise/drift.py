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

Schedules deliberately know nothing about the rest of the repo (this
module must stay importable from :mod:`repro.noise` without touching
:mod:`repro.api`), so the canonical-JSON fingerprint helpers are local.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Any, ClassVar, Mapping

import numpy as np

from .device import DeviceModel
from .gate_noise import DepolarizingGateNoise
from .readout import QubitReadoutError, ReadoutErrorModel

__all__ = [
    "DRIFT_SCHEMA_VERSION",
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

#: Bumped whenever a schedule field changes meaning; part of every
#: fingerprint, so cache keys never silently mix incompatible schemas.
DRIFT_SCHEMA_VERSION = 1

#: Registered schedule kinds (name -> dataclass), in definition order.
SCHEDULE_KINDS: dict[str, type["DriftSchedule"]] = {}


def _canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, exact floats."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _register_schedule(cls):
    """Class decorator: register a schedule under its ``kind``."""
    if not cls.kind or cls.kind in SCHEDULE_KINDS:
        raise ValueError(f"bad or duplicate schedule kind {cls.kind!r}")
    SCHEDULE_KINDS[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class DriftSchedule:
    """Base class: a deterministic noise trajectory over logical time.

    Subclasses define :meth:`_shape` — a dimensionless displacement
    from the calibrated rates at a given epoch (0 means "exactly as
    calibrated") — or override :meth:`readout_factors` /
    :meth:`gate_factor` directly for per-qubit behavior.  Factors are
    *multiplicative* on the base device's ``p01``/``p10`` readout flip
    rates and depolarizing gate error rates, clamped to stay
    physical.
    """

    kind: ClassVar[str] = ""

    #: Circuits per epoch.  Noise is constant within an epoch: the
    #: engine's PMF cache stays warm between rate changes, and a whole
    #: batch submitted at one clock reading sees one noise state.
    period: int = 32

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Eager validation (subclasses extend, then call super)."""
        if (
            not isinstance(self.period, int)
            or isinstance(self.period, bool)
            or self.period < 1
        ):
            raise ValueError(
                f"period must be a positive integer; got {self.period!r}"
            )

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

    # ---------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """JSON form of the schedule, carrying its ``kind``."""
        data = asdict(self)
        data["kind"] = self.kind
        return data

    def fingerprint(self) -> str:
        """Content digest, stable across processes and dict orderings."""
        payload = {"v": DRIFT_SCHEMA_VERSION, "schedule": self.to_dict()}
        h = hashlib.blake2b(digest_size=16)
        h.update(_canonical_json(payload).encode())
        return h.hexdigest()


@_register_schedule
@dataclass(frozen=True)
class ConstantDrift(DriftSchedule):
    """No drift: factors are exactly 1.0 forever.

    Exists so the drifting code path can be exercised (and pinned
    byte-identical to the static path) without changing any noise.
    """

    kind: ClassVar[str] = "constant"

    def _shape(self, epoch: int) -> float:
        return 0.0


@_register_schedule
@dataclass(frozen=True)
class StepDrift(DriftSchedule):
    """A sudden re-calibration-worthy jump at epoch ``at``.

    Rates multiply by ``1 + magnitude`` from epoch ``at`` onward —
    the canonical "device fell out of calibration mid-run" event.
    """

    kind: ClassVar[str] = "step"

    magnitude: float = 1.0
    at: int = 1

    def validate(self) -> None:
        super().validate()
        _check_magnitude(self.magnitude)
        if not isinstance(self.at, int) or self.at < 0:
            raise ValueError(f"at must be a nonnegative int; got {self.at!r}")

    def _shape(self, epoch: int) -> float:
        return self.magnitude if epoch >= self.at else 0.0


@_register_schedule
@dataclass(frozen=True)
class LinearDrift(DriftSchedule):
    """A linear ramp reaching ``magnitude`` after ``ramp`` epochs."""

    kind: ClassVar[str] = "linear"

    magnitude: float = 1.0
    ramp: int = 8

    def validate(self) -> None:
        super().validate()
        _check_magnitude(self.magnitude)
        if not isinstance(self.ramp, int) or self.ramp < 1:
            raise ValueError(f"ramp must be a positive int; got {self.ramp!r}")

    def _shape(self, epoch: int) -> float:
        return self.magnitude * min(1.0, epoch / self.ramp)


@_register_schedule
@dataclass(frozen=True)
class SineDrift(DriftSchedule):
    """A sinusoidal oscillation with ``wavelength`` epochs per cycle.

    Models slow periodic environmental drift (e.g. thermal cycling);
    rates swing between ``1 - magnitude`` and ``1 + magnitude`` times
    calibrated (floored at 0 by the shared clamp).
    """

    kind: ClassVar[str] = "sine"

    magnitude: float = 0.5
    wavelength: int = 8

    def validate(self) -> None:
        super().validate()
        _check_magnitude(self.magnitude)
        if not isinstance(self.wavelength, int) or self.wavelength < 1:
            raise ValueError(
                f"wavelength must be a positive int; got {self.wavelength!r}"
            )

    def _shape(self, epoch: int) -> float:
        phase = 2.0 * math.pi * epoch / self.wavelength
        return self.magnitude * math.sin(phase)


@_register_schedule
@dataclass(frozen=True)
class RandomWalkDrift(DriftSchedule):
    """Seeded Gaussian random walks, independent per qubit.

    Each qubit's readout factor (and one extra walker for the gate
    rates) takes a ``Normal(0, step_std)`` step per epoch.  The walk is
    recomputed from the seed at every epoch change, so any clock state
    replays the identical trajectory — no hidden mutable RNG.
    """

    kind: ClassVar[str] = "random_walk"

    step_std: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        super().validate()
        if not (
            isinstance(self.step_std, (int, float))
            and math.isfinite(self.step_std)
            and self.step_std >= 0
        ):
            raise ValueError(
                f"step_std must be a finite nonnegative number; "
                f"got {self.step_std!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int; got {self.seed!r}")

    def _displacements(self, epoch: int, walkers: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if epoch == 0:
            return np.zeros(walkers)
        steps = rng.normal(0.0, self.step_std, size=(int(epoch), walkers))
        return steps.sum(axis=0)

    def gate_factor(self, epoch: int) -> float:
        # The dedicated gate walker is the last column; drawing all
        # columns keeps qubit walks independent of the walker count.
        return float(
            np.maximum(0.0, 1.0 + self._displacements(epoch, 1)[-1])
        )

    def readout_factors(self, epoch: int, n_qubits: int) -> np.ndarray:
        walk = self._displacements(epoch, n_qubits + 1)[:n_qubits]
        return np.maximum(0.0, 1.0 + walk)


def _check_magnitude(magnitude: Any) -> None:
    if not (
        isinstance(magnitude, (int, float))
        and not isinstance(magnitude, bool)
        and math.isfinite(magnitude)
        and magnitude >= 0
    ):
        raise ValueError(
            f"magnitude must be a finite nonnegative number; "
            f"got {magnitude!r}"
        )


def schedule_from_dict(data: Mapping[str, Any]) -> DriftSchedule:
    """Rebuild a schedule from :meth:`DriftSchedule.to_dict` output.

    Unknown kinds and unknown fields raise eagerly with the accepted
    choices — a misspelled knob fails at spec build, not mid-sweep.
    """
    payload = dict(data)
    kind = payload.pop("kind", None)
    if kind not in SCHEDULE_KINDS:
        raise ValueError(
            f"unknown drift schedule kind {kind!r}; "
            f"choose from {sorted(SCHEDULE_KINDS)}"
        )
    cls = SCHEDULE_KINDS[kind]
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ValueError(
            f"unknown fields {unknown} for drift schedule {kind!r}; "
            f"accepted: {sorted(allowed)}"
        )
    return cls(**payload)


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
    wavelength) keep their defaults.
    """
    if kind == "constant":
        return ConstantDrift(period=period)
    if kind == "step":
        return StepDrift(period=period, magnitude=magnitude)
    if kind == "linear":
        return LinearDrift(period=period, magnitude=magnitude)
    if kind == "sine":
        return SineDrift(period=period, magnitude=magnitude)
    if kind == "random_walk":
        return RandomWalkDrift(period=period, step_std=magnitude, seed=seed)
    raise ValueError(
        f"unknown drift schedule kind {kind!r}; "
        f"choose from {sorted(SCHEDULE_KINDS)}"
    )


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

    def reset_clock(self, clock: int = 0) -> None:
        """Rewind/set logical time (fresh trials replaying a trajectory)."""
        if not isinstance(clock, int) or clock < 0:
            raise ValueError(f"clock must be a nonnegative int; got {clock!r}")
        self._clock = clock

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

    @property
    def name(self) -> str:
        """Base device name tagged with the schedule kind."""
        return f"{self.base.name}+drift:{self.schedule.kind}"

    @property
    def readout(self) -> ReadoutErrorModel:
        """The readout error model at the current epoch."""
        self._refresh()
        return self._readout

    @property
    def gate_noise(self) -> DepolarizingGateNoise:
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
