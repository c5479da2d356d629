"""Execution job specs and content-addressed keys.

A job is everything needed to reproduce one device execution: either a
full bound circuit (:class:`CircuitSpec`) or a prepared ansatz state
read out by a compiled measurement (:class:`MeasurementSpec` — the
backend's ``state_rows`` fast path).  Specs are immutable once
submitted.

Each job has a content key over exactly what determines its noisy
outcome distribution — circuit structure, statevector bytes, measured
qubits, readout mapping mode, and the gate load charged to depolarizing
noise.  A circuit spec carries the digest of the body it evolves (its
gates' :func:`body_fingerprint`), computed once, and its
:meth:`~CircuitSpec.fingerprint` adds the measurement to it.  A state
job's key is the pair (:func:`state_digest` of its statevector, its
measurement's ``key``): estimators compile each measurement once, so
the measurement half is hashed once per estimator, not per job.  Shots
are deliberately *excluded*: two jobs that differ only in shot count
share one exact PMF, so they dedup to a single simulation while still
sampling (and being charged) separately.  The engine mixes a
device fingerprint into its cache keys so a cache is never polluted
across backend configurations.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from ..circuits import Circuit
from ..sim.plan import CircuitPlan

__all__ = [
    "CircuitSpec",
    "MeasurementSpec",
    "body_fingerprint",
    "device_fingerprint",
    "state_digest",
]


def _hasher() -> "hashlib._Hash":
    return hashlib.blake2b(digest_size=16)


def _feed_body(h, circuit: Circuit) -> None:
    h.update(f"c:{circuit.n_qubits}".encode())
    for ins in circuit.instructions:
        param = ins.param
        if param is not None and not isinstance(param, (int, float)):
            raise ValueError(
                f"cannot fingerprint unbound parameter {param!r}; "
                "bind the circuit before submitting it"
            )
        h.update(
            f"|{ins.name}:{','.join(map(str, ins.qubits))}:"
            f"{'' if param is None else float(param).hex()}".encode()
        )


def body_fingerprint(circuit: Circuit) -> str:
    """Structural digest of a bound circuit's gates (no measured qubits).

    Circuits sharing a body (a JigSaw Global and its subsets) evolve
    to the same ideal probabilities; only their readout differs.
    """
    h = _hasher()
    _feed_body(h, circuit)
    return h.hexdigest()


def device_fingerprint(backend) -> str:
    """Digest of everything on a backend that shapes exact PMFs.

    Covers the backend kind (a ``clifford`` and a ``density`` backend
    over one device must never share memoized PMFs), the backend's
    declared extras, per-qubit readout rates, crosstalk and gate-noise
    rates/scales — but *not* its RNG state, which only affects
    sampling.  It keys the engine's PMF cache and the noise finisher's
    compiled stages.
    """
    device = backend.device
    h = _hasher()
    h.update(
        f"d:{device.name}:{device.n_qubits}"
        f":k{getattr(backend, 'backend_kind', 'dense')}".encode()
    )
    # Backend subclasses with extra PMF-shaping knobs (e.g. the density
    # backend's amplitude damping) contribute them here.
    extra = getattr(backend, "pmf_fingerprint_extra", None)
    if extra is not None:
        h.update(f"|e:{extra()}".encode())
    # Drifting devices: fold the schedule + epoch in so two clock
    # states never share cached PMFs, even if their rates momentarily
    # coincide (the concrete rates below are hashed too, but equal
    # rates at different epochs are still distinct calibration states).
    drift = getattr(device, "drift_state_fingerprint", None)
    if drift is not None:
        h.update(f"|t:{drift()}".encode())
    # Every rate the finisher reads, as packed float64 bytes.
    readout = device.readout
    gn = device.gate_noise
    rates = [readout.crosstalk_strength, readout.scale]
    for err in readout.qubit_errors:
        rates += (err.p01, err.p10)
    rates += (gn.error_1q, gn.error_2q, gn.scale)
    h.update(struct.pack(f"<{len(rates)}d", *rates))
    return h.hexdigest()


def state_digest(state: np.ndarray) -> str:
    """Content digest of a statevector's bytes.

    Whole-iteration batches submit many jobs sharing one prepared
    state; a batch hashes each distinct state array once.
    """
    h = _hasher()
    h.update(np.ascontiguousarray(state).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class CircuitSpec:
    """One full-circuit execution request.

    ``map_to_best=True`` places the measured qubits on the device's
    best readout lines (what JigSaw does for subset circuits).
    ``body`` is the circuit's :func:`body_fingerprint`, the one walk
    over its gates: the fingerprint and the engine's grouping by body
    read it.  Batches pass it for a circuit whose instructions they
    have already hashed (a JigSaw Global and its subsets are copies of
    one bound circuit); when given it MUST match the circuit, and when
    left out it is computed here.
    """

    circuit: Circuit
    shots: int
    map_to_best: bool = False
    body: str | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if not self.circuit.measured_qubits:
            raise ValueError("circuit measures no qubits")
        if self.body is None:
            object.__setattr__(self, "body", body_fingerprint(self.circuit))

    def fingerprint(self) -> str:
        """Content digest over the body + measured qubits + mapping."""
        h = _hasher()
        h.update(
            f"c:{self.body}"
            f"|m:{','.join(map(str, sorted(self.circuit.measured_qubits)))}"
            f"|b:{int(self.map_to_best)}".encode()
        )
        return h.hexdigest()


@dataclass(frozen=True)
class MeasurementSpec:
    """A compiled, validated readout of an ``n_qubits``-qubit state.

    Estimators build one per distinct measurement the first time they
    submit it and pass it with every prepared state
    (``batch.submit_state(state, measurement)``), so every check below
    runs once per measurement, and a job only checks that its state
    holds ``2**n_qubits`` amplitudes.  ``suffix`` is the
    measurement-basis change as a parameter-free compiled plan (or
    ``None``), built with :func:`~repro.sim.plan.compile_plan`; it
    must act on the same ``n_qubits`` qubits, and ``measured_qubits``
    must be distinct qubits of that register.  ``gate_load`` is the
    (one-qubit, two-qubit) gate count of the state preparation, charged
    to depolarizing noise on top of the suffix.  ``key`` is the content
    digest of everything but ``shots``: the suffix plan's
    ``structure_key`` (a plan without slots is fixed by its gates and
    qubits), the sorted measured qubits, the mapping and the gate load.
    """

    n_qubits: int
    suffix: CircuitPlan | None
    measured_qubits: tuple[int, ...]
    shots: int
    map_to_best: bool = False
    gate_load: tuple[int, int] = (0, 0)
    key: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n_qubits = int(self.n_qubits)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(
            self,
            "measured_qubits",
            tuple(int(q) for q in self.measured_qubits),
        )
        object.__setattr__(
            self,
            "gate_load",
            (int(self.gate_load[0]), int(self.gate_load[1])),
        )
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if not self.measured_qubits:
            raise ValueError("no measured qubits")
        if self.suffix is not None:
            if not isinstance(self.suffix, CircuitPlan):
                raise TypeError(
                    f"suffix must be a CircuitPlan, not "
                    f"{type(self.suffix).__name__}; compile the suffix "
                    "once with compile_plan"
                )
            if self.suffix.num_slots:
                raise ValueError(
                    f"suffix plan has {self.suffix.num_slots} rotation "
                    "slots; compile the suffix once with compile_plan "
                    "from a circuit without rotation gates"
                )
            if self.suffix.n_qubits != n_qubits:
                raise ValueError(
                    f"suffix acts on {self.suffix.n_qubits} qubits but the "
                    f"measurement reads a {n_qubits}-qubit register"
                )
        for i, q in enumerate(self.measured_qubits):
            if not 0 <= q < n_qubits:
                raise ValueError(
                    f"measured qubit {q} is outside the "
                    f"{n_qubits}-qubit register"
                )
            if q in self.measured_qubits[:i]:
                raise ValueError(f"measured qubit {q} is listed twice")
        h = _hasher()
        h.update(
            f"s:{n_qubits}|{self.suffix_key}"
            f"|m:{','.join(map(str, sorted(self.measured_qubits)))}"
            f"|b:{int(self.map_to_best)}"
            f"|l:{self.gate_load[0]},{self.gate_load[1]}".encode()
        )
        object.__setattr__(self, "key", h.hexdigest())

    @property
    def suffix_key(self) -> str | None:
        """The suffix plan's ``structure_key`` (``None``: no suffix)."""
        return None if self.suffix is None else self.suffix.structure_key
