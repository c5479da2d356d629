"""Execution job specs and content-addressed fingerprints.

A *spec* is everything needed to reproduce one device execution: either a
full bound circuit (:class:`CircuitSpec`) or a prepared ansatz state plus
a compiled measurement-basis suffix (:class:`StateSpec` — the backend's
``state_rows`` fast path).  Specs are immutable once submitted.

Each spec exposes a :meth:`fingerprint`: a digest over the exact content
that determines its noisy outcome distribution — circuit structure,
statevector bytes, measured qubits, readout mapping mode, and the gate
load charged to depolarizing noise.  Shots are deliberately *excluded*:
two specs that differ only in shot count share one exact PMF, so they
dedup to a single simulation while still sampling (and being charged)
separately.  The engine mixes a device/noise-flag fingerprint into its
cache keys so a cache is never polluted across backend configurations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..circuits import Circuit
from ..sim.plan import CircuitPlan

__all__ = [
    "CircuitSpec",
    "StateSpec",
    "body_fingerprint",
    "circuit_fingerprint",
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


def _feed_circuit(h, circuit: Circuit) -> None:
    _feed_body(h, circuit)
    h.update(
        f"|m:{','.join(map(str, sorted(circuit.measured_qubits)))}".encode()
    )


def circuit_fingerprint(circuit: Circuit) -> str:
    """Structural digest of a bound circuit (gates + measured qubits)."""
    h = _hasher()
    _feed_circuit(h, circuit)
    return h.hexdigest()


def body_fingerprint(circuit: Circuit) -> str:
    """:func:`circuit_fingerprint` without the measured qubits.

    Circuits sharing a body (a JigSaw Global and its subsets) evolve
    to the same ideal probabilities; only their readout differs.
    """
    h = _hasher()
    _feed_body(h, circuit)
    return h.hexdigest()


def device_fingerprint(backend) -> str:
    """Digest of everything on a backend that shapes exact PMFs.

    Covers the backend kind (a ``clifford`` and a ``density`` backend
    over one device must never share memoized PMFs), per-qubit readout
    rates, crosstalk, gate-noise rates/scales, and the backend's noise
    kill-switches — but *not* its RNG state, which only affects
    sampling.
    """
    device = backend.device
    h = _hasher()
    h.update(
        f"d:{device.name}:{device.n_qubits}"
        f":k{getattr(backend, 'backend_kind', 'dense')}"
        f":ro{int(backend.readout_enabled)}"
        f":gn{int(backend.gate_noise_enabled)}".encode()
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
    readout = device.readout
    h.update(
        f"|x:{readout.crosstalk_strength.hex()}"
        f":{readout.scale.hex()}".encode()
    )
    for err in readout.qubit_errors:
        h.update(f"|q:{err.p01.hex()}:{err.p10.hex()}".encode())
    gn = device.gate_noise
    h.update(
        f"|g:{gn.error_1q.hex()}:{gn.error_2q.hex()}:{gn.scale.hex()}".encode()
    )
    return h.hexdigest()


def state_digest(state: np.ndarray) -> str:
    """Content digest of a statevector's bytes.

    Whole-iteration batches submit many specs sharing one prepared
    state; callers that hold the array can compute this once and pass
    it to every :class:`StateSpec` instead of re-hashing per spec.
    """
    h = _hasher()
    h.update(np.ascontiguousarray(state).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class CircuitSpec:
    """One full-circuit execution request.

    ``map_to_best=True`` places the measured qubits on the device's
    best readout lines (what JigSaw does for subset circuits).
    """

    circuit: Circuit
    shots: int
    map_to_best: bool = False

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if not self.circuit.measured_qubits:
            raise ValueError("circuit measures no qubits")

    def fingerprint(self) -> str:
        """Content digest over circuit structure + readout mapping."""
        h = _hasher()
        _feed_circuit(h, self.circuit)
        h.update(f"|b:{int(self.map_to_best)}".encode())
        return h.hexdigest()


@dataclass(frozen=True)
class StateSpec:
    """One prepared-state execution request (``backend.state_rows``).

    ``suffix`` is the measurement-basis change as a parameter-free
    compiled plan (or ``None``): estimators compile each suffix once,
    at construction, with :func:`~repro.sim.plan.compile_plan`, so the
    engine never hashes or compiles one per submission.  A plan without
    slots is fixed by its gates and qubits, so its ``structure_key`` is
    a content key: the fingerprint and the engine's grouping read it.
    ``gate_load`` is the (one-qubit, two-qubit) gate count of the state
    preparation, charged to depolarizing noise on top of the suffix.
    ``state`` must hold ``2**n`` amplitudes, ``suffix`` (if any) must
    act on the same ``n`` qubits, and ``measured_qubits`` must be
    distinct qubits of that register — all checked here, so a bad spec
    fails at submit time instead of failing its whole batch.
    ``digest`` is a precomputed :func:`state_digest` of ``state`` (an
    optimization for batches whose specs share a state); when given it
    MUST match the state, and when left out it is computed here.
    """

    state: np.ndarray = field(repr=False)
    suffix: CircuitPlan | None
    measured_qubits: tuple[int, ...]
    shots: int
    map_to_best: bool = False
    gate_load: tuple[int, int] = (0, 0)
    digest: str | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
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
        size = len(self.state)
        n_qubits = max(size.bit_length() - 1, 0)
        if size != 1 << n_qubits:
            raise ValueError(
                f"state has {size} amplitudes, not a power of two"
            )
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
                    f"state has a {n_qubits}-qubit register"
                )
        for i, q in enumerate(self.measured_qubits):
            if not 0 <= q < n_qubits:
                raise ValueError(
                    f"measured qubit {q} is outside the state's "
                    f"{n_qubits}-qubit register"
                )
            if q in self.measured_qubits[:i]:
                raise ValueError(f"measured qubit {q} is listed twice")
        if self.digest is None:
            object.__setattr__(self, "digest", state_digest(self.state))

    @property
    def suffix_key(self) -> str | None:
        """The suffix plan's ``structure_key`` (``None``: no suffix)."""
        return None if self.suffix is None else self.suffix.structure_key

    def fingerprint(self) -> str:
        """Content digest over state bytes + suffix + measurement."""
        h = _hasher()
        h.update(f"s:{self.digest}|{self.suffix_key}".encode())
        h.update(
            f"|m:{','.join(map(str, sorted(self.measured_qubits)))}"
            f"|b:{int(self.map_to_best)}"
            f"|l:{self.gate_load[0]},{self.gate_load[1]}".encode()
        )
        return h.hexdigest()
