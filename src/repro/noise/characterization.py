"""Device readout characterization experiments.

The library's noise models are parametric; this module plays the role the
calibration workflow plays on hardware: estimate per-qubit readout flip
rates and the measurement-crosstalk inflation factor *from execution
results only*, exactly as one would on a backend whose internals are
opaque.  Section 2.2 of the paper leans on these two effects; the
characterizer lets tests and users verify a backend exhibits them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits import Circuit
from ..engine import shared_engine
from ..sim import Counts
from .backend import SimulatorBackend

__all__ = ["QubitCharacterization", "CharacterizationReport", "characterize_readout"]


@dataclass(frozen=True)
class QubitCharacterization:
    """Estimated readout flip rates of one qubit (isolated measurement)."""

    qubit: int
    p01: float  # P(read 1 | prepared 0)
    p10: float  # P(read 0 | prepared 1)

    @property
    def mean_error(self) -> float:
        """The average of the two flip rates."""
        return 0.5 * (self.p01 + self.p10)


@dataclass
class CharacterizationReport:
    """Fleet-wide readout characterization results."""

    qubits: list[QubitCharacterization]
    crosstalk_inflation: float  # simultaneous / isolated mean-error ratio
    shots_per_experiment: int

    def best_qubits(self, k: int) -> list[int]:
        """The k qubits with the lowest estimated mean readout error."""
        if not 1 <= k <= len(self.qubits):
            raise ValueError(f"k={k} outside [1, {len(self.qubits)}]")
        ranked = sorted(self.qubits, key=lambda q: q.mean_error)
        return [q.qubit for q in ranked[:k]]

    def mean_error(self) -> float:
        """Isolated mean readout error averaged over every qubit."""
        return sum(q.mean_error for q in self.qubits) / len(self.qubits)


def _flip_fraction(counts: Counts, position: int, expected: str) -> float:
    """Fraction of shots whose bit at ``position`` differs from expected."""
    total = counts.shots
    flips = sum(
        value for key, value in counts.items() if key[position] != expected
    )
    return flips / total if total else 0.0


def _calibration_qubits(qubits) -> list[int]:
    """``qubits`` sorted, rejecting an empty list or a repeated qubit."""
    qubits = sorted(int(q) for q in qubits)
    if not qubits:
        raise ValueError("need at least one qubit")
    for a, b in zip(qubits, qubits[1:]):
        if a == b:
            raise ValueError(f"qubit {a} is listed twice")
    return qubits


def _zeros_and_ones(
    backend: SimulatorBackend, groups, width: int, shots: int
) -> list[tuple[Counts, Counts]]:
    """Counts of |0...0> and |1...1> on each qubit group, measured alone.

    Every group's pair of ``width``-qubit circuits runs in one batch on
    the backend's shared engine, in group order.
    """
    batch = shared_engine(backend).new_batch()
    for group in groups:
        zeros = Circuit(width)
        zeros.measure(group)
        ones = Circuit(width)
        for q in group:
            ones.x(q)
        ones.measure(group)
        batch.submit_circuit(zeros, shots)
        batch.submit_circuit(ones, shots)
    counts = batch.run()
    return list(zip(counts[::2], counts[1::2]))


def characterize_readout(
    backend: SimulatorBackend,
    qubits,
    shots: int = 4096,
) -> CharacterizationReport:
    """Measure per-qubit flip rates and the crosstalk inflation factor.

    Protocol (standard readout calibration):

    1. per qubit, prepare |0> and |1> and measure *that qubit alone* —
       isolated flip rates;
    2. prepare |0...0> and |1...1> and measure *all* qubits together —
       simultaneous flip rates;
    3. inflation = mean simultaneous error / mean isolated error.

    Charges ``2 * len(qubits) + 2`` circuits to the backend's ledger,
    as one batch on the backend's shared engine (so on a drifting
    device every circuit sees the same noise state).  An empty or
    repeated qubit list raises before anything is charged.
    """
    qubits = _calibration_qubits(qubits)
    *alone, (counts0, counts1) = _zeros_and_ones(
        backend, [[q] for q in qubits] + [qubits], qubits[-1] + 1, shots
    )
    isolated = [
        QubitCharacterization(
            q, _flip_fraction(c0, 0, "0"), _flip_fraction(c1, 0, "1")
        )
        for q, (c0, c1) in zip(qubits, alone)
    ]
    simultaneous = []
    for j, q in enumerate(qubits):
        p01 = _flip_fraction(counts0, j, "0")
        p10 = _flip_fraction(counts1, j, "1")
        simultaneous.append(0.5 * (p01 + p10))

    iso_mean = sum(c.mean_error for c in isolated) / len(isolated)
    sim_mean = sum(simultaneous) / len(simultaneous)
    inflation = sim_mean / iso_mean if iso_mean > 0 else 1.0
    return CharacterizationReport(
        qubits=isolated,
        crosstalk_inflation=inflation,
        shots_per_experiment=shots,
    )
