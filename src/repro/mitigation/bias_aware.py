"""Bias-aware readout mitigation: invert-and-measure averaging.

Superconducting readout is asymmetric: |1> decays toward |0> during the
measurement window, so ``p10 > p01`` on every preset in
:mod:`repro.noise.device` (and on real machines).  Tannu & Qureshi
[MICRO'19, the paper's refs 53/54] exploit this by running every circuit
in two polarities — as-is, and with X gates inserted just before
measurement (classically un-flipping the outcomes) — and averaging.  A
bitstring that suffered the strong 1->0 channel in one polarity suffers
the weak 0->1 channel in the other, so the average sees the *mean* of
the two error rates instead of the worst one.

This is a circuit-level baseline orthogonal to JigSaw/VarSaw: it costs
2x shots (not 2x distinct circuits per Pauli term) and composes with
anything downstream.
"""

from __future__ import annotations

import numpy as np

from ..circuits import Circuit
from ..engine import shared_engine
from ..noise import SimulatorBackend
from ..sim import PMF

__all__ = ["invert_and_measure", "flip_pmf_bits", "polarity_circuits"]


def polarity_circuits(circuit: Circuit) -> tuple[Circuit, Circuit]:
    """The two measurement polarities of ``circuit``.

    The inverted copy appends X on every measured qubit, so a logical
    outcome ``b`` is read out as ``~b`` and must be flipped back
    classically.
    """
    if not circuit.measured_qubits:
        raise ValueError("circuit measures no qubits")
    normal = circuit.copy()
    inverted = circuit.copy()
    for q in sorted(circuit.measured_qubits):
        inverted.x(q)
    inverted.name = f"{circuit.name}_inverted"
    return normal, inverted


def flip_pmf_bits(pmf: PMF) -> PMF:
    """Relabel every outcome by flipping all bits (X on each position).

    Complementing an index is ``(2^n - 1) - index``, so the flipped
    probability vector is just the reversal.
    """
    return PMF(pmf.probs[::-1].copy(), pmf.qubits)


def invert_and_measure(
    backend: SimulatorBackend, circuit: Circuit, shots: int
) -> PMF:
    """Run both polarities (``shots/2`` each) and average the PMFs.

    Charges two circuits to the backend ledger — the technique's real
    cost model — as one batch on the backend's shared engine.  Total
    shots match a single plain run.
    """
    if shots < 2:
        raise ValueError("need at least 2 shots to split polarities")
    normal, inverted = polarity_circuits(circuit)
    half = shots // 2
    batch = shared_engine(backend).new_batch()
    batch.submit_circuit(normal, half)
    batch.submit_circuit(inverted, shots - half)
    counts_normal, counts_inverted = batch.run()
    corrected = flip_pmf_bits(counts_inverted.to_pmf())
    return counts_normal.to_pmf().mix(corrected, weight=0.5)
