"""Frozen scalar noise finisher: the test oracle for the batch finisher.

A self-contained NumPy copy of the original one-row noise pipeline
that turned ideal outcome probabilities into an exact noisy PMF, one
circuit at a time:

1. normalize (clip at zero, divide by the sum);
2. mix toward the uniform distribution with the global depolarizing
   weight of the circuit's gate load, then renormalize;
3. marginalize onto the measured qubits, then renormalize;
4. push each measured qubit through its 2x2 confusion matrix (with
   crosstalk inflation and the readout mapping), clip, renormalize.

It reads only raw device parameters (flip rates, crosstalk strength,
scales, gate error rates) and re-derives every derived quantity
itself, so a change to the library's noise arithmetic shows up as a
difference.  Slow and deliberately never optimized: do not edit it to
track the library.
"""

from __future__ import annotations

import numpy as np


def _normalize(probs: np.ndarray) -> np.ndarray:
    """What constructing a PMF from ``probs`` does to the vector."""
    if np.any(probs < -1e-12):
        raise ValueError("probabilities must be nonnegative")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("probabilities sum to zero")
    return probs / total


def depolarizing_weight(device, g1: int, g2: int) -> float:
    """Global depolarizing weight of ``g1`` 1q and ``g2`` 2q gates."""
    gn = device.gate_noise
    e1 = min(1.0, gn.error_1q * gn.scale)
    e2 = min(1.0, gn.error_2q * gn.scale)
    return 1.0 - (1.0 - e1) ** g1 * (1.0 - e2) ** g2


def readout_lines(device, measured, map_to_best: bool) -> list[int]:
    """Physical readout line of each measured qubit, in order."""
    errors = device.readout.qubit_errors
    if map_to_best:
        order = sorted(
            range(len(errors)),
            key=lambda q: 0.5 * (errors[q].p01 + errors[q].p10),
        )
        return order[: len(measured)]
    for q in measured:
        if q >= device.n_qubits:
            raise ValueError(f"logical qubit {q} exceeds device size")
    return list(measured)


def confusion_matrix(device, line: int, n_measured: int) -> np.ndarray:
    """``M[observed, true]`` of ``line`` in an ``n_measured``-wide read."""
    readout = device.readout
    factor = readout.scale * (
        1.0 + readout.crosstalk_strength * (n_measured - 1)
    )
    err = readout.qubit_errors[line]
    p01 = min(0.5, err.p01 * factor)
    p10 = min(0.5, err.p10 * factor)
    return np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])


def reference_pmf(
    probs,
    n_qubits: int,
    measured,
    map_to_best: bool,
    gate_load: tuple[int, int],
    device,
    readout_enabled: bool = True,
    gate_noise_enabled: bool = True,
) -> np.ndarray:
    """The noisy PMF vector over sorted ``measured`` qubits."""
    measured = sorted(int(q) for q in measured)
    probs = _normalize(np.asarray(probs, dtype=float))
    if gate_noise_enabled:
        lam = depolarizing_weight(device, *gate_load)
        if lam > 0:
            uniform = _normalize(np.full(2**n_qubits, 1.0 / 2**n_qubits))
            probs = _normalize((1.0 - lam) * probs + lam * uniform)
    for q in measured:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit {q} not in the {n_qubits}-qubit register")
    tensor = probs.reshape((2,) * n_qubits)
    drop = tuple(ax for ax in range(n_qubits) if ax not in measured)
    if drop:
        tensor = tensor.sum(axis=drop)
    probs = _normalize(tensor.reshape(-1))
    if readout_enabled:
        m = len(measured)
        lines = readout_lines(device, measured, map_to_best)
        tensor = probs.reshape((2,) * m)
        for axis, line in enumerate(lines):
            matrix = confusion_matrix(device, line, m)
            tensor = np.moveaxis(
                np.tensordot(matrix, tensor, axes=([1], [axis])), 0, axis
            )
        probs = _normalize(tensor.reshape(-1))
    return probs
