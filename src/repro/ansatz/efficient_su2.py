"""Hardware-efficient SU2 ansatz (Kandala et al. 2017 style).

The paper uses "the hardware efficient SU2 ansatz ... constructed for the
'full' entanglement ... 2 blocks of repetition" (Section 5.1), and sweeps
entanglement type over full / linear / circular / asymmetric (Table 3) and
depth p over 1/2/4/8 (Table 4).  This module reproduces those knobs.

Structure (matching Qiskit's ``EfficientSU2``): an initial RY+RZ rotation
layer, then ``reps`` blocks of [entangling CX layer + RY+RZ rotation
layer].  Parameter count: ``2 * n_qubits * (reps + 1)``.
"""

from __future__ import annotations

import functools
import hashlib

from ..circuits import Circuit, ParameterVector

__all__ = ["EfficientSU2", "ENTANGLEMENT_TYPES"]

ENTANGLEMENT_TYPES = ("full", "linear", "circular", "asymmetric")


def _entangling_pairs(
    n_qubits: int, entanglement: str, block: int
) -> list[tuple[int, int]]:
    """CX (control, target) pairs for one entangling layer.

    ``asymmetric`` is a shifted-circular-alternating pattern (Qiskit's
    'sca'): the ring of CXs is rotated by the block index and the
    control/target roles alternate between blocks, breaking the layer
    symmetry — the paper's fourth ansatz type.
    """
    if entanglement == "full":
        return [
            (i, j)
            for i in range(n_qubits)
            for j in range(i + 1, n_qubits)
        ]
    if entanglement == "linear":
        return [(i, i + 1) for i in range(n_qubits - 1)]
    if entanglement == "circular":
        pairs = [(n_qubits - 1, 0)] if n_qubits > 2 else []
        return pairs + [(i, i + 1) for i in range(n_qubits - 1)]
    if entanglement == "asymmetric":
        ring = [(i, (i + 1) % n_qubits) for i in range(n_qubits)]
        if n_qubits == 2:
            ring = [(0, 1)]
        shift = block % len(ring)
        rotated = ring[shift:] + ring[:shift]
        if block % 2 == 1:
            rotated = [(t, c) for c, t in rotated]
        return rotated
    raise ValueError(
        f"unknown entanglement {entanglement!r}; "
        f"choose from {ENTANGLEMENT_TYPES}"
    )


class EfficientSU2:
    """Parameterized hardware-efficient ansatz.

    Parameters
    ----------
    n_qubits:
        Circuit width.
    reps:
        Number of entangle+rotate blocks (the paper's depth ``p``).
    entanglement:
        One of ``full | linear | circular | asymmetric``.

    Example
    -------
    >>> ansatz = EfficientSU2(4, reps=2)
    >>> ansatz.num_parameters
    24
    >>> bound = ansatz.bind([0.0] * ansatz.num_parameters)
    >>> bound.is_bound()
    True
    """

    def __init__(
        self, n_qubits: int, reps: int = 2, entanglement: str = "full"
    ):
        if n_qubits < 2:
            raise ValueError("ansatz needs at least two qubits")
        if reps < 1:
            raise ValueError("reps must be >= 1")
        if entanglement not in ENTANGLEMENT_TYPES:
            raise ValueError(
                f"unknown entanglement {entanglement!r}; "
                f"choose from {ENTANGLEMENT_TYPES}"
            )
        self.n_qubits = n_qubits
        self.reps = reps
        self.entanglement = entanglement
        self.params = ParameterVector("theta", 2 * n_qubits * (reps + 1))
        self.circuit = self._build()

    def _build(self) -> Circuit:
        qc = Circuit(
            self.n_qubits,
            name=f"su2_{self.entanglement}_p{self.reps}",
        )
        index = 0
        for q in range(self.n_qubits):
            qc.ry(self.params[index], q)
            index += 1
        for q in range(self.n_qubits):
            qc.rz(self.params[index], q)
            index += 1
        for block in range(self.reps):
            for control, target in _entangling_pairs(
                self.n_qubits, self.entanglement, block
            ):
                qc.cx(control, target)
            for q in range(self.n_qubits):
                qc.ry(self.params[index], q)
                index += 1
            for q in range(self.n_qubits):
                qc.rz(self.params[index], q)
                index += 1
        return qc

    @property
    def num_parameters(self) -> int:
        return len(self.params)

    @property
    def gate_load(self) -> tuple[int, int]:
        """(one-qubit, two-qubit) gate counts — feeds the gate-noise model."""
        g2 = self.circuit.num_two_qubit_gates
        return (self.circuit.num_gates - g2, g2)

    @functools.cached_property
    def content_key(self) -> str:
        """Digest of everything that shapes this ansatz's bound circuits.

        The template's gates, qubits and symbolic parameters (name and
        coefficient), and the parameter order: two ansatzes with one key
        bind every parameter vector to the same circuit.  Computed once
        per instance; the engine keys prepared states by it.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(f"su2:{self.n_qubits}".encode())
        for ins in self.circuit.instructions:
            # A Parameter's repr names it and its coefficient exactly.
            h.update(f"|{ins.name}:{ins.qubits}:{ins.param!r}".encode())
        h.update(f"|p:{','.join(p.name for p in self.params)}".encode())
        return h.hexdigest()

    def bind(self, values) -> Circuit:
        """Bind a flat parameter array to a concrete circuit."""
        return self.circuit.bind(self.params.to_bindings(values))

    def __repr__(self) -> str:
        return (
            f"EfficientSU2(n_qubits={self.n_qubits}, reps={self.reps}, "
            f"entanglement={self.entanglement!r})"
        )
