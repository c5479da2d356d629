"""Matrix-based measurement mitigation (IBM's 'complete' MBM, Fig. 18).

The standard technique: estimate the assignment (confusion) matrix ``A``
with calibration circuits, then correct measured distributions by solving
``A p_true = p_measured``.  With uncorrelated readout error ``A`` is the
tensor product of per-qubit 2x2 confusion matrices, so the solve factors
qubit-by-qubit — the form IBM's mitigation and this implementation use.

On hardware the per-qubit matrices come from preparing |0> and |1> and
counting flips; in this reproduction the backend *is* the device model, so
:meth:`MatrixMitigator.from_device` reads the same matrices the noise
channel applies (equivalent to calibrating with infinite shots), while
:meth:`calibrate` estimates them from sampled calibration runs like the
real protocol.
"""

from __future__ import annotations

import numpy as np

from ..noise import SimulatorBackend
from ..noise.characterization import (
    _calibration_qubits,
    _flip_fraction,
    _zeros_and_ones,
)
from ..sim import PMF, Counts

__all__ = ["MatrixMitigator"]


class MatrixMitigator:
    """Per-qubit confusion-matrix inversion with physicality projection."""

    def __init__(self, matrices: dict[int, np.ndarray]):
        for q, m in matrices.items():
            if m.shape != (2, 2):
                raise ValueError(f"qubit {q}: matrix shape {m.shape} != 2x2")
            if not np.allclose(m.sum(axis=0), 1.0, atol=1e-6):
                raise ValueError(f"qubit {q}: columns must sum to 1")
        self.matrices = {int(q): np.asarray(m, dtype=float) for q, m in matrices.items()}

    # ----------------------------------------------------------- construction

    @classmethod
    def from_device(
        cls, backend: SimulatorBackend, qubits, n_measured: int | None = None
    ) -> "MatrixMitigator":
        """Exact calibration from the backend's own readout model."""
        qubits = [int(q) for q in qubits]
        n = n_measured if n_measured is not None else len(qubits)
        readout = backend.device.readout
        matrices = {
            q: readout.effective_error(q, n).confusion_matrix()
            for q in qubits
        }
        return cls(matrices)

    @classmethod
    def calibrate(
        cls, backend: SimulatorBackend, qubits, shots: int = 2048
    ) -> "MatrixMitigator":
        """Sampled calibration: run |0...0> and |1...1> preparation circuits.

        Charges ``2`` circuits to the backend ledger, like the tensored
        calibration IBM's mitigation uses, as one batch on the
        backend's shared engine.  An empty or repeated qubit list
        raises before anything is charged.
        """
        qubits = _calibration_qubits(qubits)
        ((counts0, counts1),) = _zeros_and_ones(
            backend, [qubits], qubits[-1] + 1, shots
        )
        matrices = {}
        for j, q in enumerate(qubits):
            p01 = _flip_fraction(counts0, j, "0")
            p10 = _flip_fraction(counts1, j, "1")
            matrices[q] = np.array([[1 - p01, p10], [p01, 1 - p10]])
        return cls(matrices)

    # -------------------------------------------------------------- mitigation

    def mitigate_pmf(self, pmf: PMF) -> PMF:
        """Invert the readout channel on ``pmf`` and project to physical.

        Applies each qubit's inverse confusion matrix along its axis, then
        clips negatives and renormalizes (the cheap projection IBM's
        'least-squares' fallback approximates).
        """
        m = pmf.n_qubits
        tensor = pmf.probs.reshape((2,) * m)
        for axis, qubit in enumerate(pmf.qubits):
            if qubit not in self.matrices:
                raise ValueError(f"no calibration for qubit {qubit}")
            inverse = np.linalg.inv(self.matrices[qubit])
            tensor = np.moveaxis(
                np.tensordot(inverse, tensor, axes=([1], [axis])), 0, axis
            )
        flat = np.clip(tensor.reshape(-1), 0.0, None)
        if flat.sum() <= 0:
            return pmf
        return PMF(flat, pmf.qubits)

    def mitigate_counts(self, counts: Counts) -> PMF:
        """:meth:`mitigate_pmf` applied to sampled ``counts``."""
        return self.mitigate_pmf(counts.to_pmf())
