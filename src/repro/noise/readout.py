"""Readout (measurement) error models.

The paper's mechanism rests on two device facts that this module makes
first-class parameters:

1. Per-qubit readout is asymmetric and qubit-dependent (average 2-7% on IBM
   machines), so mapping a measured subset onto the *best* qubits helps.
2. *Measurement crosstalk*: measuring many qubits simultaneously inflates
   each measurement's error rate (Google Sycamore reports a 1.26x average
   inflation; the paper cites up to an order of magnitude).  We model the
   inflation as a multiplicative factor growing with the number of
   simultaneously measured qubits.

A global ``scale`` knob reproduces Appendix B's noise sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QubitReadoutError", "ReadoutErrorModel"]


@dataclass(frozen=True)
class QubitReadoutError:
    """Asymmetric bit-flip error of one qubit's measurement.

    ``p01`` is P(observe 1 | true 0); ``p10`` is P(observe 0 | true 1).
    On real hardware ``p10 > p01`` is typical (relaxation during readout).
    """

    p01: float
    p10: float

    def __post_init__(self):
        for name, p in (("p01", self.p01), ("p10", self.p10)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")

    @property
    def mean_error(self) -> float:
        return 0.5 * (self.p01 + self.p10)

    def scaled(self, factor: float) -> "QubitReadoutError":
        """Multiply both flip probabilities by ``factor`` (capped at 0.5)."""
        return QubitReadoutError(
            min(0.5, self.p01 * factor), min(0.5, self.p10 * factor)
        )

    def confusion_matrix(self) -> np.ndarray:
        """Column-stochastic matrix ``M[observed, true]``."""
        return np.array(
            [[1.0 - self.p01, self.p10], [self.p01, 1.0 - self.p10]]
        )


class ReadoutErrorModel:
    """Per-physical-qubit readout errors plus measurement crosstalk.

    The parameters only: the backend's noise finisher
    (:meth:`~repro.noise.SimulatorBackend.exact_pmfs_from_probs_batch`)
    pushes PMFs through the confusion matrices this model gives.

    Parameters
    ----------
    qubit_errors:
        One :class:`QubitReadoutError` per physical qubit.
    crosstalk_strength:
        Fractional inflation of each flip probability per *additional*
        simultaneously measured qubit: measuring ``m`` qubits together
        multiplies every flip rate by ``1 + crosstalk_strength * (m - 1)``.
        ``0.26`` over two qubits reproduces Sycamore's 1.26x average.
    scale:
        Global noise scale (Appendix B sweeps this over 0.05-5).
    """

    def __init__(
        self,
        qubit_errors: list[QubitReadoutError],
        crosstalk_strength: float = 0.08,
        scale: float = 1.0,
    ):
        if not qubit_errors:
            raise ValueError("need at least one qubit error")
        if crosstalk_strength < 0:
            raise ValueError("crosstalk_strength must be nonnegative")
        if scale < 0:
            raise ValueError("scale must be nonnegative")
        self.qubit_errors = list(qubit_errors)
        self.crosstalk_strength = float(crosstalk_strength)
        self.scale = float(scale)

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_errors)

    def with_scale(self, scale: float) -> "ReadoutErrorModel":
        """Copy of this model at a different global noise scale."""
        return ReadoutErrorModel(
            self.qubit_errors, self.crosstalk_strength, scale
        )

    def crosstalk_factor(self, n_measured: int) -> float:
        """Error inflation when ``n_measured`` qubits are read out together."""
        if n_measured < 1:
            raise ValueError("n_measured must be >= 1")
        return 1.0 + self.crosstalk_strength * (n_measured - 1)

    def effective_error(
        self, physical_qubit: int, n_measured: int
    ) -> QubitReadoutError:
        """Flip rates of ``physical_qubit`` in an ``n_measured``-wide readout."""
        base = self.qubit_errors[physical_qubit]
        return base.scaled(self.scale * self.crosstalk_factor(n_measured))

    def best_qubits(self, k: int) -> list[int]:
        """The ``k`` physical qubits with the lowest mean readout error.

        This is the mapping JigSaw's subset circuits exploit: measuring only
        a small window lets the compiler place those measurements on the
        device's most reliable readout lines.
        """
        if not 1 <= k <= self.n_qubits:
            raise ValueError(f"k={k} outside [1, {self.n_qubits}]")
        order = sorted(
            range(self.n_qubits),
            key=lambda q: self.qubit_errors[q].mean_error,
        )
        return order[:k]
