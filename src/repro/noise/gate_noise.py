"""Depolarizing gate-noise channel on outcome probabilities.

Gate errors are not the focus of the paper (measurement error is), but the
noisy-VQA baseline needs them so the optimizer sees a realistically
perturbed landscape.  We use the standard global-depolarizing approximation:
a circuit with ``g1`` one-qubit and ``g2`` two-qubit gates maps the ideal
outcome distribution ``p`` to

    p' = (1 - lam) * p + lam * uniform,
    lam = 1 - (1 - e1)^g1 * (1 - e2)^g2

which matches the way depolarizing noise contracts expectation values toward
the maximally mixed outcome while preserving the computational-basis
sampling semantics our statevector backend relies on.
"""

from __future__ import annotations

__all__ = ["DepolarizingGateNoise"]


class DepolarizingGateNoise:
    """Circuit-size-dependent depolarizing mix toward the uniform PMF.

    The rates only: the backend's noise finisher
    (:meth:`~repro.noise.SimulatorBackend.exact_pmfs_from_probs_batch`)
    applies the mix, with each row's gate load.
    """

    def __init__(
        self,
        error_1q: float = 4e-4,
        error_2q: float = 1e-2,
        scale: float = 1.0,
    ):
        for name, e in (("error_1q", error_1q), ("error_2q", error_2q)):
            if not 0.0 <= e <= 1.0:
                raise ValueError(f"{name}={e} outside [0, 1]")
        if scale < 0:
            raise ValueError("scale must be nonnegative")
        self.error_1q = float(error_1q)
        self.error_2q = float(error_2q)
        self.scale = float(scale)

    def with_scale(self, scale: float) -> "DepolarizingGateNoise":
        return DepolarizingGateNoise(self.error_1q, self.error_2q, scale)
