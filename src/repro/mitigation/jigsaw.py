"""JigSaw applied to VQA (the paper's 'JigSaw' comparison).

For every measurement group of every objective evaluation, JigSaw runs

* one *Global* circuit (all qubits measured, identity mapping), and
* ``Q - m + 1`` *subset* circuits (width-``m`` sliding window, measured
  window mapped to the device's best readout qubits),

then Bayesian-reconstructs a mitigated Output-PMF.  This is faithful to
the original circuit-level technique and is exactly what makes it so
expensive for VQAs: the subset circuits multiply the per-iteration cost by
roughly the qubit count (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ansatz import EfficientSU2
from ..api import EstimatorSpec, register_estimator
from ..api.spec import check_int
from ..hamiltonian import Hamiltonian
from ..noise import SimulatorBackend
from ..pauli import PauliString
from ..sim import PMF
from ..vqe.estimator import EstimatorBase
from ..vqe.expectation import energy_from_group_pmfs
from .reconstruction import bayesian_reconstruct_batch
from .subsets import checked_subset_shots, sliding_windows

__all__ = ["JigSawEstimator", "JigSawSpec"]


class JigSawEstimator(EstimatorBase):
    """Noisy VQA objective with per-circuit JigSaw mitigation.

    Parameters
    ----------
    window:
        Subset width ``m`` (paper default and Appendix A optimum: 2).
    subset_shots:
        Shots per subset circuit (at least 1); ``None`` means the
        global's ``shots``.
    """

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        ansatz: EfficientSU2,
        backend: SimulatorBackend,
        shots: int = 1024,
        window: int = 2,
        subset_shots: int | None = None,
        engine=None,
    ):
        super().__init__(hamiltonian, ansatz, backend, shots, engine=engine)
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.subset_shots = checked_subset_shots(subset_shots, shots)
        self.windows = sliding_windows(self.n_qubits, window)

    def evaluate(self, params: np.ndarray) -> float:
        """JigSaw-mitigated energy: every group's Global + subsets."""
        state = self.prepare_state(params)
        pmfs = self._mitigated_pmfs(state, self.bases)
        return energy_from_group_pmfs(
            self.hamiltonian, pmfs, self.group_terms
        )

    def _submit_group(self, batch, state: np.ndarray, basis: PauliString):
        """Queue one group's Global + subset circuits; return the handles."""
        global_handle = self._submit_basis(
            batch, state, basis, range(self.n_qubits), self.shots
        )
        local_handles = [
            self._submit_basis(
                batch, state, basis, window, self.subset_shots,
                map_to_best=True,
            )
            for window in self.windows
        ]
        return global_handle, local_handles

    def _mitigated_pmfs(self, state: np.ndarray, bases) -> list[PMF]:
        """One batch of every group's circuits, one batched reconstruction."""
        batch = self.engine.new_batch()
        handles = [self._submit_group(batch, state, b) for b in bases]
        batch.run()
        return bayesian_reconstruct_batch(
            [g.result().to_pmf() for g, _ in handles],
            [[h.result().to_pmf() for h in locals_] for _, locals_ in handles],
        )

    @property
    def circuits_per_evaluation(self) -> int:
        """Globals plus subsets for every group (the Fig. 8 cost model)."""
        return self.num_groups * (1 + len(self.windows))


@register_estimator("jigsaw")
@dataclass(frozen=True)
class JigSawSpec(EstimatorSpec):
    """Per-circuit JigSaw mitigation applied to every VQA iteration."""

    shots: int = 1024
    window: int = 2
    subset_shots: int | None = None

    def validate(self) -> None:
        """Check shot counts and the window width eagerly."""
        check_int("shots", self.shots, minimum=1)
        check_int("window", self.window, minimum=1)
        if self.subset_shots is not None:
            check_int("subset_shots", self.subset_shots, minimum=1)

    def build(self, workload, backend, engine=None, **overrides):
        """A :class:`JigSawEstimator` over ``workload``."""
        return JigSawEstimator(
            workload.hamiltonian,
            workload.ansatz,
            backend,
            shots=self.shots,
            window=self.window,
            subset_shots=self.subset_shots,
            engine=engine,
            **overrides,
        )
