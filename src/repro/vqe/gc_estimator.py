"""VQE estimator using general-commutation measurement grouping.

The baseline estimator measures one circuit per qubit-wise-commuting
cover group with single-qubit basis rotations.  This estimator instead
partitions the Hamiltonian into *fully* commuting families (graph
coloring) and measures each family through its shared Clifford
diagonalization circuit from :mod:`repro.clifford`.

The trade-off the paper cites for staying with QWC (Section 3.1) is now
end-to-end measurable: GC needs several-fold fewer circuits per
iteration, but each measurement suffix carries entangling gates whose
noise the backend charges like any other gate — so under realistic gate
error the accuracy can go either way.  ``bench_ext_gc_grouping`` and the
unit tests pin down both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api import EstimatorSpec, register_estimator
from ..api.spec import check_choice, check_int
from ..clifford import DiagonalizedGroup
from ..hamiltonian import Hamiltonian
from ..noise import SimulatorBackend
from ..pauli import diagonalized_groups
from ..sim.plan import CircuitPlan, compile_plan
from .estimator import EstimatorBase

__all__ = ["GeneralCommutationEstimator", "GeneralCommutationSpec"]


class GeneralCommutationEstimator(EstimatorBase):
    """One measurement circuit per fully-commuting Pauli family."""

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        ansatz,
        backend: SimulatorBackend,
        shots: int = 1024,
        method: str = "color",
        engine=None,
    ):
        super().__init__(hamiltonian, ansatz, backend, shots, engine=engine)
        self.gc_groups: list[DiagonalizedGroup] = diagonalized_groups(
            [p for _, p in hamiltonian.non_identity_terms()],
            hamiltonian.n_qubits,
            method=method,
        )
        coeff_of: dict = {}
        for coeff, term in hamiltonian.non_identity_terms():
            coeff_of[term] = coeff_of.get(term, 0.0) + coeff
        self._coeff_of = coeff_of
        # Each family's Clifford suffix compiles once per estimator,
        # on the first evaluation.
        self._suffixes: list[CircuitPlan] = []

    @property
    def num_groups(self) -> int:
        """Measurement circuits per iteration under GC grouping."""
        return len(self.gc_groups)

    def evaluate(self, params: np.ndarray) -> float:
        if not self._suffixes:
            self._suffixes = [
                compile_plan(g.circuit) for g in self.gc_groups
            ]
        state = self.prepare_state(params)
        batch = self.engine.new_batch()
        handles = [
            batch.submit_state(
                state,
                suffix,
                range(self.n_qubits),
                self.shots,
                map_to_best=False,
                gate_load=self._gate_load,
            )
            for suffix in self._suffixes
        ]
        batch.run()
        energy = self.hamiltonian.identity_coefficient
        seen: set = set()
        for group, handle in zip(self.gc_groups, handles):
            probs = handle.result().to_pmf().probs
            for index, member in enumerate(group.members):
                if member in seen:
                    continue  # duplicate term placed in another group
                seen.add(member)
                energy += self._coeff_of[member] * group.expectation(
                    index, probs
                )
        return energy

    @property
    def circuits_per_evaluation(self) -> int:
        return len(self.gc_groups)


@register_estimator("gc")
@dataclass(frozen=True)
class GeneralCommutationSpec(EstimatorSpec):
    """General-commutation grouping (Clifford-diagonalized families).

    ``method`` selects the partitioner: ``'color'`` (greedy coloring,
    fewer groups) or ``'greedy'`` (first-fit).
    """

    shots: int = 1024
    method: str = "color"

    def validate(self) -> None:
        check_int("shots", self.shots, minimum=1)
        check_choice("method", self.method, ("color", "greedy"))

    def build(self, workload, backend, engine=None, **overrides):
        return GeneralCommutationEstimator(
            workload.hamiltonian,
            workload.ansatz,
            backend,
            shots=self.shots,
            method=self.method,
            engine=engine,
            **overrides,
        )
