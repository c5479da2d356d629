"""Energy estimators: the noisy baseline and the noise-free ideal.

An *estimator* owns everything needed to turn a parameter vector into an
energy value: the Hamiltonian's measurement grouping, the ansatz, the
execution backend, and the shots-per-circuit policy.  JigSaw and VarSaw
provide alternative estimators (in :mod:`repro.mitigation` and
:mod:`repro.core`) that plug into the same VQE runner.

Estimators do not call the backend circuit-by-circuit: each objective
evaluation is submitted as one batch to a
:class:`~repro.engine.ExecutionEngine`, which deduplicates identical
circuit specs and memoizes exact noisy PMFs across iterations — while
charging the backend's cost ledger per submitted spec, exactly like
the serial path did.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ansatz import EfficientSU2
from ..api import EstimatorSpec, register_estimator
from ..api.spec import check_int
from ..engine import ensure_engine
from ..hamiltonian import Hamiltonian
from ..noise import SimulatorBackend
from ..pauli import PauliString
from ..sim import PMF
from ..sim.plan import CircuitPlan, compile_plan
from .expectation import assign_terms_to_groups, energy_from_group_pmfs

__all__ = [
    "EstimatorBase",
    "BaselineEstimator",
    "BaselineSpec",
    "IdealEstimator",
    "IdealSpec",
]


class EstimatorBase:
    """Shared plumbing: grouping, compiled suffixes, state preparation."""

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        ansatz: EfficientSU2,
        backend: SimulatorBackend,
        shots: int = 1024,
        engine=None,
    ):
        if ansatz.n_qubits != hamiltonian.n_qubits:
            raise ValueError(
                f"ansatz width {ansatz.n_qubits} != Hamiltonian width "
                f"{hamiltonian.n_qubits}"
            )
        if shots < 1:
            raise ValueError("shots must be positive")
        self.hamiltonian = hamiltonian
        self.ansatz = ansatz
        self.backend = backend
        self.engine = ensure_engine(engine, backend)
        self.shots = shots
        self._gate_load = ansatz.gate_load  # each read walks a circuit
        self.bases, self.group_terms = assign_terms_to_groups(hamiltonian)
        # Each basis-change suffix compiles once per estimator, not
        # per submission.
        self._rotations: dict[PauliString, CircuitPlan] = {
            basis: compile_plan(basis.basis_rotation())
            for basis in set(self.bases)
        }

    @property
    def n_qubits(self) -> int:
        return self.hamiltonian.n_qubits

    @property
    def num_groups(self) -> int:
        """Measurement circuits per traditional VQA iteration (C_Comm size)."""
        return len(self.bases)

    def prepare_state(self, params: np.ndarray) -> np.ndarray:
        return self.engine.prepare_state(self.ansatz.bind(params))

    def prepare_states(self, params_list) -> list[np.ndarray]:
        """Prepare many parameter points at once (one compiled-plan batch).

        All bindings share the ansatz structure, so uncached points
        advance through a single vectorized plan execution and land in
        the engine's state cache — bit-identical to preparing each
        point alone.  SPSA calls this ahead of each ``±ck·Δ``
        evaluation pair.
        """
        return self.engine.prepare_states(
            [self.ansatz.bind(params) for params in params_list]
        )

    def _submit_basis(
        self,
        batch,
        state: np.ndarray,
        basis: PauliString,
        measured,
        shots: int,
        map_to_best: bool = False,
    ):
        """Queue ``state`` rotated into ``basis``; return the job handle."""
        return batch.submit_state(
            state,
            self._rotations[basis],
            measured,
            shots,
            map_to_best=map_to_best,
            gate_load=self._gate_load,
        )

    # Cost bookkeeping delegates to the backend's ledger.
    @property
    def circuits_run(self) -> int:
        return self.backend.circuits_run


class BaselineEstimator(EstimatorBase):
    """Traditional noisy VQA: one full-measurement circuit per QWC group.

    This is the paper's 'Baseline' comparison — Pauli commutation applied,
    no measurement error mitigation.
    """

    def evaluate(self, params: np.ndarray) -> float:
        state = self.prepare_state(params)
        batch = self.engine.new_batch()
        handles = [
            self._submit_basis(
                batch, state, basis, range(self.n_qubits), self.shots
            )
            for basis in self.bases
        ]
        batch.run()
        pmfs: list[PMF] = [h.result().to_pmf() for h in handles]
        return energy_from_group_pmfs(
            self.hamiltonian, pmfs, self.group_terms
        )

    @property
    def circuits_per_evaluation(self) -> int:
        return self.num_groups


class IdealEstimator(EstimatorBase):
    """Noise-free, infinite-shot reference (the paper's 'Ideal' line).

    Evaluates ``<psi(theta)|H|psi(theta)>`` exactly from the statevector;
    charges nothing to the circuit ledger.
    """

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        ansatz: EfficientSU2,
        backend: SimulatorBackend | None = None,
        engine=None,
    ):
        backend = backend if backend is not None else SimulatorBackend()
        super().__init__(hamiltonian, ansatz, backend, shots=1, engine=engine)

    def evaluate(self, params: np.ndarray) -> float:
        state = self.prepare_state(params)
        return self.hamiltonian.expectation_exact(state)

    @property
    def circuits_per_evaluation(self) -> int:
        return 0


# ------------------------------------------------------------ registry


@register_estimator("baseline")
@dataclass(frozen=True)
class BaselineSpec(EstimatorSpec):
    """Traditional noisy VQA (QWC grouping, no mitigation)."""

    shots: int = 1024

    def validate(self) -> None:
        check_int("shots", self.shots, minimum=1)

    def build(self, workload, backend, engine=None, **overrides):
        return BaselineEstimator(
            workload.hamiltonian,
            workload.ansatz,
            backend,
            shots=self.shots,
            engine=engine,
            **overrides,
        )


@register_estimator("ideal")
@dataclass(frozen=True)
class IdealSpec(EstimatorSpec):
    """Noise-free, infinite-shot exact reference (no parameters)."""

    def build(self, workload, backend, engine=None, **overrides):
        return IdealEstimator(
            workload.hamiltonian,
            workload.ansatz,
            backend,
            engine=engine,
            **overrides,
        )
