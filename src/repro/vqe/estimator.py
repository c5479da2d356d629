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
from ..engine import MeasurementSpec, ensure_engine
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
    """Shared plumbing: grouping, compiled measurements, state preparation.

    Every estimator is built from its validated
    :class:`~repro.api.EstimatorSpec` (usually by
    :meth:`EstimatorSpec.build <repro.api.EstimatorSpec.build>`) and
    reads its knobs from ``self.spec``.
    """

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        ansatz: EfficientSU2,
        backend: SimulatorBackend,
        spec: EstimatorSpec,
        engine=None,
    ):
        if ansatz.n_qubits != hamiltonian.n_qubits:
            raise ValueError(
                f"ansatz width {ansatz.n_qubits} != Hamiltonian width "
                f"{hamiltonian.n_qubits}"
            )
        self.hamiltonian = hamiltonian
        self.ansatz = ansatz
        self.backend = backend
        self.spec = spec
        self.engine = ensure_engine(engine, backend)
        self._gate_load = ansatz.gate_load  # each read walks a circuit
        self.bases, self.group_terms = assign_terms_to_groups(hamiltonian)
        # Each basis-change suffix compiles once per estimator, the
        # first time it is submitted, and so does each measurement of
        # it (measured qubits, shots, mapping).
        self._rotations: dict[PauliString, CircuitPlan] = {}
        self._measurements: dict[tuple, MeasurementSpec] = {}

    @property
    def n_qubits(self) -> int:
        return self.hamiltonian.n_qubits

    @property
    def num_groups(self) -> int:
        """Measurement circuits per traditional VQA iteration (C_Comm size)."""
        return len(self.bases)

    def prepare_state(self, params: np.ndarray) -> np.ndarray:
        return self.engine.prepare_state(self.ansatz, params)

    def prepare_states(self, params_list) -> list[np.ndarray]:
        """Prepare many parameter points at once (one compiled-plan batch).

        All bindings share the ansatz structure, so uncached points
        advance through a single vectorized plan execution and land in
        the engine's state cache — bit-identical to preparing each
        point alone.  SPSA calls this ahead of each ``±ck·Δ``
        evaluation pair.
        """
        return self.engine.prepare_states(self.ansatz, params_list)

    def _measurement(
        self,
        suffix: CircuitPlan | None,
        measured,
        shots: int,
        map_to_best: bool = False,
    ) -> MeasurementSpec:
        """Compile one measurement of this estimator's ansatz states."""
        return MeasurementSpec(
            self.n_qubits, suffix, measured, shots, map_to_best,
            self._gate_load,
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
        """Queue ``state`` rotated into ``basis``; return the job handle.

        Each distinct measurement (``measured`` a range or tuple)
        compiles once, on its first submission.
        """
        key = (basis, measured, shots, map_to_best)
        measurement = self._measurements.get(key)
        if measurement is None:
            rotation = self._rotations.get(basis)
            if rotation is None:
                rotation = compile_plan(basis.basis_rotation())
                self._rotations[basis] = rotation
            measurement = self._measurement(
                rotation, measured, shots, map_to_best
            )
            self._measurements[key] = measurement
        return batch.submit_state(state, measurement)

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
                batch, state, basis, range(self.n_qubits), self.spec.shots
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

    estimator_class = BaselineEstimator

    def validate(self) -> None:
        check_int("shots", self.shots, minimum=1)


@register_estimator("ideal")
@dataclass(frozen=True)
class IdealSpec(EstimatorSpec):
    """Noise-free, infinite-shot exact reference (no parameters)."""

    estimator_class = IdealEstimator
