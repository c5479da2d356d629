"""QAOA workload factory.

Wraps a MaxCut (or any diagonal-Hamiltonian) problem into the same
:class:`~repro.workloads.Workload` record the VQE experiments use, so
:meth:`repro.api.Session.estimator` builds every comparison scheme
(baseline / JigSaw / VarSaw variants) for QAOA without modification.
"""

from __future__ import annotations

from ..hamiltonian import Hamiltonian
from ..noise import DeviceModel, ibmq_mumbai_like
from ..workloads.registry import Workload
from .ansatz import QAOAAnsatz
from .problems import random_regular_maxcut, ring_maxcut

__all__ = ["make_qaoa_workload", "QAOA_PROBLEMS"]

#: Built-in problem generators: name -> callable(n_qubits) -> Hamiltonian.
QAOA_PROBLEMS = ("ring", "regular3")


def _build_problem(problem: str, n_qubits: int, seed: int) -> Hamiltonian:
    if problem == "ring":
        return ring_maxcut(n_qubits)
    if problem == "regular3":
        return random_regular_maxcut(n_qubits, degree=3, seed=seed)
    raise ValueError(
        f"unknown QAOA problem {problem!r}; choose from {QAOA_PROBLEMS}"
    )


def make_qaoa_workload(
    problem: str = "ring",
    n_qubits: int = 6,
    reps: int = 2,
    device: DeviceModel | None = None,
    seed: int = 7,
) -> Workload:
    """Build a QAOA workload: problem Hamiltonian + QAOA ansatz + device.

    The returned record is interchangeable with VQE workloads —
    ``session.estimator('varsaw', workload)`` works directly.
    """
    hamiltonian = _build_problem(problem, n_qubits, seed)
    ansatz = QAOAAnsatz(hamiltonian, reps=reps)
    if device is None:
        device = ibmq_mumbai_like()
    if device.n_qubits < n_qubits:
        raise ValueError(
            f"device {device.name} has {device.n_qubits} qubits, "
            f"problem needs {n_qubits}"
        )
    return Workload(
        key=hamiltonian.name,
        hamiltonian=hamiltonian,
        ansatz=ansatz,
        device=device,
    )
