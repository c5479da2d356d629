"""VarSaw beyond chemistry: ground states of spin chains (Section 7.3).

Builds Heisenberg and XY chains — Pauli terms spread over the X, Y, and Z
measurement bases — and shows both VarSaw optimizations transfer: the
aggregate-then-commute subset reduction, and the budget economics of
sparse Global execution.

Usage::

    python examples/spin_chain_vqe.py [n_qubits]
"""

import sys

from repro.ansatz import EfficientSU2
from repro.api import Session
from repro.core import count_jigsaw_subsets, count_varsaw_subsets
from repro.hamiltonian import (
    ground_state_energy,
    heisenberg_hamiltonian,
    xy_hamiltonian,
)
from repro.noise import ibmq_mumbai_like
from repro.optimizers import SPSA
from repro.vqe import run_vqe
from repro.workloads import Workload


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    device = ibmq_mumbai_like(scale=2.0)
    models = {
        "Heisenberg": heisenberg_hamiltonian(n, field=0.3),
        "XY (gamma=0.4)": xy_hamiltonian(n, anisotropy=0.4, field=0.5),
    }
    for name, ham in models.items():
        ideal = ground_state_energy(ham)
        jig = count_jigsaw_subsets(ham)
        var = count_varsaw_subsets(ham)
        print(f"--- {name}, {n} qubits ---")
        print(
            f"terms = {ham.num_terms}, measurement circuits = "
            f"{len(ham.measurement_groups())}, ideal energy = {ideal:.3f}"
        )
        print(
            f"spatial reduction: JigSaw {jig} subsets -> VarSaw {var} "
            f"({jig / var:.1f}x)"
        )
        workload = Workload(
            key=name,
            hamiltonian=ham,
            ansatz=EfficientSU2(n, reps=2, entanglement="full"),
            device=device,
            ideal_energy=ideal,
        )
        # Warm-start from a short noise-free tune so the budget race below
        # compares achievable accuracy rather than SPSA's early transient.
        warm = run_vqe(
            Session().estimator("ideal", workload),
            max_iterations=300,
            seed=11,
        ).parameters
        budget = 10_000
        for kind in ("baseline", "varsaw"):
            session = Session(device, seed=11)
            estimator = session.estimator(kind, workload, shots=256)
            result = run_vqe(
                estimator,
                optimizer=SPSA(a=0.3, seed=11),
                max_iterations=100_000,
                circuit_budget=budget,
                initial_params=warm,
                seed=11,
            )
            print(
                f"  {kind:>9}: energy = {result.energy:8.3f} "
                f"after {result.iterations} iterations "
                f"({result.circuits_executed} circuits)"
            )
        print()


if __name__ == "__main__":
    main()
