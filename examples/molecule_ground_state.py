"""Ground-state estimation for a molecule under a fixed circuit budget.

Reproduces the Fig. 13 experiment interactively: pick a molecule from
Table 2, give every scheme (noisy baseline, JigSaw, VarSaw) the same
executed-circuit budget, and watch who converges where.  VarSaw's lower
per-iteration cost converts the budget into many more tuner iterations.

Usage::

    python examples/molecule_ground_state.py [molecule] [budget]

    python examples/molecule_ground_state.py CH4-6 30000
"""

import sys

from repro import Session, make_workload, run_vqe
from repro.hamiltonian import molecule_keys
from repro.noise import ibmq_mumbai_like
from repro.optimizers import SPSA


def run_budgeted(kind, workload, device, budget, shots=256, seed=13):
    session = Session(device, seed=seed)
    estimator = session.estimator(kind, workload, shots=shots)
    return run_vqe(
        estimator,
        optimizer=SPSA(a=0.3, seed=seed),
        max_iterations=100_000,
        circuit_budget=budget,
        seed=seed,
    ), estimator


def main() -> None:
    key = sys.argv[1] if len(sys.argv) > 1 else "CH4-6"
    budget = int(sys.argv[2]) if len(sys.argv) > 2 else 30_000
    if key not in molecule_keys(temporal_only=True):
        raise SystemExit(
            f"choose a temporal workload: {molecule_keys(temporal_only=True)}"
        )
    workload = make_workload(key)
    device = ibmq_mumbai_like(scale=2.0)
    print(
        f"{workload.key}: {workload.n_qubits} qubits, "
        f"{workload.hamiltonian.num_terms} Pauli terms, "
        f"{len(workload.hamiltonian.measurement_groups())} measurement "
        f"circuits per iteration"
    )
    print(f"Exact ground-state energy: {workload.ideal_energy:.3f}")
    print(f"Circuit budget per scheme: {budget}\n")

    for kind in ("baseline", "jigsaw", "varsaw"):
        result, estimator = run_budgeted(kind, workload, device, budget)
        line = (
            f"{kind:>9}: energy = {result.energy:9.3f}   "
            f"iterations = {result.iterations:5d}   "
            f"circuits = {result.circuits_executed}"
        )
        fraction = getattr(estimator, "global_fraction", None)
        if fraction is not None:
            line += f"   global fraction = {fraction:.3f}"
        print(line)

        # A compressed best-so-far trace, Fig. 13 style.
        history = result.energy_history
        if history:
            step = max(1, len(history) // 6)
            trace = ", ".join(
                f"{i}:{history[i]:.2f}"
                for i in range(0, len(history), step)
            )
            print(f"           trace (iter:best energy): {trace}")


if __name__ == "__main__":
    main()
