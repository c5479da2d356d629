"""QAOA MaxCut with VarSaw mitigation (paper Section 7.3).

The paper evaluates VQE but notes VarSaw "is applicable to all VQA
problems", naming QAOA.  This example runs MaxCut on a 6-node ring with
the standard QAOA ansatz, comparing the unmitigated baseline against
VarSaw on a noisy simulated device, and then decodes the best cut from
the tuned circuit.

Usage::

    python examples/qaoa_maxcut.py
"""

import networkx as nx
import numpy as np

from repro import Session, run_vqe
from repro.noise import ibmq_mumbai_like
from repro.qaoa import cut_value, make_qaoa_workload
from repro.sim import PMF
from repro.sim.statevector import probabilities, run_statevector

N_NODES = 6
REPS = 2


def main() -> None:
    workload = make_qaoa_workload("ring", N_NODES, reps=REPS)
    graph = nx.cycle_graph(N_NODES)
    print(
        f"Problem: MaxCut on a {N_NODES}-node ring "
        f"(max cut = {-workload.ideal_energy:.0f})"
    )
    print(
        f"Ansatz: QAOA p={REPS} "
        f"({workload.ansatz.num_parameters} parameters)\n"
    )

    device = ibmq_mumbai_like(scale=2.0)
    results = {}
    for kind in ("baseline", "varsaw"):
        session = Session(device, seed=13)
        estimator = session.estimator(kind, workload, shots=512)
        result = run_vqe(estimator, max_iterations=120, seed=13)
        results[kind] = result
        print(
            f"{kind:>9}: energy = {result.energy:7.3f}   "
            f"(ideal {workload.ideal_energy:.1f})   "
            f"circuits = {result.circuits_executed}"
        )

    # Decode the cut: sample the tuned VarSaw circuit noise-free and take
    # the most likely bitstring.
    tuned = results["varsaw"].parameters
    state = run_statevector(workload.ansatz.bind(tuned))
    pmf = PMF(probabilities(state))
    bitstring = max(pmf.as_dict().items(), key=lambda kv: kv[1])[0]
    assignment = [int(b) for b in bitstring]
    print(
        f"\nMost likely bitstring from the tuned circuit: {bitstring} "
        f"-> cut value {cut_value(graph, assignment):.0f} "
        f"of {-workload.ideal_energy:.0f}"
    )


if __name__ == "__main__":
    main()
