"""Noise-scale sweep: when does temporal sparsity help? (Appendix B).

Scales the device noise model from 0.1x to 5x and compares the noisy
baseline against VarSaw with No-Sparsity and Max-Sparsity Globals under a
fixed budget — the Table 5 experiment.  At meaningful noise, Max-Sparsity
matches No-Sparsity while spending far fewer circuits per iteration; at
vanishing noise its frozen Global becomes a liability.

Usage::

    python examples/noise_sweep_study.py [molecule]
"""

import sys

from repro import Session, make_workload, run_vqe
from repro.noise import ibmq_mumbai_like
from repro.optimizers import SPSA

SCALES = (5.0, 3.0, 1.0, 0.5, 0.1)
KINDS = (
    ("baseline", "Baseline"),
    ("varsaw_no_sparsity", "VarSaw (No Sparsity)"),
    ("varsaw_max_sparsity", "VarSaw (Max Sparsity)"),
)


def main() -> None:
    key = sys.argv[1] if len(sys.argv) > 1 else "H2O-6"
    workload = make_workload(key)
    groups = len(workload.hamiltonian.measurement_groups())
    budget = 150 * groups
    print(
        f"{workload.key}: ideal energy {workload.ideal_energy:.2f}, "
        f"budget {budget} circuits per scheme\n"
    )
    header = f"{'scale':>6} | " + " | ".join(f"{label:>22}" for _, label in KINDS)
    print(header)
    print("-" * len(header))
    for scale in SCALES:
        device = ibmq_mumbai_like(scale=scale)
        energies = []
        for kind, _ in KINDS:
            session = Session(device, seed=5)
            estimator = session.estimator(kind, workload, shots=256)
            result = run_vqe(
                estimator,
                optimizer=SPSA(a=0.3, seed=5),
                max_iterations=100_000,
                circuit_budget=budget,
                seed=5,
            )
            energies.append(result.energy)
        cells = " | ".join(f"{e:>22.3f}" for e in energies)
        print(f"{scale:>6g} | {cells}")


if __name__ == "__main__":
    main()
