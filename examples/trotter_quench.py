"""Trotterized TFIM quench with measurement error mitigation (§7.3).

Section 7.3 points to "time-evolving Hamiltonian simulations" (Ising,
Heisenberg, XY) as the family VarSaw's ideas extend to.  This example
simulates the standard quench experiment — start in the all-up state,
evolve under the transverse-field Ising Hamiltonian, track the average
magnetization — and shows measurement error distorting the signal on a
noisy device, with JigSaw-style subsetting recovering it.

Usage::

    python examples/trotter_quench.py
"""

from repro.engine import CircuitSpec, shared_engine
from repro.hamiltonian.tfim import tfim_hamiltonian
from repro.mitigation import jigsaw_mitigate
from repro.noise import SimulatorBackend, ibmq_mumbai_like
from repro.sim.statevector import probabilities, zero_state
from repro.trotter import average_magnetization, evolve_exact, trotter_circuit

N_QUBITS = 5
FIELD = 1.2
STEPS_PER_UNIT = 8
TIMES = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0]


def main() -> None:
    ham = tfim_hamiltonian(N_QUBITS, coupling=1.0, field=FIELD)
    device = ibmq_mumbai_like(scale=2.0)
    print(
        f"TFIM-{N_QUBITS} quench (J=1, h={FIELD}), |00..0> initial state, "
        f"2nd-order Trotter, {STEPS_PER_UNIT} steps per time unit\n"
    )
    print(f"{'t':>5} {'exact':>8} {'noisy':>8} {'jigsaw':>8}")
    print("-" * 33)
    for t in TIMES:
        exact_state = evolve_exact(ham, t, zero_state(N_QUBITS))
        exact_m = average_magnetization(
            probabilities(exact_state), N_QUBITS
        )

        n_steps = max(1, round(STEPS_PER_UNIT * t))
        circuit = trotter_circuit(ham, t, n_steps, order=2)
        circuit.measure_all()

        backend = SimulatorBackend(device, seed=17)
        counts = shared_engine(backend).run_spec(CircuitSpec(circuit, 8192))
        noisy_m = average_magnetization(counts.to_pmf().probs, N_QUBITS)

        backend = SimulatorBackend(device, seed=17)
        result = jigsaw_mitigate(backend, circuit, shots=8192, window=2)
        jigsaw_m = average_magnetization(result.output.probs, N_QUBITS)

        print(f"{t:>5.2f} {exact_m:>8.3f} {noisy_m:>8.3f} {jigsaw_m:>8.3f}")

    print(
        "\nMeasurement error pulls every noisy magnetization toward 0;"
        "\nJigSaw's subsetting recovers most of the signal — the substrate"
        "\nVarSaw would amortize over a sweep of evolution times."
    )


if __name__ == "__main__":
    main()
