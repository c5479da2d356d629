"""Characterize a device's readout errors, then exploit the results.

Walks the workflow a VarSaw user would run on a fresh backend:

1. characterize per-qubit readout flip rates and measurement crosstalk
   (Section 2.2's two effects) with calibration circuits;
2. pick the best qubits for subset measurement;
3. build a matrix mitigator from the measured confusion matrices and
   verify it cleans up a Bell-state distribution.

Usage::

    python examples/device_characterization.py
"""

from repro.circuits import Circuit
from repro.engine import CircuitSpec, shared_engine
from repro.mitigation import MatrixMitigator
from repro.noise import SimulatorBackend, characterize_readout, ibmq_mumbai_like
from repro.sim import PMF


def main() -> None:
    device = ibmq_mumbai_like(scale=2.0)
    backend = SimulatorBackend(device, seed=42)
    qubits = list(range(8))

    print(f"Characterizing readout on {device.name}, qubits {qubits} ...")
    report = characterize_readout(backend, qubits, shots=20_000)
    print(f"\n{'qubit':>5} {'P(1|0)':>8} {'P(0|1)':>8} {'mean':>8}")
    for q in report.qubits:
        print(f"{q.qubit:>5} {q.p01:>8.4f} {q.p10:>8.4f} {q.mean_error:>8.4f}")
    print(
        f"\ncrosstalk inflation (simultaneous vs isolated): "
        f"{report.crosstalk_inflation:.2f}x"
    )
    best = report.best_qubits(2)
    print(f"best 2 qubits for subset measurement: {best}")

    # Use the measured matrices to mitigate a Bell distribution.
    bell = Circuit(8)
    bell.h(0)
    bell.cx(0, 1)
    bell.measure([0, 1])
    engine = shared_engine(backend)
    noisy = engine.run_spec(CircuitSpec(bell, shots=20_000)).to_pmf()
    mitigator = MatrixMitigator.calibrate(backend, [0, 1], shots=20_000)
    cleaned = mitigator.mitigate_pmf(noisy)
    truth = PMF([0.5, 0.0, 0.0, 0.5], qubits=(0, 1))
    print(
        f"\nBell-state TVD vs truth: noisy {noisy.tvd(truth):.4f} -> "
        f"mitigated {cleaned.tvd(truth):.4f}"
    )


if __name__ == "__main__":
    main()
