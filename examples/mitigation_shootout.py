"""Shoot-out of every measurement-mitigation technique in the library.

Prepares a noisy GHZ state — the canonical readout-error victim — and
mitigates it five ways, printing the distance to the ideal distribution
and what each technique costs.  Shows in one screen why JigSaw-style
subsetting (and hence VarSaw) matters: matrix calibration methods are
excellent at small widths but amplify sampling noise as the register
grows, while subsetting degrades gracefully.

Usage::

    python examples/mitigation_shootout.py
"""

import numpy as np

from repro.circuits import Circuit
from repro.engine import CircuitSpec, shared_engine
from repro.mitigation import (
    M3Mitigator,
    MatrixMitigator,
    invert_and_measure,
    jigsaw_mitigate,
)
from repro.noise import SimulatorBackend, ibmq_mumbai_like
from repro.sim import PMF

SHOTS = 8192


def ghz(n: int) -> Circuit:
    qc = Circuit(n)
    qc.h(0)
    for q in range(n - 1):
        qc.cx(q, q + 1)
    qc.measure_all()
    return qc


def run(backend: SimulatorBackend, circuit: Circuit):
    """Execute ``circuit`` once, as its own engine batch."""
    return shared_engine(backend).run_spec(CircuitSpec(circuit, SHOTS))


def ideal_ghz(n: int) -> PMF:
    probs = np.zeros(2**n)
    probs[0] = probs[-1] = 0.5
    return PMF(probs)


def main() -> None:
    device = ibmq_mumbai_like(scale=2.0)
    print(f"Device: {device.name}, {SHOTS} shots per run\n")
    header = f"{'technique':<12}" + "".join(
        f"GHZ-{n:<6}" for n in (4, 6, 8)
    )
    print(header + "   (TVD to ideal; lower is better)")
    print("-" * len(header))

    rows: dict[str, list[float]] = {
        "raw": [], "bias-aware": [], "MBM": [], "M3": [], "JigSaw": [],
    }
    for n in (4, 6, 8):
        circuit = ghz(n)
        target = ideal_ghz(n)

        backend = SimulatorBackend(device, seed=37)
        rows["raw"].append(run(backend, circuit).to_pmf().tvd(target))

        backend = SimulatorBackend(device, seed=37)
        rows["bias-aware"].append(
            invert_and_measure(backend, circuit, SHOTS).tvd(target)
        )

        backend = SimulatorBackend(device, seed=37)
        counts = run(backend, circuit)
        mbm = MatrixMitigator.from_device(backend, range(n), n)
        rows["MBM"].append(mbm.mitigate_pmf(counts.to_pmf()).tvd(target))

        backend = SimulatorBackend(device, seed=37)
        counts = run(backend, circuit)
        m3 = M3Mitigator.from_device(backend, range(n), n)
        rows["M3"].append(m3.mitigate_counts(counts).tvd(target))

        backend = SimulatorBackend(device, seed=37)
        jig = jigsaw_mitigate(backend, circuit, shots=SHOTS, window=2)
        rows["JigSaw"].append(jig.output.tvd(target))

    for name, values in rows.items():
        cells = "".join(f"{v:<10.4f}" for v in values)
        print(f"{name:<12}{cells}")

    print(
        "\nMatrix methods (MBM/M3) dominate at small widths but blow up"
        "\nsampling noise on wide registers; JigSaw's subsetting keeps"
        "\nworking — the property VarSaw inherits and makes affordable"
        "\nfor variational workloads."
    )


if __name__ == "__main__":
    main()
