"""JigSaw for standalone circuits (the original MICRO'21 use case).

The VQA estimators in this library drive JigSaw through the Hamiltonian
grouping machinery; this module exposes the underlying per-circuit recipe
directly, for mitigating any circuit's output distribution (GHZ states,
QFT outputs, ...):

1. run the circuit with all qubits measured (Global),
2. run one subset circuit per sliding window, measured qubits mapped to
   the device's best readout lines (Locals),
3. Bayesian-reconstruct the Output-PMF.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits import Circuit
from ..engine import shared_engine
from ..noise import SimulatorBackend
from ..sim import PMF
from .reconstruction import bayesian_reconstruct
from .subsets import checked_subset_shots, sliding_windows

__all__ = ["JigsawResult", "jigsaw_mitigate"]


@dataclass
class JigsawResult:
    """Everything one JigSaw pass produced."""

    output: PMF  # the mitigated distribution
    global_pmf: PMF  # the raw (noisy) full measurement
    local_pmfs: list[PMF]  # per-window subset distributions
    circuits_executed: int


def jigsaw_mitigate(
    backend: SimulatorBackend,
    circuit: Circuit,
    shots: int = 4096,
    window: int = 2,
    subset_shots: int | None = None,
) -> JigsawResult:
    """Mitigate measurement error on ``circuit``'s output distribution.

    ``circuit`` must be fully bound; its measured-qubit set is ignored —
    JigSaw measures all qubits for the Global and each window for the
    Locals.  ``subset_shots`` (default: ``shots``) sets each Local's
    shots.  Charges ``1 + (n - window + 1)`` circuits to the backend,
    submitted as one batch to its shared engine, so the Global and
    every Local share one simulation of the circuit body.
    """
    if not circuit.is_bound():
        raise ValueError("circuit must be bound")
    if window < 1:
        raise ValueError("window must be >= 1")
    subset_shots = checked_subset_shots(subset_shots, shots)

    batch = shared_engine(backend).new_batch()
    full = circuit.copy()
    full.measure_all()
    batch.submit_circuit(full, shots)
    for positions in sliding_windows(circuit.n_qubits, window):
        partial = circuit.copy()
        partial.measured_qubits = set()
        partial.measure(positions)
        batch.submit_circuit(partial, subset_shots, map_to_best=True)
    global_pmf, *local_pmfs = [counts.to_pmf() for counts in batch.run()]

    output = bayesian_reconstruct(global_pmf, local_pmfs)
    return JigsawResult(
        output=output,
        global_pmf=global_pmf,
        local_pmfs=local_pmfs,
        circuits_executed=len(batch),
    )
