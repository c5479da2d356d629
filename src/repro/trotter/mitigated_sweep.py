"""VarSaw-style temporal sparsity for time-evolution sweeps.

A quench experiment evaluates an observable at a *sweep* of evolution
times.  Like adjacent VQA iterations, adjacent time points produce
similar output distributions — so the Global runs that anchor JigSaw's
Bayesian reconstruction are temporally redundant across the sweep.
:func:`sparse_quench_sweep` runs the subset circuits at every time point
but a fresh Global only every ``global_period`` points, reconstructing
the rest against the most recent mitigated distribution — VarSaw's
Fig. 11 design transplanted to Section 7.3's "time-evolving Hamiltonian
simulations".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import shared_engine
from ..hamiltonian import Hamiltonian
from ..mitigation import bayesian_reconstruct
from ..mitigation.subsets import sliding_windows
from ..noise import SimulatorBackend
from ..sim import PMF
from .evolution import trotter_circuit

__all__ = ["QuenchSweepResult", "sparse_quench_sweep"]


@dataclass(frozen=True)
class QuenchSweepResult:
    """Mitigated distributions for every time point plus cost ledger."""

    times: tuple[float, ...]
    outputs: tuple[PMF, ...]
    circuits_executed: int
    globals_executed: int

    def __len__(self) -> int:
        return len(self.times)


def sparse_quench_sweep(
    backend: SimulatorBackend,
    hamiltonian: Hamiltonian,
    times,
    steps_per_unit: int = 8,
    order: int = 2,
    shots: int = 4096,
    window: int = 2,
    global_period: int = 4,
) -> QuenchSweepResult:
    """Mitigate a whole quench sweep with temporally sparse Globals.

    At each time point the evolution circuit's subset (Local) runs are
    executed; a full-register Global run happens only on every
    ``global_period``-th point (always on the first).  In between, the
    previous point's mitigated output serves as the reconstruction
    prior — the same staleness bet VarSaw makes across VQA iterations.

    ``global_period=1`` degenerates to per-point JigSaw.  Each time
    point's circuits run as one batch on the backend's shared engine,
    Locals first, then the Global when one is due.
    """
    times = tuple(float(t) for t in times)
    if not times:
        raise ValueError("empty time sweep")
    if global_period < 1:
        raise ValueError("global_period must be >= 1")
    if sorted(times) != list(times):
        raise ValueError("times must be sorted ascending")

    engine = shared_engine(backend)
    outputs: list[PMF] = []
    executed = 0
    globals_run = 0
    prior: PMF | None = None
    for index, t in enumerate(times):
        n_steps = max(1, round(steps_per_unit * t))
        circuit = trotter_circuit(hamiltonian, t, n_steps, order=order)
        batch = engine.new_batch()
        for positions in sliding_windows(circuit.n_qubits, window):
            partial = circuit.copy()
            partial.measured_qubits = set()
            partial.measure(positions)
            batch.submit_circuit(partial, shots, map_to_best=True)
        global_due = prior is None or index % global_period == 0
        if global_due:
            full = circuit.copy()
            full.measure_all()
            batch.submit_circuit(full, shots)
        pmfs = [counts.to_pmf() for counts in batch.run()]
        executed += len(batch)
        if global_due:
            prior = pmfs.pop()
            globals_run += 1
        prior = bayesian_reconstruct(prior, pmfs)
        outputs.append(prior)
    return QuenchSweepResult(
        times=times,
        outputs=tuple(outputs),
        circuits_executed=executed,
        globals_executed=globals_run,
    )
