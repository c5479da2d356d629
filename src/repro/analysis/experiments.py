"""Reusable experiment drivers for the paper's evaluation.

Every benchmark regenerating a table or figure calls into this module, so
experiment mechanics (seeding, budget accounting, trial averaging, optimal
parameter caching) are implemented once and identically across figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..api import Session
from ..noise import DeviceModel
from ..vqe import VQEResult, run_vqe
from ..workloads import Workload, make_workload
from .metrics import arithmetic_mean

__all__ = [
    "optimal_parameters",
    "energy_at_params",
    "mean_energy_at_params",
    "TuningRun",
    "run_tuning",
    "fixed_budget_runs",
]


@lru_cache(maxsize=None)
def _cached_optimum(
    key: str, reps: int, entanglement: str, iterations: int, seed: int
) -> tuple[float, ...]:
    workload = make_workload(key, reps=reps, entanglement=entanglement)
    ideal = Session(seed=0).estimator("ideal", workload)
    result = run_vqe(ideal, max_iterations=iterations, seed=seed)
    return tuple(result.parameters)


def optimal_parameters(
    workload: Workload, iterations: int = 400, seed: int = 11
) -> np.ndarray:
    """Near-optimal ansatz parameters from a noise-free tuning run.

    The paper's circuit-level experiments (Table 1, Fig. 19) parameterize
    the ansatz "with optimal parameters (known from ideal simulation)";
    this is that simulation, cached per workload.
    """
    params = _cached_optimum(
        workload.key,
        workload.ansatz.reps,
        workload.ansatz.entanglement,
        iterations,
        seed,
    )
    return np.array(params)


def energy_at_params(
    kind: str,
    workload: Workload,
    params: np.ndarray,
    device: DeviceModel | None = None,
    shots: int = 4096,
    seed: int = 0,
    **estimator_kwargs,
) -> float:
    """One scheme's energy estimate at fixed parameters (single trial).

    ``kind`` may be a registered kind name, an
    :class:`~repro.api.EstimatorSpec`, or a payload dict with a
    ``'kind'`` key.
    """
    device = device if device is not None else workload.device
    session = Session(device, seed=seed)
    estimator = session.estimator(
        kind, workload, shots=shots, **estimator_kwargs
    )
    return estimator.evaluate(params)


def mean_energy_at_params(
    kind: str,
    workload: Workload,
    params: np.ndarray,
    trials: int = 3,
    device: DeviceModel | None = None,
    shots: int = 4096,
    **estimator_kwargs,
) -> float:
    """Trial-averaged energy estimate at fixed parameters."""
    return arithmetic_mean(
        energy_at_params(
            kind,
            workload,
            params,
            device=device,
            shots=shots,
            seed=trial,
            **estimator_kwargs,
        )
        for trial in range(trials)
    )


@dataclass
class TuningRun:
    """A completed VQE tuning run plus scheme metadata."""

    kind: str
    result: VQEResult
    global_fraction: float | None

    @property
    def energy(self) -> float:
        """The tuned energy (the optimizer's final objective value)."""
        return self.result.energy

    @property
    def iterations(self) -> int:
        """Optimizer iterations the tuning run performed."""
        return self.result.iterations


def run_tuning(
    kind: str,
    workload: Workload,
    max_iterations: int,
    circuit_budget: int | None = None,
    shots: int = 256,
    seed: int = 0,
    device: DeviceModel | None = None,
    spsa_gain: float | None = 0.3,
    initial_params: np.ndarray | None = None,
    **estimator_kwargs,
) -> TuningRun:
    """Run one scheme's full VQE tuning loop.

    ``spsa_gain`` fixes SPSA's step gain so budget experiments don't spend
    circuits on gain calibration; pass ``None`` to auto-calibrate.
    ``initial_params`` warm-starts the tuner (quick-scale benchmarks start
    near the optimum so achievable accuracy, not the SPSA transient,
    dominates the comparison).

    The mechanics live in :func:`repro.sweeps.runner.execute_tuning` —
    the same code path the declarative sweep runner uses.
    """
    from ..sweeps.runner import execute_tuning

    return execute_tuning(
        kind,
        workload,
        max_iterations=max_iterations,
        circuit_budget=circuit_budget,
        shots=shots,
        seed=seed,
        device=device,
        spsa_gain=spsa_gain,
        initial_params=initial_params,
        **estimator_kwargs,
    )


def fixed_budget_runs(
    kinds,
    workload: Workload,
    circuit_budget: int,
    shots: int = 256,
    seed: int = 0,
    max_iterations: int = 100_000,
    device: DeviceModel | None = None,
    initial_params: np.ndarray | None = None,
    **estimator_kwargs,
) -> dict[str, TuningRun]:
    """Run several schemes under the same executed-circuit budget.

    One :func:`run_tuning` per kind, each on a fresh backend seeded
    with ``seed``.
    """
    return {
        kind: run_tuning(
            kind,
            workload,
            max_iterations=max_iterations,
            circuit_budget=circuit_budget,
            shots=shots,
            seed=seed,
            device=device,
            initial_params=initial_params,
            **estimator_kwargs,
        )
        for kind in kinds
    }
