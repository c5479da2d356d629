"""Fixed-parameter experiment helpers for the paper's evaluation.

The sweep tasks (:mod:`repro.sweeps.tasks`) call into this module for
what runs at fixed ansatz parameters: the cached noise-free optimum and
single- or trial-averaged energy estimates.  Tuning runs go through
:func:`repro.sweeps.runner.execute_tuning`, which returns the
:class:`TuningRun` defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..api import EstimatorSpec, Session
from ..noise import DeviceModel
from ..vqe import VQEResult, run_vqe
from ..workloads import Workload, make_workload
from .metrics import arithmetic_mean

__all__ = [
    "optimal_parameters",
    "energy_at_params",
    "mean_energy_at_params",
    "TuningRun",
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
    spec: EstimatorSpec,
    workload: Workload,
    params: np.ndarray,
    device: DeviceModel | None = None,
    seed: int = 0,
) -> float:
    """One estimator's energy estimate at fixed parameters (single
    trial)."""
    device = device if device is not None else workload.device
    estimator = Session(device, seed=seed).estimator(spec, workload)
    return estimator.evaluate(params)


def mean_energy_at_params(
    spec: EstimatorSpec,
    workload: Workload,
    params: np.ndarray,
    trials: int = 3,
    device: DeviceModel | None = None,
) -> float:
    """Trial-averaged energy estimate at fixed parameters."""
    return arithmetic_mean(
        energy_at_params(spec, workload, params, device=device, seed=trial)
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
