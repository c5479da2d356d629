"""The VarSaw estimator: spatial + temporal optimizations end to end.

Per objective evaluation VarSaw executes

* the **reduced subset circuits** from the spatial plan (every
  evaluation — subsets must track the current ansatz parameters), each
  measuring only its support, mapped to the device's best readout qubits;
* the **Global circuits** (one per measurement group) only when the
  :class:`~repro.core.temporal.GlobalScheduler` says they are due.

Reconstruction per group uses the group-compatible Local-PMFs against a
*prior*: the fresh Global-PMF on Global evaluations, or the stored
mitigated result of the previous evaluation otherwise (Fig. 11's MR_i
chain).  On Global evaluations both paths are computed and the energy
comparison drives the scheduler's hill climbing.  A subclass may
mitigate only some groups (``mitigated_groups``): the rest read their
raw Global every evaluation, in both energies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..ansatz import EfficientSU2
from ..api import EstimatorSpec, register_estimator
from ..api.spec import check_bool, check_choice, check_int
from ..engine import MeasurementSpec
from ..hamiltonian import Hamiltonian
from ..mitigation.mbm import MatrixMitigator
from ..mitigation.reconstruction import bayesian_reconstruct_batch
from ..noise import SimulatorBackend
from ..pauli import PauliString
from ..sim import PMF
from ..sim.plan import compile_plan
from ..vqe.estimator import EstimatorBase
from ..vqe.expectation import energy_from_group_pmfs
from .spatial import SubsetPlan, varsaw_subset_plan
from .temporal import GlobalScheduler

__all__ = [
    "VarSawEstimator",
    "VarSawSpec",
    "VarSawNoSparsitySpec",
    "VarSawMaxSparsitySpec",
]


class VarSawEstimator(EstimatorBase):
    """Application-tailored measurement error mitigation for VQE.

    The knobs are :class:`VarSawSpec`'s.  With ``spec.mbm`` set, a
    :class:`~repro.mitigation.MatrixMitigator` calibrated on the
    backend's device is applied to every Global-PMF before
    reconstruction (the paper's VarSaw+MBM stack, Fig. 18).

    ``mitigated_groups`` (every group here) are the measurement groups
    reconstructed from subsets; ``_active_subsets`` (every subset here)
    the subset circuits each evaluation runs.
    """

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        ansatz: EfficientSU2,
        backend: SimulatorBackend,
        spec: VarSawSpec,
        engine=None,
    ):
        super().__init__(hamiltonian, ansatz, backend, spec, engine)
        self.subset_shots = spec.subset_shots or spec.shots
        self.scheduler = GlobalScheduler(
            mode=spec.global_mode,
            initial_period=spec.initial_period,
            max_period=spec.max_period,
        )
        self.mitigated_groups: set[int] = set(range(len(self.bases)))
        self._adopt_plan(varsaw_subset_plan(hamiltonian, spec.window))
        self._prior: list[PMF] | None = None
        self._evaluation_index = 0
        self.mbm = (
            MatrixMitigator.from_device(
                SimulatorBackend(backend.device), range(self.n_qubits)
            )
            if spec.mbm
            else None
        )

    def _adopt_plan(self, plan: SubsetPlan) -> None:
        """Install ``plan`` together with everything derived from it.

        Each subset's measurement slot (compiled on first submission),
        each measurement group's compatible subset indices (by
        position — two groups may share a Z-filled basis but stay
        distinct circuits) and the active subsets (all of them) are set
        here in one place, so a subclass that swaps in another plan
        cannot leave any of them stale.
        """
        self.plan: SubsetPlan = plan
        self._subset_measurements: list[MeasurementSpec | None]
        self._subset_measurements = [None] * plan.num_subsets
        self._compatible: list[list[int]] = [
            plan.compatible_with(basis) for basis in self.bases
        ]
        self._active_subsets: list[int] = list(range(plan.num_subsets))

    # ------------------------------------------------------------- execution

    def _submit_subset(self, batch, state: np.ndarray, index: int):
        """Queue one reduced subset circuit; return its job handle."""
        measurement = self._subset_measurements[index]
        if measurement is None:
            measurement = self._measurement(
                compile_plan(self.plan.rotation_circuit(index)),
                self.plan.support(index),
                self.subset_shots,
                map_to_best=True,
            )
            self._subset_measurements[index] = measurement
        return batch.submit_state(state, measurement)

    def _submit_global(self, batch, state: np.ndarray, basis: PauliString):
        """Queue one Global circuit; return its job handle."""
        return self._submit_basis(
            batch, state, basis, range(self.n_qubits), self.spec.shots
        )

    def _global_pmf(self, handle) -> PMF:
        """Global-PMF from a finished handle (MBM applied when stacked)."""
        pmf = handle.result().to_pmf()
        if self.mbm is not None:
            pmf = self.mbm.mitigate_pmf(pmf)
        return pmf

    # ------------------------------------------------------------- objective

    def evaluate(self, params: np.ndarray) -> float:
        """VarSaw-mitigated energy (subsets always, Globals when due)."""
        state = self.prepare_state(params)
        t = self._evaluation_index
        self._evaluation_index += 1
        have_prior = self._prior is not None
        run_globals = self.scheduler.due(t) or not have_prior

        # One whole-iteration batch: the active subsets, then a Global
        # per group that reads one this evaluation — an unmitigated
        # group every time, a mitigated one when the temporal scheduler
        # says the Globals are due.
        mitigated = sorted(self.mitigated_groups)
        batch = self.engine.new_batch()
        subset_handles = {
            i: self._submit_subset(batch, state, i)
            for i in self._active_subsets
        }
        global_handles = {
            g: self._submit_global(batch, state, basis)
            for g, basis in enumerate(self.bases)
            if run_globals or g not in self.mitigated_groups
        }
        batch.run()
        local_pmfs = {
            i: h.result().to_pmf() for i, h in subset_handles.items()
        }
        raw = {g: self._global_pmf(h) for g, h in global_handles.items()}
        group_locals = [
            [local_pmfs[i] for i in self._compatible[g]] for g in mitigated
        ]

        def reconstruct(priors: list[PMF]) -> list[PMF]:
            """Every group's PMF: the mitigated ones reconstructed
            against ``priors``, the rest read raw."""
            pmfs = [raw.get(g) for g in range(len(self.bases))]
            for g, pmf in zip(
                mitigated, bayesian_reconstruct_batch(priors, group_locals)
            ):
                pmfs[g] = pmf
            return pmfs  # type: ignore[return-value]

        if run_globals:
            fresh = reconstruct([raw[g] for g in mitigated])
            self.scheduler.record_global(t)
            if have_prior:
                stale = reconstruct([self._prior[g] for g in mitigated])
                energy_fresh = self._energy(fresh)
                energy_stale = self._energy(stale)
                # Fig. 11: if the stale-prior result is at least as low,
                # the Globals were redundant — keep the stale result and
                # increase sparsity; else adopt fresh and decrease it.
                if energy_stale <= energy_fresh:
                    self.scheduler.feedback(stale_at_least_as_good=True)
                    chosen, energy = stale, energy_stale
                else:
                    self.scheduler.feedback(stale_at_least_as_good=False)
                    chosen, energy = fresh, energy_fresh
            else:
                chosen = fresh
                energy = self._energy(fresh)
        else:
            chosen = reconstruct([self._prior[g] for g in mitigated])
            energy = self._energy(chosen)
        self._prior = chosen
        self.scheduler.record_evaluation()
        return energy

    def _energy(self, pmfs: list[PMF]) -> float:
        return energy_from_group_pmfs(
            self.hamiltonian, pmfs, self.group_terms
        )

    # ------------------------------------------------------------ accounting

    @property
    def circuits_per_subset_pass(self) -> int:
        """Subset circuits every mitigated evaluation runs."""
        return len(self._active_subsets)

    @property
    def global_fraction(self) -> float:
        """Observed fraction of evaluations that executed Globals."""
        return self.scheduler.global_fraction


# ------------------------------------------------------------ registry


@register_estimator("varsaw")
@dataclass(frozen=True)
class VarSawSpec(EstimatorSpec):
    """The full VarSaw design (spatial subsets + adaptive Globals).

    ``window`` is the subset width (paper optimum: 2, Appendix A);
    ``subset_shots`` the shots per subset circuit (``None`` means
    ``shots``).  ``global_mode`` is ``adaptive`` (the full design),
    ``always`` (No-Sparsity) or ``never`` (Max-Sparsity: Globals only
    on the first evaluation); ``initial_period``/``max_period`` bound
    the adaptive scheduler's hill climbing.  ``mbm`` is a flag, not an
    object: when true, the estimator materializes a
    :class:`~repro.mitigation.MatrixMitigator` from the backend's
    device calibration (the paper's VarSaw+MBM stack).
    """

    shots: int = 1024
    window: int = 2
    subset_shots: int | None = None
    global_mode: str = "adaptive"
    initial_period: int = 2
    max_period: int = 1024
    mbm: bool = False

    estimator_class = VarSawEstimator

    #: Ablation kinds pin ``global_mode``; changing it there is an error
    #: rather than a silently contradictory spec.
    _PINNED_MODE: ClassVar[str | None] = None

    def validate(self) -> None:
        """Check every field eagerly, and the kind's pinned mode."""
        check_int("shots", self.shots, minimum=1)
        check_int("window", self.window, minimum=1)
        if self.subset_shots is not None:
            check_int("subset_shots", self.subset_shots, minimum=1)
        check_choice(
            "global_mode", self.global_mode, ("adaptive", "always", "never")
        )
        check_int("initial_period", self.initial_period, minimum=1)
        check_int("max_period", self.max_period, minimum=self.initial_period)
        check_bool("mbm", self.mbm)
        if self._PINNED_MODE is not None and (
            self.global_mode != self._PINNED_MODE
        ):
            raise ValueError(
                f"estimator kind {self.kind!r} pins "
                f"global_mode={self._PINNED_MODE!r}; use kind 'varsaw' "
                f"to choose a different mode"
            )


@register_estimator("varsaw_no_sparsity")
@dataclass(frozen=True)
class VarSawNoSparsitySpec(VarSawSpec):
    """VarSaw's No-Sparsity ablation: Globals every evaluation."""

    global_mode: str = "always"
    _PINNED_MODE: ClassVar[str | None] = "always"


@register_estimator("varsaw_max_sparsity")
@dataclass(frozen=True)
class VarSawMaxSparsitySpec(VarSawSpec):
    """VarSaw's Max-Sparsity ablation: Globals only on evaluation 0."""

    global_mode: str = "never"
    _PINNED_MODE: ClassVar[str | None] = "never"
