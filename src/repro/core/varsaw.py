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
comparison drives the scheduler's hill climbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from ..ansatz import EfficientSU2
from ..api import EstimatorSpec, register_estimator
from ..api.spec import check_bool, check_choice, check_int
from ..hamiltonian import Hamiltonian
from ..mitigation.reconstruction import bayesian_reconstruct_batch
from ..mitigation.subsets import checked_subset_shots
from ..noise import SimulatorBackend
from ..pauli import PauliString
from ..sim import PMF
from ..sim.plan import CircuitPlan, compile_plan
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

    Parameters
    ----------
    window:
        Subset width (paper optimum: 2 — see Appendix A).
    global_mode:
        ``adaptive`` (the full VarSaw design), ``always`` (No-Sparsity),
        or ``never`` (Max-Sparsity; Globals only on the first evaluation).
    subset_shots:
        Shots per subset circuit (at least 1; ``None`` means ``shots``).
    initial_period / max_period:
        Hill-climbing bounds for the adaptive scheduler.
    mbm:
        Optional :class:`~repro.mitigation.mbm.MatrixMitigator` applied to
        every Global-PMF before reconstruction (the paper's VarSaw+MBM
        stack, Fig. 18).
    """

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        ansatz: EfficientSU2,
        backend: SimulatorBackend,
        shots: int = 1024,
        window: int = 2,
        subset_shots: int | None = None,
        global_mode: str = "adaptive",
        initial_period: int = 2,
        max_period: int = 1024,
        mbm=None,
        engine=None,
    ):
        super().__init__(hamiltonian, ansatz, backend, shots, engine=engine)
        self.window = window
        self.subset_shots = checked_subset_shots(subset_shots, shots)
        self.scheduler = GlobalScheduler(
            mode=global_mode,
            initial_period=initial_period,
            max_period=max_period,
        )
        self._adopt_plan(varsaw_subset_plan(hamiltonian, window))
        self._prior: list[PMF] | None = None
        self._evaluation_index = 0
        self.mbm = mbm

    def _adopt_plan(self, plan: SubsetPlan) -> None:
        """Install ``plan`` together with everything derived from it.

        Each subset's suffix slot (compiled on first submission) and
        support, and each measurement group's compatible subset indices
        (by position — two groups may share a Z-filled basis but stay
        distinct circuits), are set here in one place, so a subclass
        that swaps in another plan cannot leave any of them stale.
        """
        self.plan: SubsetPlan = plan
        subsets = range(plan.num_subsets)
        self._subset_rotations: list[CircuitPlan | None]
        self._subset_rotations = [None] * plan.num_subsets
        self._subset_supports = [plan.support(i) for i in subsets]
        self._compatible: list[list[int]] = [
            plan.compatible_with(basis) for basis in self.bases
        ]

    # ------------------------------------------------------------- execution

    def _submit_subset(self, batch, state: np.ndarray, index: int):
        """Queue one reduced subset circuit; return its job handle."""
        if self._subset_rotations[index] is None:
            self._subset_rotations[index] = compile_plan(
                self.plan.rotation_circuit(index)
            )
        return batch.submit_state(
            state,
            self._subset_rotations[index],
            self._subset_supports[index],
            self.subset_shots,
            map_to_best=True,
            gate_load=self._gate_load,
        )

    def _submit_global(self, batch, state: np.ndarray, basis: PauliString):
        """Queue one Global circuit; return its job handle."""
        return self._submit_basis(
            batch, state, basis, range(self.n_qubits), self.shots
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

        # One whole-iteration batch: every subset, plus the Globals when
        # the temporal scheduler says they are due this evaluation.
        batch = self.engine.new_batch()
        subset_handles = [
            self._submit_subset(batch, state, i)
            for i in range(self.plan.num_subsets)
        ]
        global_handles = (
            [self._submit_global(batch, state, b) for b in self.bases]
            if run_globals
            else []
        )
        batch.run()
        local_pmfs = [h.result().to_pmf() for h in subset_handles]
        group_locals = [
            [local_pmfs[i] for i in compatible]
            for compatible in self._compatible
        ]

        if run_globals:
            fresh = bayesian_reconstruct_batch(
                [self._global_pmf(h) for h in global_handles], group_locals
            )
            self.scheduler.record_global(t)
            if have_prior:
                stale = bayesian_reconstruct_batch(self._prior, group_locals)
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
            chosen = bayesian_reconstruct_batch(self._prior, group_locals)
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
        """Subset circuits every evaluation runs."""
        return self.plan.num_subsets

    @property
    def global_fraction(self) -> float:
        """Observed fraction of evaluations that executed Globals."""
        return self.scheduler.global_fraction


# ------------------------------------------------------------ registry


@register_estimator("varsaw")
@dataclass(frozen=True)
class VarSawSpec(EstimatorSpec):
    """The full VarSaw design (spatial subsets + adaptive Globals).

    ``mbm`` is a flag, not an object: when true, :meth:`build`
    materializes a :class:`~repro.mitigation.MatrixMitigator` from the
    backend's device calibration (the paper's VarSaw+MBM stack).
    """

    shots: int = 1024
    window: int = 2
    subset_shots: int | None = None
    global_mode: str = "adaptive"
    initial_period: int = 2
    max_period: int = 1024
    mbm: bool = False

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

    def _constructor_kwargs(
        self, workload: Any, backend: Any, engine: Any
    ) -> dict[str, Any]:
        """Materialized keyword arguments shared by the VarSaw family."""
        kwargs: dict[str, Any] = dict(
            shots=self.shots,
            window=self.window,
            subset_shots=self.subset_shots,
            global_mode=self.global_mode,
            initial_period=self.initial_period,
            max_period=self.max_period,
            engine=engine,
        )
        if self.mbm:
            from ..mitigation import MatrixMitigator

            kwargs["mbm"] = MatrixMitigator.from_device(
                SimulatorBackend(backend.device),
                range(workload.n_qubits),
            )
        return kwargs

    def build(self, workload, backend, engine=None, **overrides):
        """A :class:`VarSawEstimator` over ``workload``."""
        kwargs = self._constructor_kwargs(workload, backend, engine)
        kwargs.update(overrides)
        return VarSawEstimator(
            workload.hamiltonian, workload.ansatz, backend, **kwargs
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
