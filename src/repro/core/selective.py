"""Selective mitigation: spend circuits only where they matter.

Section 7.3 sketches the paper's immediate extension: "employ measurement
error mitigation only in specific phases of VQA and to only specific
terms in the Hamiltonian — i.e., only employ mitigation where it matters
most."  This module implements both halves as composable policies:

* :class:`TermSelector` — mitigate only the heaviest Hamiltonian terms
  (by cumulative |coefficient| mass); the light tail is read directly
  from the unmitigated counts.
* :class:`PhasePolicy` — enable mitigation only in a chosen phase of the
  tuning run (e.g. the endgame, where accuracy matters most and the
  tuner's steps are small).

:class:`SelectiveVarSawEstimator` applies both on top of the standard
VarSaw estimator: groups whose measured coefficient mass falls below the
selector's threshold skip reconstruction (their Global counts are used
as-is), and evaluations outside the active phase fall back to the plain
noisy baseline path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api import register_estimator
from ..api.spec import check_fraction, check_int, check_number
from ..mitigation.reconstruction import bayesian_reconstruct_batch
from ..sim import PMF
from ..vqe.expectation import energy_from_group_pmfs
from .spatial import SubsetPlan
from .varsaw import VarSawEstimator, VarSawSpec

__all__ = [
    "TermSelector",
    "PhasePolicy",
    "SelectiveVarSawEstimator",
    "SelectiveSpec",
    "CalibrationGate",
    "CalibrationGatedVarSawEstimator",
    "CalibrationGatedSpec",
]


class TermSelector:
    """Choose which measurement groups deserve mitigation.

    Groups are ranked by the total |coefficient| they measure; the
    smallest set covering ``mass_fraction`` of the overall coefficient
    mass is selected.
    """

    def __init__(self, mass_fraction: float = 0.9):
        if not 0.0 <= mass_fraction <= 1.0:
            raise ValueError("mass_fraction must be in [0, 1]")
        self.mass_fraction = float(mass_fraction)

    def select(self, group_terms) -> set[int]:
        """Indices of the groups to mitigate."""
        masses = [
            sum(abs(coeff) for coeff, _ in members)
            for members in group_terms
        ]
        total = sum(masses)
        if total == 0:
            return set(range(len(group_terms)))
        order = sorted(range(len(masses)), key=lambda i: -masses[i])
        selected: set[int] = set()
        covered = 0.0
        for index in order:
            if covered >= self.mass_fraction * total and selected:
                break
            selected.add(index)
            covered += masses[index]
        return selected


class PhasePolicy:
    """Enable mitigation only inside an evaluation-index window.

    ``start_fraction`` / ``end_fraction`` are positions within an
    expected run length; e.g. ``(0.5, 1.0)`` mitigates only the second
    half of tuning (the paper's "specific phases of VQA").
    """

    def __init__(
        self,
        expected_evaluations: int,
        start_fraction: float = 0.0,
        end_fraction: float = 1.0,
    ):
        if expected_evaluations < 1:
            raise ValueError("expected_evaluations must be positive")
        if not 0.0 <= start_fraction <= end_fraction <= 1.0:
            raise ValueError("need 0 <= start <= end <= 1")
        self.expected_evaluations = int(expected_evaluations)
        self.start = start_fraction
        self.end = end_fraction

    def active(self, evaluation_index: int) -> bool:
        """Whether evaluation ``evaluation_index`` falls in the window."""
        position = min(
            1.0, evaluation_index / self.expected_evaluations
        )
        return self.start <= position <= self.end


class SelectiveVarSawEstimator(VarSawEstimator):
    """VarSaw with term- and phase-selective mitigation.

    Parameters (beyond :class:`VarSawEstimator`'s):

    term_selector:
        Which groups get reconstruction; unselected groups use their raw
        Global counts (and are skipped by the subset pass when no
        selected group needs their subsets).
    phase_policy:
        When mitigation is active at all; outside the phase the estimator
        behaves like the noisy baseline (cheapest possible iteration).
    """

    def __init__(
        self,
        *args,
        term_selector: TermSelector | None = None,
        phase_policy: PhasePolicy | None = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.term_selector = term_selector
        self.phase_policy = phase_policy
        if term_selector is not None:
            self.mitigated_groups = term_selector.select(self.group_terms)
        else:
            self.mitigated_groups = set(range(len(self.bases)))
        # Subsets needed by at least one mitigated group.
        needed: set[int] = set()
        for g in self.mitigated_groups:
            needed.update(self._compatible[g])
        self._active_subsets = sorted(needed)

    # ------------------------------------------------------------- execution

    def evaluate(self, params: np.ndarray) -> float:
        """Energy at ``params``: unmitigated outside the active phase,
        else VarSaw with only the selected groups reconstructed."""
        t = self._evaluation_index
        if self.phase_policy is not None and not self.phase_policy.active(t):
            # Outside the mitigation phase: plain noisy evaluation, but
            # keep the evaluation clock ticking for the policy.
            self._evaluation_index += 1
            state = self.prepare_state(params)
            batch = self.engine.new_batch()
            handles = [
                self._submit_global(batch, state, basis)
                for basis in self.bases
            ]
            batch.run()
            pmfs = [self._global_pmf(h) for h in handles]
            return energy_from_group_pmfs(
                self.hamiltonian, pmfs, self.group_terms
            )
        if not self.mitigated_groups or len(self.mitigated_groups) == len(
            self.bases
        ):
            return super().evaluate(params)
        return self._evaluate_partially_mitigated(params)

    def _evaluate_partially_mitigated(self, params: np.ndarray) -> float:
        state = self.prepare_state(params)
        t = self._evaluation_index
        self._evaluation_index += 1
        have_prior = self._prior is not None
        run_globals = self.scheduler.due(t) or not have_prior

        # One whole-iteration batch: the subsets any mitigated group
        # needs, then one Global per group that requires it (unselected
        # groups always; selected groups only on Global evaluations).
        batch = self.engine.new_batch()
        subset_handles = {
            i: self._submit_subset(batch, state, i)
            for i in self._active_subsets
        }
        global_handles: dict[int, object] = {}
        for g, basis in enumerate(self.bases):
            if g not in self.mitigated_groups or run_globals:
                global_handles[g] = self._submit_global(batch, state, basis)
        batch.run()
        local_pmfs = {
            i: h.result().to_pmf() for i, h in subset_handles.items()
        }

        mitigated = sorted(self.mitigated_groups)
        priors = [
            self._global_pmf(global_handles[g]) if run_globals
            else self._prior[g]
            for g in mitigated
        ]
        group_locals = [
            [local_pmfs[i] for i in self._compatible[g]] for g in mitigated
        ]
        reconstructed = dict(zip(
            mitigated, bayesian_reconstruct_batch(priors, group_locals)
        ))
        # Unselected groups read their raw Global every evaluation (the
        # baseline path).
        pmfs: list[PMF] = [
            reconstructed[g] if g in reconstructed
            else self._global_pmf(global_handles[g])
            for g in range(len(self.bases))
        ]
        if run_globals:
            self.scheduler.record_global(t)
        self._prior = pmfs
        self.scheduler.record_evaluation()
        return energy_from_group_pmfs(
            self.hamiltonian, pmfs, self.group_terms
        )

    @property
    def circuits_per_subset_pass(self) -> int:
        """Subset circuits a mitigated evaluation runs: those some
        selected group needs."""
        return len(self._active_subsets)


class CalibrationGate:
    """Skip subsets whose windows already sit on excellent readout lines.

    Section 7.1: "If some qubits have near-zero measurement errors, then
    VarSaw, or measurement error mitigation in general, is not required
    for these qubits."  A subset window is kept only if at least one of
    its measured logical qubits maps (under the *default* layout — the
    one the Global circuits use) to a physical qubit whose mean readout
    error reaches ``error_threshold``.
    """

    def __init__(self, error_threshold: float = 0.01):
        check_number("error_threshold", error_threshold, minimum=0)
        self.error_threshold = float(error_threshold)

    def keep_indices(self, plan, readout, mapping=None) -> list[int]:
        """Subset indices still worth executing."""

        def physical(q: int) -> int:
            return mapping[q] if mapping is not None else q

        kept = []
        for index in range(plan.num_subsets):
            errors = [
                readout.qubit_errors[physical(q)].mean_error
                for q in plan.support(index)
            ]
            if any(e >= self.error_threshold for e in errors):
                kept.append(index)
        return kept


class CalibrationGatedVarSawEstimator(VarSawEstimator):
    """VarSaw that consults device calibration before running subsets.

    Construction prunes the subset plan with a :class:`CalibrationGate`;
    groups left with no compatible subsets simply use their Global
    distribution unreconstructed (those windows did not need mitigation).
    ``subsets_skipped`` records how much per-iteration work the gate
    saved.
    """

    def __init__(self, *args, gate: CalibrationGate | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = gate if gate is not None else CalibrationGate()
        kept = self.gate.keep_indices(
            self.plan, self.backend.device.readout
        )
        self.subsets_skipped = self.plan.num_subsets - len(kept)
        self._adopt_plan(SubsetPlan(
            n_qubits=self.plan.n_qubits,
            window=self.plan.window,
            assignments=[self.plan.assignments[i] for i in kept],
        ))


# ------------------------------------------------------------ registry


@register_estimator("selective")
@dataclass(frozen=True)
class SelectiveSpec(VarSawSpec):
    """Term- and phase-selective mitigation on top of VarSaw (§7.3).

    ``mass_fraction`` materializes a :class:`TermSelector` (``None``
    mitigates every group); ``phase_evaluations`` with
    ``phase_start``/``phase_end`` materializes a :class:`PhasePolicy`
    (``None`` keeps mitigation always on).
    """

    mass_fraction: float | None = None
    phase_evaluations: int | None = None
    phase_start: float = 0.0
    phase_end: float = 1.0

    def validate(self) -> None:
        """VarSaw's checks plus the selector and phase-window knobs."""
        super().validate()
        if self.mass_fraction is not None:
            check_fraction("mass_fraction", self.mass_fraction)
        if self.phase_evaluations is not None:
            check_int("phase_evaluations", self.phase_evaluations, minimum=1)
        check_fraction("phase_start", self.phase_start)
        check_fraction("phase_end", self.phase_end)
        if self.phase_start > self.phase_end:
            raise ValueError(
                f"phase_start must be <= phase_end; got "
                f"{self.phase_start} > {self.phase_end}"
            )

    def build(self, workload, backend, engine=None, **overrides):
        """A :class:`SelectiveVarSawEstimator` with the configured
        term selector and phase policy."""
        kwargs = self._constructor_kwargs(workload, backend, engine)
        if self.mass_fraction is not None:
            kwargs["term_selector"] = TermSelector(self.mass_fraction)
        if self.phase_evaluations is not None:
            kwargs["phase_policy"] = PhasePolicy(
                self.phase_evaluations,
                start_fraction=self.phase_start,
                end_fraction=self.phase_end,
            )
        kwargs.update(overrides)
        return SelectiveVarSawEstimator(
            workload.hamiltonian, workload.ansatz, backend, **kwargs
        )


@register_estimator("calibration_gated")
@dataclass(frozen=True)
class CalibrationGatedSpec(VarSawSpec):
    """VarSaw gated by device calibration (§7.1): subsets whose windows
    sit entirely on readout lines better than ``error_threshold`` are
    skipped."""

    error_threshold: float = 0.01

    def validate(self) -> None:
        """VarSaw's checks plus a finite ``error_threshold >= 0``."""
        super().validate()
        check_number("error_threshold", self.error_threshold, minimum=0)

    def build(self, workload, backend, engine=None, **overrides):
        """A :class:`CalibrationGatedVarSawEstimator` gated at
        ``error_threshold``."""
        kwargs = self._constructor_kwargs(workload, backend, engine)
        kwargs["gate"] = CalibrationGate(
            error_threshold=self.error_threshold
        )
        kwargs.update(overrides)
        return CalibrationGatedVarSawEstimator(
            workload.hamiltonian, workload.ansatz, backend, **kwargs
        )
