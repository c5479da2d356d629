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

from ..ansatz import EfficientSU2
from ..api import register_estimator
from ..api.spec import check_fraction, check_int, check_number
from ..hamiltonian import Hamiltonian
from ..noise import SimulatorBackend
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

    Beyond :class:`VarSawEstimator`'s, :class:`SelectiveSpec`'s knobs
    build two policies:

    term_selector:
        Which groups get reconstruction; unselected groups use their raw
        Global counts (and are skipped by the subset pass when no
        selected group needs their subsets).  ``None`` mitigates every
        group.
    phase_policy:
        When mitigation is active at all; outside the phase the estimator
        behaves like the noisy baseline (cheapest possible iteration).
        ``None`` keeps mitigation always on.
    """

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        ansatz: EfficientSU2,
        backend: SimulatorBackend,
        spec: SelectiveSpec,
        engine=None,
    ):
        super().__init__(hamiltonian, ansatz, backend, spec, engine)
        self.term_selector = None
        if spec.mass_fraction is not None:
            self.term_selector = TermSelector(spec.mass_fraction)
            self.mitigated_groups = self.term_selector.select(
                self.group_terms
            )
        self.phase_policy = None
        if spec.phase_evaluations is not None:
            self.phase_policy = PhasePolicy(
                spec.phase_evaluations,
                start_fraction=spec.phase_start,
                end_fraction=spec.phase_end,
            )
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
        return super().evaluate(params)


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

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        ansatz: EfficientSU2,
        backend: SimulatorBackend,
        spec: CalibrationGatedSpec,
        engine=None,
    ):
        super().__init__(hamiltonian, ansatz, backend, spec, engine)
        self.gate = CalibrationGate(spec.error_threshold)
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

    estimator_class = SelectiveVarSawEstimator

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


@register_estimator("calibration_gated")
@dataclass(frozen=True)
class CalibrationGatedSpec(VarSawSpec):
    """VarSaw gated by device calibration (§7.1): subsets whose windows
    sit entirely on readout lines better than ``error_threshold`` are
    skipped."""

    error_threshold: float = 0.01

    estimator_class = CalibrationGatedVarSawEstimator

    def validate(self) -> None:
        """VarSaw's checks plus a finite ``error_threshold >= 0``."""
        super().validate()
        check_number("error_threshold", self.error_threshold, minimum=0)
