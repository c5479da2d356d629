"""Streaming re-calibration: detect drift from incoming counts.

The static ``calibration_gated`` estimator (:mod:`repro.core.selective`)
reads the device's calibration once; VarSaw's adaptive scheduler only
*indirectly* notices drift, through the fresh-vs-stale energy
comparison on evaluations that happen to run Globals.  Under real
calibration drift that is too slow: once the period has hill-climbed
up, a sudden jump in readout error poisons every reconstruction against
the stale prior until the next scheduled Global.

This module closes the loop online:

* :class:`DriftDetector` — a one-sided CUSUM over the total-variation
  distance between a cheap *calibration probe*'s outcome distribution
  and the reference distribution observed at the last re-calibration.
  Small shot-noise excursions below ``allowance`` decay; sustained or
  large divergence accumulates and alarms.
* :class:`DriftAwareVarSawEstimator` — VarSaw plus one probe circuit
  per objective evaluation.  On alarm it *triggers* the Global
  scheduler (fresh Globals + prior rebuild this evaluation) and
  rebases the detector's reference, i.e. re-calibrates.
* :class:`DriftAdaptiveSpec` — the registered ``drift_adaptive``
  estimator kind exposing the detector's knobs.

The probe is the all-ones preparation (X on every qubit, measure all):
its outcome distribution is, to first order, the device's ``p10``
readout response, which is exactly what the drift schedules in
:mod:`repro.noise.drift` perturb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..api import register_estimator
from ..api.spec import check_int, check_number
from ..circuits import Circuit
from ..sim import PMF
from .varsaw import VarSawEstimator, VarSawSpec

__all__ = [
    "DriftDetector",
    "DriftAwareVarSawEstimator",
    "DriftAdaptiveSpec",
    "total_variation",
]


def total_variation(p: PMF, q: PMF) -> float:
    """Total-variation distance between two same-width PMFs."""
    if p.n_qubits != q.n_qubits:
        raise ValueError(
            f"PMF widths differ: {p.n_qubits} vs {q.n_qubits}"
        )
    return float(0.5 * np.abs(p.probs - q.probs).sum())


class DriftDetector:
    """One-sided CUSUM on probe-distribution divergence.

    Each :meth:`update` computes the total-variation distance between
    the new probe PMF and the stored reference, subtracts the
    ``allowance`` (the expected shot-noise level, so a calibrated
    device's statistic hovers near zero), and accumulates::

        statistic = max(0, statistic + tvd - allowance)

    An alarm fires when the statistic exceeds ``threshold``; the caller
    is expected to re-calibrate and :meth:`rebase` on the fresh probe.
    A large sudden jump alarms in one or two updates; slow drift
    accumulates across updates — both land within a few probes.
    """

    def __init__(self, threshold: float, allowance: float = 0.0):
        check_number("threshold", threshold)
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0; got {threshold!r}")
        check_number("allowance", allowance, minimum=0)
        self.threshold = float(threshold)
        self.allowance = float(allowance)
        self.reference: PMF | None = None
        self.statistic = 0.0
        self.peak_statistic = 0.0
        self.last_divergence = 0.0
        self.updates = 0
        self.alarms = 0

    def rebase(self, reference: PMF) -> None:
        """Adopt ``reference`` as the calibrated probe distribution."""
        self.reference = reference
        self.statistic = 0.0

    def update(self, probe: PMF) -> bool:
        """Feed one probe observation; ``True`` means drift detected.

        The first update establishes the reference and never alarms.
        On alarm the caller must :meth:`rebase` (the statistic is not
        reset here, so an un-handled alarm keeps firing).
        """
        self.updates += 1
        if self.reference is None:
            self.rebase(probe)
            return False
        self.last_divergence = total_variation(probe, self.reference)
        self.statistic = max(
            0.0, self.statistic + self.last_divergence - self.allowance
        )
        self.peak_statistic = max(self.peak_statistic, self.statistic)
        if self.statistic > self.threshold:
            self.alarms += 1
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"<DriftDetector statistic={self.statistic:.4f} "
            f"threshold={self.threshold:g} alarms={self.alarms}>"
        )


class DriftAwareVarSawEstimator(VarSawEstimator):
    """VarSaw with an online drift detector driving re-calibration.

    Before every objective evaluation one calibration probe circuit
    (all-ones preparation, ``probe_shots`` shots, unmapped so it reads
    the physical qubits the Globals use) is executed and fed to a
    :class:`DriftDetector`.  On alarm the Global scheduler is
    :meth:`~repro.core.temporal.GlobalScheduler.trigger`-ed — the
    evaluation runs fresh Globals and rebuilds the prior — and the
    detector rebases on the alarming probe.  ``recalibrations`` counts
    the alarms acted on.

    Probe circuits run through the same engine (and are charged to the
    same ledger) as the measurement circuits, so the cost of the online
    policy is visible in the cost/accuracy frontier, not hidden.
    """

    def __init__(
        self,
        hamiltonian,
        ansatz,
        backend,
        spec: DriftAdaptiveSpec,
        engine=None,
    ):
        super().__init__(hamiltonian, ansatz, backend, spec, engine)
        self.detector = DriftDetector(
            spec.detector_threshold, allowance=spec.drift_allowance
        )
        self.recalibrations = 0
        probe = Circuit(self.n_qubits)
        for q in range(self.n_qubits):
            probe.x(q)
        probe.measure_all()
        self._probe_circuit = probe

    def _probe(self) -> PMF:
        """Run one calibration probe; return its sampled PMF."""
        batch = self.engine.new_batch()
        handle = batch.submit_circuit(
            self._probe_circuit, self.spec.probe_shots
        )
        batch.run()
        return handle.result().to_pmf()

    def evaluate(self, params: np.ndarray) -> float:
        """Probe for drift (re-calibrating on alarm), then evaluate as
        VarSaw."""
        probe = self._probe()
        if self.detector.update(probe):
            # The probe distribution has drifted away from the last
            # calibration: force fresh Globals and re-anchor on what
            # the device looks like *now*.
            self.scheduler.trigger()
            self.detector.rebase(probe)
            self.recalibrations += 1
        return super().evaluate(params)


@register_estimator("drift_adaptive")
@dataclass(frozen=True)
class DriftAdaptiveSpec(VarSawSpec):
    """VarSaw + streaming drift detection (``drift_adaptive``).

    Extends :class:`~repro.core.varsaw.VarSawSpec` with the online
    policy's knobs; ``global_mode`` stays ``adaptive`` (the detector
    *triggers* the adaptive scheduler rather than replacing it).
    """

    probe_shots: int = 512
    detector_threshold: float = 0.25
    drift_allowance: float = 0.12

    estimator_class = DriftAwareVarSawEstimator

    _PINNED_MODE: ClassVar[str | None] = "adaptive"

    def validate(self) -> None:
        """VarSaw's checks plus the probe and detector knobs."""
        super().validate()
        check_int("probe_shots", self.probe_shots, minimum=1)
        check_number("detector_threshold", self.detector_threshold)
        if self.detector_threshold <= 0:
            raise ValueError(
                f"detector_threshold must be > 0; "
                f"got {self.detector_threshold!r}"
            )
        check_number("drift_allowance", self.drift_allowance, minimum=0)
