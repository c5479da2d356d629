"""Unit tests for the JigSaw estimator."""

import numpy as np
import pytest

from repro.mitigation import JigSawEstimator, JigSawSpec
from repro.noise import SimulatorBackend, ibmq_mumbai_like
from repro.vqe import (
    BaselineEstimator,
    BaselineSpec,
    IdealEstimator,
    IdealSpec,
)


class TestCostAccounting:
    def test_circuits_per_evaluation(self, h2, h2_ansatz):
        backend = SimulatorBackend(seed=0)
        est = JigSawEstimator(
            h2, h2_ansatz, backend, JigSawSpec(shots=32, window=2)
        )
        # Per group: 1 global + (4 - 2 + 1) = 3 subsets.
        assert est.circuits_per_evaluation == est.num_groups * 4

    def test_backend_charged_accordingly(self, h2, h2_ansatz):
        backend = SimulatorBackend(seed=0)
        est = JigSawEstimator(h2, h2_ansatz, backend, JigSawSpec(shots=16))
        est.evaluate(np.zeros(h2_ansatz.num_parameters))
        assert backend.circuits_run == est.circuits_per_evaluation

    def test_jigsaw_costs_more_than_baseline(self, h2, h2_ansatz):
        """The Section 3 motivation: JigSaw multiplies per-iteration cost."""
        backend = SimulatorBackend(seed=0)
        jig = JigSawEstimator(h2, h2_ansatz, backend, JigSawSpec(shots=16))
        base = BaselineEstimator(
            h2, h2_ansatz, backend, BaselineSpec(shots=16)
        )
        assert (
            jig.circuits_per_evaluation
            >= 3 * base.circuits_per_evaluation
        )

    @pytest.mark.parametrize("subset_shots", [0, -5])
    def test_subset_shots_below_one_rejected(
        self, h2, h2_ansatz, subset_shots
    ):
        with pytest.raises(ValueError, match="subset_shots"):
            JigSawEstimator(
                h2,
                h2_ansatz,
                SimulatorBackend(),
                JigSawSpec(shots=16, subset_shots=subset_shots),
            )

    def test_window_validation(self, h2, h2_ansatz):
        with pytest.raises(ValueError):
            JigSawEstimator(
                h2,
                h2_ansatz,
                SimulatorBackend(),
                JigSawSpec(shots=16, window=0),
            )

    def test_mitigated_group_pmf_runs_one_group(self, h2, h2_ansatz):
        """Mitigating one group charges 1 global + the subsets."""
        backend = SimulatorBackend(seed=0)
        est = JigSawEstimator(
            h2, h2_ansatz, backend, JigSawSpec(shots=16, window=2)
        )
        state = est.prepare_state(np.zeros(h2_ansatz.num_parameters))
        (pmf,) = est._mitigated_pmfs(state, [est.bases[0]])
        assert pmf.n_qubits == h2.n_qubits
        assert pmf.probs.sum() == pytest.approx(1.0)
        assert backend.circuits_run == 1 + len(est.windows)


class TestMitigationQuality:
    def test_noise_free_jigsaw_matches_ideal(self, h2, h2_ansatz):
        """Without noise the reconstruction is consistent (no bias)."""
        backend = SimulatorBackend(seed=1)
        est = JigSawEstimator(
            h2, h2_ansatz, backend, JigSawSpec(shots=100_000)
        )
        ideal = IdealEstimator(
            h2, h2_ansatz, SimulatorBackend(), IdealSpec()
        )
        params = np.full(h2_ansatz.num_parameters, 0.25)
        assert est.evaluate(params) == pytest.approx(
            ideal.evaluate(params), abs=0.05
        )

    def test_jigsaw_beats_baseline_under_readout_noise(self, h2, h2_ansatz):
        """Table 1's claim at circuit level: JigSaw recovers most of the
        measurement-error-induced energy inaccuracy."""
        params = np.full(h2_ansatz.num_parameters, 0.3)
        ideal = IdealEstimator(
            h2, h2_ansatz, SimulatorBackend(), IdealSpec()
        ).evaluate(params)
        device = ibmq_mumbai_like(scale=2.0)
        errors = {"baseline": [], "jigsaw": []}
        for seed in range(3):
            backend = SimulatorBackend(device, seed=seed)
            base = BaselineEstimator(
                h2, h2_ansatz, backend, BaselineSpec(shots=4096)
            )
            jig = JigSawEstimator(
                h2, h2_ansatz, backend, JigSawSpec(shots=4096)
            )
            errors["baseline"].append(abs(base.evaluate(params) - ideal))
            errors["jigsaw"].append(abs(jig.evaluate(params) - ideal))
        assert np.mean(errors["jigsaw"]) < np.mean(errors["baseline"])
