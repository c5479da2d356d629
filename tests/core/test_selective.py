"""Unit tests for selective (term/phase) mitigation."""

import numpy as np
import pytest

from repro.core import PhasePolicy, SelectiveVarSawEstimator, TermSelector
from repro.hamiltonian import Hamiltonian
from repro.noise import SimulatorBackend, ibmq_mumbai_like
from repro.vqe.expectation import assign_terms_to_groups


class TestTermSelector:
    def make_groups(self):
        ham = Hamiltonian(
            [(10.0, "ZZII"), (0.5, "XXII"), (0.01, "IIXX")]
        )
        _, group_terms = assign_terms_to_groups(ham)
        return ham, group_terms

    def test_selects_heaviest_first(self):
        _, group_terms = self.make_groups()
        masses = [
            sum(abs(c) for c, _ in members) for members in group_terms
        ]
        selected = TermSelector(mass_fraction=0.9).select(group_terms)
        assert masses.index(max(masses)) in selected

    def test_full_mass_selects_everything(self):
        _, group_terms = self.make_groups()
        assert TermSelector(1.0).select(group_terms) == set(
            range(len(group_terms))
        )

    def test_small_mass_selects_one(self):
        _, group_terms = self.make_groups()
        assert len(TermSelector(0.5).select(group_terms)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TermSelector(1.5)


class TestPhasePolicy:
    def test_window(self):
        policy = PhasePolicy(100, start_fraction=0.5, end_fraction=1.0)
        assert not policy.active(0)
        assert not policy.active(49)
        assert policy.active(50)
        assert policy.active(99)
        assert policy.active(150)  # clamps at 1.0

    def test_always_active_default(self):
        policy = PhasePolicy(10)
        assert all(policy.active(t) for t in range(20))

    def test_validation(self):
        with pytest.raises(ValueError):
            PhasePolicy(0)
        with pytest.raises(ValueError):
            PhasePolicy(10, start_fraction=0.8, end_fraction=0.2)


class TestSelectiveEstimator:
    @pytest.fixture
    def setup(self, h2, h2_ansatz):
        backend = SimulatorBackend(ibmq_mumbai_like(), seed=0)
        return h2, h2_ansatz, backend

    def test_full_selection_equals_varsaw_cost(self, setup):
        h2, ansatz, backend = setup
        est = SelectiveVarSawEstimator(
            h2, ansatz, backend, shots=64,
            term_selector=TermSelector(1.0),
        )
        params = np.zeros(ansatz.num_parameters)
        est.evaluate(params)
        assert backend.circuits_run == (
            est.plan.num_subsets + est.num_groups
        )

    def test_partial_selection_runs_fewer_subsets(self, setup):
        h2, ansatz, backend = setup
        full = SelectiveVarSawEstimator(
            h2, ansatz, SimulatorBackend(seed=0), shots=64,
            term_selector=TermSelector(1.0),
        )
        partial = SelectiveVarSawEstimator(
            h2, ansatz, backend, shots=64,
            term_selector=TermSelector(0.5),
        )
        assert (
            partial.circuits_per_subset_pass
            < full.circuits_per_subset_pass
        )

    def test_phase_policy_disables_mitigation_early(self, setup):
        h2, ansatz, backend = setup
        est = SelectiveVarSawEstimator(
            h2, ansatz, backend, shots=64,
            phase_policy=PhasePolicy(10, start_fraction=0.5),
        )
        params = np.zeros(ansatz.num_parameters)
        est.evaluate(params)  # t=0: inactive -> baseline path
        baseline_cost = backend.circuits_run
        assert baseline_cost == len(est.bases)
        for _ in range(5):
            est.evaluate(params)  # t=1..5; t=5 activates mitigation
        assert backend.circuits_run > 6 * len(est.bases)

    def test_energy_reasonable_with_partial_mitigation(self, setup):
        """Partial mitigation still produces a sane energy estimate."""
        from repro.vqe import IdealEstimator

        h2, ansatz, backend = setup
        est = SelectiveVarSawEstimator(
            h2, ansatz, backend, shots=8192,
            term_selector=TermSelector(0.8),
        )
        params = np.full(ansatz.num_parameters, 0.2)
        ideal = IdealEstimator(h2, ansatz).evaluate(params)
        assert est.evaluate(params) == pytest.approx(ideal, abs=0.5)

    def test_selected_groups_have_subsets(self, setup):
        h2, ansatz, backend = setup
        est = SelectiveVarSawEstimator(
            h2, ansatz, backend, shots=64,
            term_selector=TermSelector(0.7),
        )
        for g in est.mitigated_groups:
            assert set(est._compatible[g]) <= set(est._active_subsets)
