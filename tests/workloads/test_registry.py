"""Unit tests for the workload registry and building every kind on it."""

import copy
import pickle

import pytest

import repro.workloads.registry as registry_module
from repro.api import Session
from repro.core import (
    CalibrationGatedVarSawEstimator,
    DriftAwareVarSawEstimator,
    SelectiveVarSawEstimator,
    VarSawEstimator,
)
from repro.hamiltonian import build_hamiltonian, ground_state_energy
from repro.mitigation import JigSawEstimator
from repro.noise import ibm_lagos_like
from repro.qaoa import make_qaoa_workload
from repro.vqe import (
    BaselineEstimator,
    GeneralCommutationEstimator,
    IdealEstimator,
)
from repro.workloads import ESTIMATOR_KINDS, make_spin_workload, make_workload


class TestMakeWorkload:
    def test_defaults_match_section_5_1(self):
        w = make_workload("H2-4")
        assert w.ansatz.reps == 2
        assert w.ansatz.entanglement == "full"
        assert w.device.name == "ibmq_mumbai_like"
        assert w.ideal_energy == pytest.approx(10.46)

    def test_ansatz_width_matches_molecule(self):
        w = make_workload("CH4-6")
        assert w.ansatz.n_qubits == 6 == w.n_qubits

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_keep_terms_and_masks(self, clone):
        w = make_workload("H2-4")
        twin = clone(w)
        assert twin.hamiltonian.terms == w.hamiltonian.terms
        masks = [(p.x_mask, p.z_mask) for _, p in w.hamiltonian.terms]
        assert [
            (p.x_mask, p.z_mask) for _, p in twin.hamiltonian.terms
        ] == masks
        assert twin.ideal_energy == w.ideal_energy

    def test_custom_ansatz_knobs(self):
        w = make_workload("H2-4", reps=4, entanglement="linear")
        assert w.ansatz.reps == 4
        assert w.ansatz.entanglement == "linear"

    def test_device_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_workload("CH4-8", device=ibm_lagos_like())

    def test_unknown_molecule(self):
        with pytest.raises(KeyError):
            make_workload("Xe-99")


@pytest.fixture
def ground_state_calls(monkeypatch):
    """Every Hamiltonian a workload solves for its ideal energy."""
    calls = []

    def counting(hamiltonian):
        calls.append(hamiltonian)
        return ground_state_energy(hamiltonian)

    monkeypatch.setattr(registry_module, "ground_state_energy", counting)
    return calls


class TestLazyIdealEnergy:
    def test_h2o_12_solves_on_first_read_only(self, ground_state_calls):
        w = make_workload("H2O-12")
        assert ground_state_calls == []
        energy = w.ideal_energy
        assert len(ground_state_calls) == 1
        assert w.ideal_energy == energy
        assert len(ground_state_calls) == 1
        assert energy == ground_state_energy(build_hamiltonian("H2O-12"))

    def test_a_known_value_is_never_solved_for(self, ground_state_calls):
        assert make_workload("H2-4").ideal_energy == 10.46
        given = make_workload("LiH-6")
        given.ideal_energy = -1.5
        assert given.ideal_energy == -1.5
        assert ground_state_calls == []

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_spin_workload("tfim", 4),
            lambda: make_qaoa_workload("ring", 4),
        ],
        ids=["spin", "qaoa"],
    )
    def test_values_match_an_eager_solve(self, ground_state_calls, build):
        w = build()
        assert ground_state_calls == []
        assert w.ideal_energy == ground_state_energy(w.hamiltonian)
        assert len(ground_state_calls) == 1

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_keep_a_solved_value(self, ground_state_calls, clone):
        w = make_spin_workload("heisenberg", 4)
        unsolved = clone(w)
        energy = w.ideal_energy
        solved = clone(w)
        assert solved.ideal_energy == energy
        assert len(ground_state_calls) == 1
        assert unsolved.ideal_energy == energy
        assert len(ground_state_calls) == 2


class TestMakeEstimator:
    """Making each registered kind's estimator on a workload."""

    @pytest.fixture
    def setup(self):
        w = make_workload("H2-4", reps=1, entanglement="linear")
        return w, Session(w.device, seed=0)

    def test_all_kinds_construct(self, setup):
        w, session = setup
        expected_types = {
            "ideal": IdealEstimator,
            "baseline": BaselineEstimator,
            "jigsaw": JigSawEstimator,
            "varsaw": VarSawEstimator,
            "varsaw_no_sparsity": VarSawEstimator,
            "varsaw_max_sparsity": VarSawEstimator,
            "gc": GeneralCommutationEstimator,
            "selective": SelectiveVarSawEstimator,
            "calibration_gated": CalibrationGatedVarSawEstimator,
            "drift_adaptive": DriftAwareVarSawEstimator,
        }
        assert set(ESTIMATOR_KINDS) == set(expected_types)
        assert len(ESTIMATOR_KINDS) >= 9
        for kind, cls in expected_types.items():
            est = session.estimator(kind, w, shots=16)
            assert isinstance(est, cls)

    def test_legacy_kinds_listed_first(self):
        assert ESTIMATOR_KINDS[:6] == (
            "ideal", "baseline", "jigsaw", "varsaw",
            "varsaw_no_sparsity", "varsaw_max_sparsity",
        )

    def test_sparsity_modes_wired(self, setup):
        w, session = setup
        no_sparsity = session.estimator("varsaw_no_sparsity", w)
        max_sparsity = session.estimator("varsaw_max_sparsity", w)
        assert no_sparsity.scheduler.mode == "always"
        assert max_sparsity.scheduler.mode == "never"

    def test_unknown_kind(self, setup):
        w, session = setup
        with pytest.raises(ValueError, match="unknown estimator kind"):
            session.estimator("magic", w)

    def test_kwargs_passthrough(self, setup):
        w, session = setup
        est = session.estimator("varsaw", w, initial_period=8)
        assert est.scheduler.period == 8

    def test_misspelled_kwarg_names_key_and_fields(self, setup):
        # The silent-forwarding fix: a typo'd knob fails loudly, by
        # name, with the kind's accepted fields — at build time.
        w, session = setup
        with pytest.raises(ValueError, match=r"'windw'") as excinfo:
            session.estimator("varsaw", w, windw=3)
        assert "window" in str(excinfo.value)
        assert "'varsaw'" in str(excinfo.value)

    def test_kwarg_for_wrong_kind_rejected(self, setup):
        w, session = setup
        with pytest.raises(ValueError, match="mass_fraction"):
            session.estimator("baseline", w, mass_fraction=0.5)

    def test_new_kind_knobs_wired(self, setup):
        w, session = setup
        selective = session.estimator(
            "selective", w, mass_fraction=0.8, global_mode="always"
        )
        assert selective.term_selector.mass_fraction == 0.8
        gated = session.estimator(
            "calibration_gated", w, error_threshold=0.5
        )
        assert gated.gate.error_threshold == 0.5
        gc = session.estimator("gc", w, method="greedy")
        assert gc.num_groups >= 1

    def test_pinned_sparsity_mode_conflict_rejected(self, setup):
        w, session = setup
        with pytest.raises(ValueError, match="pins global_mode"):
            session.estimator(
                "varsaw_no_sparsity", w, global_mode="never"
            )
